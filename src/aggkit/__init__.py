"""Aggregation toolkit: averaging checks, recovery, and diagnostics.

The package treats a map from finite feature sets to vector outcomes as
the primitive object.  Around that it provides: axiom checks for
weighted averaging (``model``), recovery of ranks and weights from the
aggregates alone (``recovery``), probabilistic readings when outcomes
are beliefs (``belief``), stochastic-choice readings when outcomes are
average choices (``choice``), welfare readings when outcomes are
utilities (``social``), seeded generators and an independent brute-force
checker (``testkit``), file formats (``fileio``), and a command line
front end (``cli``).
"""

from . import belief, choice, errors, fileio, geometry, model, recovery, social, testkit
from .belief import *
from .choice import *
from .errors import *
from .fileio import *
from .geometry import *
from .model import *
from .recovery import *
from .social import *
from .testkit import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one statement of what it exports.
__all__ = [
    *belief.__all__,
    *choice.__all__,
    *errors.__all__,
    *fileio.__all__,
    *geometry.__all__,
    *model.__all__,
    *recovery.__all__,
    *social.__all__,
    *testkit.__all__,
]
