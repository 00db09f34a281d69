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

Importing the package loads none of them.  A submodule loads when it is
first named (``aggkit.cli``, ``from aggkit import model``), together
with the modules it imports.  The first package-level export named, or
``__all__`` itself, loads every library module; ``aggkit.check_axiom``
is then ``aggkit.model.check_axiom``.  So ``import aggkit.cli`` costs
only the modules that argument parsing, loading and the report writer
need, and each command loads its reading when it runs.
"""

from __future__ import annotations

import functools
import importlib

__version__ = "0.1.0"

# The library modules, in the order of ``__all__``; ``cli`` is no library.
_LIBRARY = ("belief", "choice", "errors", "fileio", "geometry", "model", "recovery", "social", "testkit")
_SUBMODULES = frozenset(_LIBRARY + ("cli",))


@functools.cache
def _export_table() -> dict[str, str]:
    """Export name -> its module; each module's ``__all__`` is the one
    statement of what it exports."""
    return {
        name: module
        for module in _LIBRARY
        for name in importlib.import_module(f".{module}", __name__).__all__
    }


def __getattr__(name: str):
    # A submodule loads alone, so ``from aggkit import cli`` loads no reading.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value: object = list(_export_table())
    elif name.startswith("_") or name not in _export_table():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        value = getattr(importlib.import_module(f".{_export_table()[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_export_table()})
