"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`AggkitError`, so callers
(and the command line front end) can separate anticipated failures from
genuine bugs with a single except clause.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "AggkitError",
    "DimensionMismatch",
    "AffinelyDependentBasis",
    "NotInAffineHull",
    "NotInConvexHull",
    "UnknownFeature",
    "MissingDataError",
    "MissingSingleton",
    "IntransitivityDetected",
    "DegenerateLambda",
    "NotABelief",
    "MultipleRankClasses",
    "NotStationary",
    "DiscountUnidentified",
    "MinimalAgreementViolated",
    "ConstantUtility",
    "ResidualTooLarge",
    "ProfileConstructionFailed",
    "UnsatisfiablePolicy",
    "TooLarge",
    "OracleRefused",
    "DatasetFormatError",
]


class AggkitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DimensionMismatch(AggkitError):
    """Operands do not live in the same coordinate space."""


class AffinelyDependentBasis(AggkitError):
    """Barycentric coordinates require an affinely independent basis."""


class NotInAffineHull(AggkitError):
    """The point is not in the affine hull of the basis, beyond tolerance."""


class NotInConvexHull(AggkitError):
    """The point is not in the convex hull of the generators."""


class UnknownFeature(AggkitError):
    """A feature id was used that the object does not know about."""


class MissingDataError(AggkitError):
    """A required set is absent from the data source.

    ``required`` lists the missing sets as sorted member tuples.
    """

    def __init__(self, required: Iterable[Iterable[str]], message: str | None = None):
        self.required: tuple[tuple[str, ...], ...] = tuple(
            sorted(tuple(sorted(s)) for s in required)
        )
        if message is None:
            shown = ", ".join("{" + ",".join(s) + "}" for s in self.required)
            message = f"required sets absent from the data source: {shown}"
        super().__init__(message)


class MissingSingleton(MissingDataError):
    """A set was supplied without the singletons of all of its members."""


class IntransitivityDetected(AggkitError):
    """No weak order is consistent with the pairwise comparisons.

    ``triple`` carries one violating feature triple (x, y, z) with
    x at-least-as-good-as y, y at-least-as-good-as z, but not x over z.
    """

    def __init__(self, triple: tuple[str, str, str]):
        self.triple = triple
        super().__init__(f"pairwise order is intransitive on triple {triple}")


class DegenerateLambda(AggkitError):
    """A pair aggregate sits at (or off) a segment endpoint where a strictly
    interior mixing coefficient was required."""

    def __init__(self, pair: tuple[str, str], lam: float | None, note: str = ""):
        self.pair = pair
        self.lam = lam
        msg = f"pair {pair} yields no interior mixing coefficient"
        if lam is not None:
            msg += f" (lambda={lam!r})"
        if note:
            msg += f": {note}"
        super().__init__(msg)


class NotABelief(AggkitError):
    """An outcome vector is not a probability vector within tolerance."""


class MultipleRankClasses(AggkitError):
    """The operation needs a single rank class but the representation has more."""


class NotStationary(AggkitError):
    """Timed queries are not invariant under a common time shift."""


class DiscountUnidentified(AggkitError):
    """No two singleton outcomes differ beyond tolerance, so no staggered
    pair can identify the discount factor."""


class MinimalAgreementViolated(AggkitError):
    """A utility vector's inner product with the agreement direction is
    not above its tolerance gate, so it cannot be normalized."""

    def __init__(self, who: str, value: float, gate: float):
        self.who = who
        self.value = value
        self.gate = gate
        super().__init__(
            f"{who}: inner product with the agreement direction is {value!r}, "
            f"not above the gate {gate!r}"
        )


class ConstantUtility(AggkitError):
    """A utility vector is constant across alternatives, so min/max scaling
    is undefined."""


class ResidualTooLarge(AggkitError):
    """A decomposition residual exceeded its gate and no structured verdict
    applies; usually a sign of corrupt input."""


class ProfileConstructionFailed(AggkitError):
    """No admissible preference profile could be built from the library."""


class UnsatisfiablePolicy(AggkitError):
    """The generator configuration cannot satisfy the requested policy."""


class TooLarge(AggkitError):
    """The requested enumeration would be too large to materialize."""


class OracleRefused(AggkitError):
    """An external oracle failed to answer a query."""


class DatasetFormatError(AggkitError):
    """An input file does not follow the documented format.

    ``location`` points at the offending element, e.g. ``sets[3].outcome``.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
