"""Core data model: dataset sources, representations, axiom checks.

A *dataset source* is a finite table of the outcome each stored set of
features maps to.  A *representation* explains such a map with a
strictly positive weight per feature and an integer rank per feature:
the outcome of a set is the weighted average of its highest-ranked
members' singleton outcomes.  This module holds both notions plus the
checks that connect raw data to the mixture axioms (weighted, strict,
extreme averaging).

That rule, form (3) of the paper, has one implementation: every forward
evaluation in the package is a call to ``_top_means``, which reads the
sets as per-size blocks of feature codes, the form of a source's index,
in ``_padded`` runs of sizes.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    MissingDataError,
    MissingSingleton,
    TooLarge,
    UnknownFeature,
)
from .geometry import (
    DEFAULT_TOL,
    SegmentKind,
    Tolerance,
    Vector,
    _SEGMENT_KINDS,
    _affine_rank,
    _affine_ranks,
    _close_rows,
    _segment_positions,
    _strictly_inside,
    as_point,
)

__all__ = [
    "feature_set",
    "DatasetSource",
    "Representation",
    "top_set",
    "evaluate",
    "induced_source",
    "AxiomMode",
    "AxiomCheck",
    "AxiomReport",
    "check_axiom",
    "check_richness",
    "StrongRichnessReport",
    "check_strong_richness",
]

FeatureSet = frozenset[str]

# What a feature id may not contain: the pattern of
# schemas/dataset.schema.json (for ``re``, ``\s`` is ``str.isspace``).
_ID_FORBIDDEN = re.compile(r"[\s,]")


def validate_feature_id(fid: str) -> str:
    """Feature ids are non-empty strings without whitespace or commas."""
    if not isinstance(fid, str) or not fid:
        raise ValueError(f"feature id must be a non-empty string, got {fid!r}")
    if _ID_FORBIDDEN.search(fid):
        raise ValueError(f"feature id may not contain whitespace or commas: {fid!r}")
    return fid


def feature_set(members: Iterable[str] | str) -> FeatureSet:
    """Normalize an iterable of feature ids (or a single id) to a frozenset."""
    if isinstance(members, str):
        members = [members]
    fs = frozenset(validate_feature_id(m) for m in members)
    if not fs:
        raise ValueError("a feature set must be non-empty")
    return fs


def _first_fault(items: Sequence[tuple[object, object]], dimension: int) -> NoReturn:
    """Raise the error of the first faulty entry of a dataset table.

    The entries are walked in insertion order with the per-entry checks,
    so the error is the one a one-entry-at-a-time constructor raises.
    """
    seen: set[FeatureSet] = set()
    for key, value in items:
        fs = feature_set(key)
        as_point(value, dim=dimension)
        if fs in seen:
            raise ValueError(f"duplicate set {sorted(fs)} in dataset")
        seen.add(fs)
    raise AssertionError("the batched checks refused a table without a faulty entry")


def _canonical(codes: NDArray[np.intp], lengths: NDArray[np.intp], starts: NDArray[np.intp]) -> bool:
    """Whether the rows of ``DatasetSource._from_columns``' columns (row i:
    ``lengths[i]`` codes from ``codes[starts[i]]``) are in canonical order:
    sizes never fall, each row's codes rise, and each row is lexicographically
    below the next row of its size, so no row repeats a code or a set.  One
    pass over the flat column, whatever the sizes."""
    if not (lengths[1:] >= lengths[:-1]).all():
        return False
    head = np.zeros(len(codes), dtype=bool)
    head[starts] = True
    if not ((codes[1:] > codes[:-1]) | head[1:]).all():
        return False
    # Each code against the code at its place in the next row: where that row
    # has the same size, the first place they differ must rise.
    index = np.arange(len(codes))
    paired = np.repeat(np.append(lengths[1:] == lengths[:-1], False), lengths)
    step = np.where(paired, codes.take(index + np.repeat(lengths, lengths), mode="clip") - codes, 1)
    first = np.minimum.reduceat(np.where(step != 0, index, len(codes)), starts)
    return bool((first < len(codes)).all() and (step[first] > 0).all())


class DatasetSource:
    """Finite table of set outcomes, the one source type: every reading
    takes one, and ``belief.recover_discounted`` fills one from its
    oracle's answers.

    Keys are feature sets, values are outcome points of a common
    dimension; an empty table raises ValueError.  Every member of every
    set must also appear as a singleton, so the data always contains the
    underlying feature map; violating that raises MissingSingleton at
    construction time.

    The data is validated once, at construction, in batch: each distinct
    feature id is checked once, and all outcomes are stacked into one
    float array for one shape and one finiteness test.  Only a table that
    fails is walked entry by entry, so the error is that of its first
    faulty entry in insertion order.  This source, and every one that
    ``fileio.load_dataset`` reads, is built by ``_from_columns``: the
    outcomes are the rows of one read-only ``(m, d)`` array in canonical
    set order, so its first ``len(features())`` rows are the singletons in
    feature order.  The index, read-only as well, is the flat column
    ``_codes`` of every set's feature indices (each set's increasing) end to
    end in row order, with ``_sizes``, each row's set size; ``_members``,
    each set's sorted members, row for row; and ``_blocks``, each set size
    k -> its first row and its sets' codes as a ``(m_k, k)`` view of
    ``_codes``, so stored pair j is row n + j.  Kernels that take sets of
    many sizes at once read the blocks in ``_padded`` runs.
    A source with new outcomes for the same sets (``_with_points``) shares
    the index, but not ``_pair_tables``, where ``_pair_table`` keeps its
    read-only tables per tolerance, and ``recovery._same_rank_table`` its
    own per tolerance and ranks.  The public lookups validate their
    arguments; code inside the package that holds valid ids uses
    ``_lookup``, ``_row``, the index and ``_pair_table`` directly.
    """

    def __init__(
        self,
        dimension: int,
        outcomes: Mapping[Iterable[str] | str, Sequence[float] | Vector],
    ):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        items = list(outcomes.items())
        if not items:
            raise ValueError("a dataset needs at least one set")
        try:
            sets = [frozenset((k,)) if isinstance(k, str) else frozenset(k) for k, _ in items]
            ids = frozenset().union(*sets)
            for fid in ids:
                validate_feature_id(fid)
            stack = np.array([value for _, value in items], dtype=float)
        except (TypeError, ValueError, OverflowError):
            _first_fault(items, int(dimension))
        if (not all(sets) or stack.shape != (len(items), dimension) or not np.isfinite(stack).all()
                or len(set(sets)) != len(sets)):
            _first_fault(items, int(dimension))
        missing = sorted((m,) for m in ids - {m for fs in sets if len(fs) == 1 for m in fs})
        if missing:
            raise MissingSingleton(missing, "every member of every set needs a singleton entry")
        features = tuple(sorted(ids))
        codes = map(dict(zip(features, range(len(features)))).__getitem__, itertools.chain(*sets))
        lengths = np.fromiter(map(len, sets), np.intp, len(sets))
        vars(self).update(vars(self._from_columns(dimension, features, np.fromiter(codes, np.intp), lengths, stack)))

    @classmethod
    def _from_columns(cls, dimension: int, features: tuple[str, ...], codes, lengths, points) -> DatasetSource:
        """The source of unchecked columns: ``features``, valid ids in sorted order,
        each with a singleton row; row i's ``lengths[i]`` > 0 codes (indices into
        ``features``, in any order) end to end in the int array ``codes``, and its
        finite outcome ``points[i]``.  ValueError when a row repeats a code or two
        rows hold one set.  Columns already in canonical order (every file
        ``dataset_to_json`` writes) are indexed as they stand, in one pass;
        others are sorted, then tested as those are."""
        self = cls.__new__(cls)
        starts = np.cumsum(lengths) - lengths
        if not _canonical(codes, lengths, starts):  # sort each row's codes, then the rows of each size
            codes = codes[np.lexsort((codes, np.repeat(np.arange(len(lengths)), lengths)))]
            order = np.concatenate([group[np.lexsort(codes[starts[group, None] + np.arange(size)].T[::-1])]
                                    for size in np.flatnonzero(np.bincount(lengths)).tolist()
                                    for group in [np.flatnonzero(lengths == size)]])
            lengths, points, moved = lengths[order], points[order], starts[order]
            starts = np.cumsum(lengths) - lengths
            codes = codes[np.repeat(moved - starts, lengths) + np.arange(len(codes))]
            if not _canonical(codes, lengths, starts):
                raise ValueError("a set lists a member twice, or two rows hold one set")
        for column in (codes, lengths, points):
            column.setflags(write=False)
        names = np.array(features, dtype=object)[codes].tolist()
        members, blocks = [], {}
        cuts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(lengths)]
        for lo, hi in zip(cuts, cuts[1:]):  # each set size's rows, its codes one (rows, size) view
            size, at = int(lengths[lo]), int(starts[lo])
            end = at + (hi - lo) * size
            blocks[size] = (lo, codes[at:end].reshape(-1, size))
            members += zip(*[iter(names[at:end])] * size)
        self.dimension = int(dimension)
        self._features = features
        self._members = tuple(members)
        self._codes, self._sizes, self._blocks = codes, lengths, blocks
        self._pair_tables = {}
        self._points = points
        return self

    def _with_points(self, points: NDArray[np.float64]) -> DatasetSource:
        """This source's sets with ``points``, a new ``(m, d)`` float array it
        makes read-only, as their outcomes row for row; the index is shared,
        not rebuilt.  Its first row not finite raises as_point's ValueError."""
        as_point(points[np.isfinite(points).all(axis=1).argmin()])
        points.setflags(write=False)
        derived = copy.copy(self)
        derived._points, derived._pair_tables = points, {}
        return derived

    def features(self) -> tuple[str, ...]:
        return self._features

    def sets(self) -> tuple[FeatureSet, ...]:
        return tuple(map(frozenset, self._members))

    def has(self, members: Iterable[str] | str) -> bool:
        return self._lookup(feature_set(members)) is not None

    def outcome(self, members: Iterable[str] | str) -> Vector:
        fs = feature_set(members)
        point = self._lookup(fs)
        if point is None:
            raise MissingDataError([fs])
        return point

    def _lookup(self, members: Iterable[str]) -> Vector | None:
        """Stored outcome of a set of valid feature ids, None when absent."""
        row = self._row(tuple(sorted(members)))
        return None if row is None else self._points[row]

    def _row(self, key: tuple[str, ...]) -> int | None:
        """Row of the stored set whose sorted members are ``key``, None when absent."""
        first, block = self._blocks.get(len(key), (0, ()))
        row = bisect.bisect_left(self._members, key, first, first + len(block))
        return row if row < first + len(block) and self._members[row] == key else None

    def __len__(self) -> int:
        return len(self._members)


# Rows of ``_pair_table``'s ``equal`` computed per block of singletons.
_CHUNK = 64


def _pair_table(
    src: DatasetSource, tol: Tolerance
) -> tuple[NDArray[np.bool_], NDArray[np.int32], NDArray[np.bool_]]:
    """The stored pairs of ``src`` as n x n arrays over its feature indices,
    from one scatter of the size-2 block: ``equal[i, j]``, the singleton
    outcomes of i and j pass ``Tolerance.close`` (compared ``_CHUNK`` rows of
    ``equal`` at a time, so no n^2 x d copy is made); ``row[i, j]`` (symmetric,
    int32, as a source holds fewer than 2^31 sets), the row of f({i, j}) in
    ``src._points``, -1 where the pair is absent and on the diagonal; and
    ``away[i, j]``, a stored f({i, j}) is not ``_close_rows``-close to f(j),
    so ``away & away.T`` marks the pair aggregates away from both endpoints.
    The three are read-only and built once per source and tolerance."""
    if tol in src._pair_tables:
        return src._pair_tables[tol]
    n = len(src._features)
    singles = src._points[:n]  # the singletons, in feature order; stored pair k is row n + k
    equal = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _CHUNK):
        block = singles[lo : lo + _CHUNK]
        equal[lo : lo + len(block)] = _close_rows(
            np.repeat(block, n, axis=0), np.tile(singles, (len(block), 1)), tol
        ).reshape(-1, n)
    first, second = src._blocks[2][1].T if 2 in src._blocks else np.empty((2, 0), np.intp)
    aggs = src._points[n : n + len(first)]
    row = np.full((n, n), -1, dtype=np.int32)
    row[first, second] = row[second, first] = np.arange(n, n + len(first))
    away = np.zeros((n, n), dtype=bool)
    away[first, second] = ~_close_rows(aggs, singles[second], tol)
    away[second, first] = ~_close_rows(aggs, singles[first], tol)
    for table in (equal, row, away):
        table.setflags(write=False)
    src._pair_tables[tol] = equal, row, away
    return src._pair_tables[tol]


def _positive_weights(weights: Mapping[str, float], members: Sequence[str]) -> list[float]:
    """The weights of ``members`` as floats: UnknownFeature for a member
    without one, ValueError for one that is not positive and finite."""
    unknown = [m for m in members if m not in weights]
    if unknown:
        raise UnknownFeature(f"unknown features {unknown}")
    out = [float(weights[m]) for m in members]
    for m, w in zip(members, out):
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(f"weight of {m!r} must be strictly positive, got {w!r}")
    return out


# Most padded cells (rows x the run's largest set x cells per member) one
# array pass over a run of ``_padded`` sets takes: rule (3) here and the
# interior certificate of ``choice.boundary_diagnostic``.
_PAD_CELLS = 1 << 16


def _padded(
    blocks: Iterable[NDArray[np.intp]], width: int, cells: int, dense: bool = False, pad: int = 0
) -> Iterator[tuple[int, int, NDArray[np.intp], NDArray[np.bool_]]]:
    """The sets of ``blocks``, ``(m, k)`` blocks of codes with k rising, in
    runs of rows lo..hi-1 (rows numbered on through the blocks), each as one
    block of their codes padded with ``pad`` to the run's largest set, with
    the mask of codes ``present``: yields (lo, hi, block, present).  A run's
    block, at ``width`` cells per member, takes at most ``cells`` cells or
    holds one set; with ``dense`` a run is also at most half padding, so a
    rare large set does not pad the small ones out to its size.  A run of
    one size is a view of its block, not a copy."""
    slots = cells // width
    pieces = (block[i : i + step] for block in blocks
              for step in [max(1, slots // block.shape[1])] for i in range(0, len(block), step))
    runs: list[list[NDArray[np.intp]]] = []  # each run's pieces of blocks
    rows = members = 0
    for piece in pieces:
        padded = (rows + len(piece)) * piece.shape[1]
        if not runs or padded > slots or dense and padded > 2 * (members + piece.size):
            runs.append([])
            rows = members = 0
        runs[-1].append(piece)
        rows, members = rows + len(piece), members + piece.size
    lo = 0
    for run in runs:
        if len(run) == 1:
            block, present = run[0], np.ones(run[0].shape, dtype=bool)
        else:
            sizes = np.repeat([piece.shape[1] for piece in run], [len(piece) for piece in run])
            present = np.arange(run[-1].shape[1]) < sizes[:, None]
            block = np.full(present.shape, pad, dtype=np.intp)
            block[present] = np.concatenate([piece.ravel() for piece in run])
        yield lo, lo + len(block), block, present
        lo += len(block)


def _top_means(
    weights: Sequence[float],
    points: Sequence[Vector],
    blocks: Mapping[int, tuple[int, NDArray[np.intp]]] | None = None,
    ranks: Sequence[int] | None = None,
) -> NDArray[np.float64]:
    """Rule (3) for each set of ``blocks``: the weighted mean of its top rank.

    ``weights``, ``points`` and ``ranks`` (by default one rank) follow the
    features in sorted order.  ``blocks`` holds the sets as
    ``DatasetSource._blocks`` does: size k -> (first output row, a ``(m_k, k)``
    block of feature codes, each row increasing), sizes rising and rows
    numbered on from 0; by default one set of every feature.  The sets are
    taken in dense ``_padded`` runs, padded with an extra code of rank below
    every feature and zero terms.  Weight x point and weight are added one
    padded column at a time across the run, zero for a member below its
    set's top rank, so each set's sum adds its top members' terms in sorted
    order, as a scalar loop would: adding zero to a sum that starts at +0
    changes no bit.
    """
    points = np.asarray(points, dtype=float)
    ranks = np.zeros(len(points)) if ranks is None else np.asarray(ranks)
    if blocks is None:
        blocks = {len(points): (0, np.arange(len(points))[None])}
    weights = np.asarray(weights, dtype=float)[:, None]
    terms = np.vstack([np.hstack([weights * points, weights]), np.zeros(points.shape[1] + 1)])  # w x point, w
    levels = np.append(ranks, -np.inf)
    sums = np.zeros((sum(len(block) for _, block in blocks.values()), terms.shape[1]))
    runs = _padded((block for _, block in blocks.values()), terms.shape[1], _PAD_CELLS, dense=True, pad=len(points))
    for lo, hi, block, _ in runs:
        level = levels[block]
        top = np.where(level < level.max(axis=1, keepdims=True), len(points), block)  # below the top: zero terms
        acc = sums[lo:hi]
        for column in top.T:
            acc += terms[column]
    return sums[:, :-1] / sums[:, -1:]


@dataclass(frozen=True)
class Representation:
    """Weights, ranks, and singleton outcomes for a finite feature set.

    weights : strictly positive weight per feature.  On construction each
        rank class is rescaled so its lexicographically smallest member
        has weight exactly one; the rescaling never changes evaluation.
    ranks : integer rank per feature, larger meaning higher.
    outcomes : singleton outcome point per feature, common dimension.
    """

    weights: Mapping[str, float]
    ranks: Mapping[str, int]
    outcomes: Mapping[str, Vector]

    def __post_init__(self) -> None:
        keys = set(self.weights)
        if not keys:
            raise ValueError("a representation needs at least one feature")
        if keys != set(self.ranks) or keys != set(self.outcomes):
            raise ValueError("weights, ranks and outcomes must share one feature set")
        features = tuple(sorted(keys))
        for fid in features:
            validate_feature_id(fid)
        points = {f: as_point(p) for f, p in self.outcomes.items()}
        dims = {p.size for p in points.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"outcomes have mixed dimensions {sorted(dims)}")
        for p in points.values():
            p.setflags(write=False)
        self._fill(
            features, _positive_weights(self.weights, features), [int(self.ranks[f]) for f in features],
            points, np.vstack([points[f] for f in features]),
        )

    @classmethod
    def _of_arrays(
        cls, features: tuple[str, ...], weights: Mapping[str, float], ranks: Mapping[str, int], points: NDArray[np.float64]
    ) -> Representation:
        """The representation of input the package has already validated:
        ``features`` (sorted valid ids), strictly positive finite ``weights``
        and integer ``ranks`` over them, and their read-only finite outcomes,
        the rows of ``points``.  Normalised as the constructor normalises."""
        self = cls.__new__(cls)
        self._fill(features, [weights[f] for f in features], [ranks[f] for f in features],
                   dict(zip(features, points)), points)
        return self

    def _fill(
        self, features: tuple[str, ...], weights: Sequence[float], ranks: Sequence[int],
        outcomes: Mapping[str, Vector], points: NDArray[np.float64],
    ) -> None:
        """Set the fields from ``weights`` and ``ranks`` listed in the order of
        ``features``, the ``outcomes`` mapping and its ``(n, d)`` array
        ``points`` in that order; each rank class is rescaled at its
        lexicographically smallest member, the first of ``features``."""
        smallest: dict[int, int] = {}
        for j, level in enumerate(ranks):
            smallest.setdefault(level, j)
        weights = np.array(weights, dtype=float)
        weights /= weights[[smallest[level] for level in ranks]]
        object.__setattr__(self, "weights", MappingProxyType(dict(zip(features, weights.tolist()))))
        object.__setattr__(self, "ranks", MappingProxyType(dict(zip(features, ranks))))
        object.__setattr__(self, "outcomes", MappingProxyType(outcomes))
        # The same three as arrays over the sorted features, for _top_means.
        object.__setattr__(self, "_column", {f: j for j, f in enumerate(features)})
        object.__setattr__(self, "_weight_array", weights)
        object.__setattr__(self, "_rank_array", np.array(ranks))
        object.__setattr__(self, "_outcome_array", points)

    @property
    def dimension(self) -> int:
        return next(iter(self.outcomes.values())).size

    def features(self) -> tuple[str, ...]:
        return tuple(self._column)

    def rank_classes(self) -> tuple[tuple[str, ...], ...]:
        """Rank classes from highest to lowest, members sorted."""
        levels = sorted(set(self.ranks.values()), reverse=True)
        return tuple(
            tuple(sorted(f for f in self.weights if self.ranks[f] == level))
            for level in levels
        )

    def _evaluate_blocks(self, blocks: Mapping[int, tuple[int, NDArray[np.intp]]]) -> NDArray[np.float64]:
        """Rule (3) on the sets of ``blocks``, as :func:`_top_means` reads them."""
        return _top_means(self._weight_array, self._outcome_array, blocks, self._rank_array)


@functools.lru_cache(maxsize=4)
def _every_subset(n: int) -> Mapping[int, tuple[int, NDArray[np.intp]]]:
    """Every non-empty subset of codes 0..n-1 as ``DatasetSource._blocks``
    holds sets: by size, then in ``itertools.combinations`` order.  Cached,
    read-only."""
    blocks = [np.array(list(itertools.combinations(range(n), k)), dtype=np.intp) for k in range(1, n + 1)]
    for block in blocks:
        block.setflags(write=False)
    starts = np.cumsum([0] + list(map(len, blocks))).tolist()
    return MappingProxyType({k: (first, block) for k, first, block in zip(range(1, n + 1), starts, blocks)})


def _block_source(
    features: tuple[str, ...], blocks: Mapping[int, tuple[int, NDArray[np.intp]]], points: NDArray[np.float64]
) -> DatasetSource:
    """The source of ``features`` (sorted, valid ids) whose sets are the rows
    of ``blocks``, in canonical order, with outcomes ``points`` row for row.
    The one test is finiteness: as_point raises the ValueError that
    ``DatasetSource`` raises for the first row that is not finite."""
    as_point(points[np.isfinite(points).all(axis=1).argmin()])
    codes = np.concatenate([block.ravel() for _, block in blocks.values()])
    lengths = np.repeat(list(blocks), [len(block) for _, block in blocks.values()])
    return DatasetSource._from_columns(points.shape[1], features, codes, lengths, points)


def _known_set(rep: Representation, members: Iterable[str] | str) -> FeatureSet:
    """``members`` as a feature set, refusing ids the representation lacks."""
    fs = feature_set(members)
    unknown = fs - rep.weights.keys()
    if unknown:
        raise UnknownFeature(f"unknown features {sorted(unknown)}")
    return fs


def top_set(rep: Representation, members: Iterable[str] | str) -> FeatureSet:
    """Members of maximal rank within the given set."""
    fs = _known_set(rep, members)
    best = max(rep.ranks[f] for f in fs)
    return frozenset(f for f in fs if rep.ranks[f] == best)


def evaluate(rep: Representation, members: Iterable[str] | str) -> Vector:
    """Weight-averaged outcome of the top-ranked members of the set."""
    codes = sorted(map(rep._column.__getitem__, _known_set(rep, members)))
    return rep._evaluate_blocks({len(codes): (0, np.array([codes]))})[0]


def _forward_source(rep: Representation, sets: Iterable[Iterable[str] | str]) -> DatasetSource:
    """The dataset of rule (3) on each of ``sets``, as ``DatasetSource`` builds it.  Each
    distinct id is looked up once; a list that fails that test is walked set by set with
    :func:`_known_set`, and outcomes that overflow go to the constructor: the first faulty set raises."""
    # Kept for the walk; one that is not iterable is left for it to refuse in turn.
    sets = [(s,) if isinstance(s, str) else tuple(s) if hasattr(s, "__iter__") else s for s in sets]
    try:
        known = list(map(frozenset, sets))
        checked = all(known) and frozenset().union(*known) <= rep.weights.keys()
    except TypeError:  # an unhashable id
        checked = False
    if not checked:
        known = [_known_set(rep, s) for s in sets]
    src = DatasetSource(rep.dimension, dict.fromkeys(known, np.zeros(rep.dimension)))
    column = np.array([rep._column[f] for f in src.features()], dtype=np.intp)
    blocks = {k: (first, column[block]) for k, (first, block) in src._blocks.items()}
    points = rep._evaluate_blocks(blocks)
    if not np.isfinite(points).all():  # rule (3) overflowed on finite outcomes
        DatasetSource(rep.dimension, {fs: points[src._row(tuple(sorted(fs)))] for fs in known})
    return src._with_points(points)


# Most features whose 2^n - 1 subsets ``induced_source`` enumerates.
_MAX_ALL_SUBSETS = 10


def induced_source(
    rep: Representation,
    sets: Iterable[Iterable[str]] | None = None,
) -> DatasetSource:
    """Dataset of forward evaluations of the representation.

    With ``sets`` omitted, every non-empty subset of the features is
    evaluated; beyond ``_MAX_ALL_SUBSETS`` features that raises TooLarge.
    """
    features = rep.features()
    if sets is None and len(features) > _MAX_ALL_SUBSETS:
        raise TooLarge(
            f"all subsets of {len(features)} features is too large; "
            f"the limit is {_MAX_ALL_SUBSETS}"
        )
    if sets is None:
        blocks = _every_subset(len(features))
        return _block_source(features, blocks, rep._evaluate_blocks(blocks))
    return _forward_source(rep, itertools.chain(sets, zip(features)))


class AxiomMode(Enum):
    """Which variant of the averaging axiom a check enforces."""

    WEIGHTED = "weighted"  # aggregate on the closed segment
    STRICT = "strict"      # aggregate strictly between the endpoints
    EXTREME = "extreme"    # aggregate at an endpoint

    @classmethod
    def from_name(cls, name: str) -> "AxiomMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown axiom mode {name!r}") from None


@dataclass(frozen=True)
class AxiomCheck:
    """One disjoint pair (A, B) checked against f(A | B)."""

    set_a: tuple[str, ...]
    set_b: tuple[str, ...]
    union: tuple[str, ...]
    lam: float | None          # mixing coefficient of set_a; None when degenerate/off line
    residual: float
    degenerate: bool
    passed: bool
    reason: str = ""


@dataclass(frozen=True, eq=False)
class AxiomReport:
    """The splits one ``check_axiom`` call judged, as the kernel's columns.

    Row k is one split U = A + B, in canonical order: ``union[k]``,
    ``part_a[k]`` and ``part_b[k]`` index the sorted member tuples in
    ``members`` (the source's stored sets); ``degenerate[k]`` marks
    coinciding f(A) and f(B), where ``lam[k]``, A's mixing coefficient,
    is NaN; ``residual[k]`` is the distance of f(U) from the segment
    line (from the endpoints' midpoint when degenerate); and ``reason[k]``
    indexes ``_REASONS``, 0 for a pass.  ``checks`` and ``violations``
    build ``AxiomCheck`` rows from these columns on each call; the
    counts and the verdict read the columns alone.
    """

    mode: AxiomMode
    tolerance: Tolerance
    members: tuple[tuple[str, ...], ...]
    union: NDArray[np.intp]
    part_a: NDArray[np.intp]
    part_b: NDArray[np.intp]
    lam: Vector
    residual: Vector
    degenerate: NDArray[np.bool_]
    reason: NDArray[np.intp]

    @property
    def satisfied(self) -> bool:
        return not self.reason.any()

    @property
    def check_count(self) -> int:
        return len(self.reason)

    @property
    def checks(self) -> tuple[AxiomCheck, ...]:
        return self._rows(slice(None))

    @property
    def violations(self) -> tuple[AxiomCheck, ...]:
        return self._rows(self.reason != 0)

    def _rows(self, rows: slice | NDArray[np.bool_]) -> tuple[AxiomCheck, ...]:
        keys = self.members
        return tuple(
            AxiomCheck(
                set_a=keys[a],
                set_b=keys[b],
                union=keys[u],
                lam=None if degen else lam,
                residual=res,
                degenerate=degen,
                passed=not why,
                reason=_REASONS[why],
            )
            for u, a, b, lam, res, degen, why in zip(
                *(column[rows].tolist() for column in (
                    self.union, self.part_a, self.part_b, self.lam,
                    self.residual, self.degenerate, self.reason,
                ))
            )
        )


# Why a split fails.  Its segment kind decides, except for an ON_SEGMENT
# split, where the mode's rule maps the strict-interior mask to the
# rows that pass.
_KIND_FAILS = {
    SegmentKind.DEGENERATE: "endpoints coincide but the union outcome differs from them",
    SegmentKind.OFF_LINE: "union outcome is off the segment line",
    SegmentKind.ON_LINE: "union outcome is collinear but outside the segment",
}
_MODE_RULES: dict[AxiomMode, tuple[Callable[[NDArray[np.bool_]], NDArray[np.bool_]], str]] = {
    AxiomMode.WEIGHTED: (np.ones_like, ""),
    AxiomMode.STRICT: (lambda inside: inside, "mixing coefficient sits at an endpoint"),
    AxiomMode.EXTREME: (np.logical_not, "mixing coefficient is strictly interior"),
}
# Index 0, the empty reason, is a pass.
_REASONS = ("", *_KIND_FAILS.values(), *(why for _, why in _MODE_RULES.values() if why))
_KIND_REASON = np.array([_REASONS.index(_KIND_FAILS.get(k, "")) for k in _SEGMENT_KINDS])


def _verdicts(
    kind: NDArray[np.intp],
    lam: Vector,
    degenerate_equal: NDArray[np.bool_],
    mode: AxiomMode,
    tol: Tolerance,
) -> NDArray[np.intp]:
    """Index into ``_REASONS`` of each split under ``mode``; 0 is a pass.

    ``kind`` and ``lam`` come from ``_segment_positions``;
    ``degenerate_equal`` marks the DEGENERATE rows whose f(A | B)
    matches the common endpoint.
    """
    reason = _KIND_REASON[kind]
    reason[degenerate_equal] = 0
    passes, why = _MODE_RULES[mode]
    on_segment = kind == _SEGMENT_KINDS.index(SegmentKind.ON_SEGMENT)
    reason[on_segment & ~passes(_strictly_inside(lam, tol))] = _REASONS.index(why)
    return reason


@functools.lru_cache(maxsize=16)
def _patterns(k: int) -> tuple[NDArray[np.bool_], NDArray[np.int8]]:
    """The proper parts of positions 0..k-1 that hold 0, in lexicographic
    order: A's and B's masks, (2, 2^(k-1) - 1, k), and the count of members
    after each one, the power of n + 1 its digit takes in the part's key."""
    parts = np.zeros((1, k), dtype=bool)
    for j in range(k - 1, 0, -1):  # the parts of j..k-1: none, those holding j, the others
        parts = np.concatenate([parts[:1], parts | (np.arange(k) == j), parts[1:]])
    parts[:, 0] = True
    both = np.stack([parts, ~parts])[:, np.arange(len(parts)) != k - 1]  # row k-1 is the union
    later = (np.cumsum(both[..., ::-1], axis=-1)[..., ::-1] - both).astype(np.int8)
    both.setflags(write=False)
    later.setflags(write=False)
    return both, later


def _listed_splits(
    src: DatasetSource, rows: NDArray[np.intp], smallest: NDArray[np.intp], few: NDArray[np.bool_]
) -> tuple[NDArray[np.intp], ...]:
    """The stored splits of the unions ``rows`` (one size, smallest codes
    ``smallest``): A among the stored sets sharing a union's smallest member
    where ``few`` marks those fewer than its ``_patterns``, else among the
    patterns; ``_row`` finds B."""
    members, size = src._members, len(src._members[rows[0]])
    spans = np.stack([first + np.searchsorted(block[:, 0], (smallest, smallest + 1)).T
                      for k, (first, block) in src._blocks.items() if k < size], axis=1)
    splits: list[int] = []  # (union, A, B) flat, without a tuple per split
    for row, by_sets, union_spans in zip(rows.tolist(), few.tolist(), spans.tolist()):
        union, held = members[row], set(members[row])
        if by_sets:
            found = [(members[a], a) for lo, hi in union_spans for a in range(lo, hi) if held.issuperset(members[a])]
        else:  # fewer parts than stored sets, and their keys would not fit in int64
            parts = [tuple(itertools.compress(union, mask)) for mask in _patterns(size)[0][0]]
            found = [(part, src._row(part)) for part in parts]
        for part, a in sorted(found):
            b = None if a is None else src._row(tuple(sorted(held.difference(part))))
            splits += () if b is None else (row, a, b)
    return tuple(np.array(splits, dtype=np.intp).reshape(-1, 3).T)


@functools.lru_cache(maxsize=64)
def _pattern_weights(size: int, n: int) -> NDArray[np.int64]:
    """The digit weights of ``_patterns(size)`` in base n + 1: a part's key
    is their product with its union's codes + 1.  Cached, read-only."""
    masks, later = _patterns(size)
    weights = np.where(masks, (np.int64(n + 1) ** np.arange(size, dtype=np.int64))[later], 0)
    weights.setflags(write=False)
    return weights


def _pattern_splits(
    keys: NDArray[np.int64], weights: NDArray[np.int64], block: NDArray[np.intp], first: int, rows: NDArray[np.intp]
) -> tuple[NDArray[np.intp], ...]:
    """The stored splits (union, A, B) of the unions ``rows`` of one size's
    code ``block`` (its first row ``first``) among their ``_patterns``: each
    part's key is one matrix product with ``weights``, and its row one
    ``searchsorted`` of the stored sets' ``keys``."""
    # (A or B, part, union): each part's keys over sorted unions, which searchsorted reads fastest
    key = weights @ (block[rows - first] + 1).T
    row = keys.searchsorted(key)
    union, part = np.nonzero((keys.take(row, mode="clip") == key).all(axis=0).T)
    return rows[union], row[0, part, union], row[1, part, union]


# Parts per piece of the pattern walk, and the splits ``_split_chunks``
# gathers into one chunk.
_SPLIT_CHUNK = 1 << 17


def _joined(pieces: Sequence[tuple[NDArray, ...]]) -> tuple[NDArray, ...]:
    """The columns of ``pieces`` end to end; a lone piece as it is."""
    return pieces[0] if len(pieces) == 1 else tuple(np.concatenate(column) for column in zip(*pieces))


def _split_chunks(src: DatasetSource) -> Iterator[tuple[NDArray[np.intp], ...]]:
    """Every stored split U = A + B of ``src`` as row indices (union, A, B),
    in chunks of at most ``_SPLIT_CHUNK`` splits (bar a larger lone piece);
    at least one, empty when no union has a stored split.

    Unions come in row order, each with every bipartition whose parts are
    stored, A holding U's smallest member, in lexicographic order of A's
    members (in a union, A fixes B).  A set's key is its codes + 1 as digits
    in base n + 1, so the stored sets' keys increase with their rows.  Each
    union takes the shorter candidate list for A: its 2^(|U|-1) - 1
    ``_patterns`` (``_pattern_splits``), for as many unions at a time as
    make ``_SPLIT_CHUNK`` parts, or ``_listed_splits``, which also takes the
    unions whose parts' keys would not fit in int64.  The walk runs once and
    holds one chunk and one piece's work; a union size with unions of both
    kinds is merged into row order before it is chunked.
    """
    n, blocks = len(src._features), src._blocks
    keys = np.concatenate([(block + 1) @ np.int64(n + 1) ** np.arange(size - 1, -1, -1, dtype=np.int64)
                           for size, (_, block) in blocks.items() if (n + 1) ** size < 2**63])
    sharing = np.bincount(src._codes[np.cumsum(src._sizes) - src._sizes], minlength=n)  # sets per smallest member
    held: list[tuple[NDArray[np.intp], ...]] = []  # the next chunk's pieces, which hold count splits
    count = 0
    for size, (first, block) in list(blocks.items())[1:]:  # every source stores singletons, which have no split
        few = sharing[block[:, 0]] < min(2 ** (size - 1), 2**62)  # no source holds 2^62 sets
        listed = few | ((n + 1) ** (size - 1) >= 2**63)
        pieces: Iterable[tuple[NDArray[np.intp], ...]] = ()
        if not listed.all():
            weights = _pattern_weights(size, n)
            rows, step = first + np.flatnonzero(~listed), max(1, _SPLIT_CHUNK // weights.shape[1])
            pieces = (_pattern_splits(keys, weights, block, first, rows[lo : lo + step])
                      for lo in range(0, len(rows), step))
        if listed.any():
            splits = _listed_splits(src, first + np.flatnonzero(listed), block[listed, 0], few[listed])
            if listed.all():
                pieces = (splits,)
            else:  # the listed unions among the others, in row order
                merged = _joined([*pieces, splits])
                order = np.argsort(merged[0], kind="stable")
                pieces = (tuple(column[order] for column in merged),)
        for piece in filter(lambda piece: len(piece[0]), pieces):
            if held and count + len(piece[0]) > _SPLIT_CHUNK:
                yield _joined(held)
                held, count = [], 0
            held.append(piece)
            count += len(piece[0])
    yield _joined(held) if held else (np.empty(0, dtype=np.intp),) * 3  # held is empty only without splits


def check_axiom(
    src: DatasetSource,
    mode: AxiomMode = AxiomMode.WEIGHTED,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Check every stored split (``_split_chunks``) against the axiom.

    A union U costs min(2^(|U|-1), stored sets sharing U's smallest
    member) lookups, one ``searchsorted`` of int64 keys per size for the
    subsets; the segment geometry runs as one array pass per chunk of
    splits, row by row, so the chunks do not change a row's bits.
    """
    points = src._points
    union, part_a, part_b, kind, lam, residual = _joined([
        (union, part_a, part_b, *_segment_positions(points[union], points[part_a], points[part_b], tol))
        for union, part_a, part_b in _split_chunks(src)
    ])
    degenerate = kind == _SEGMENT_KINDS.index(SegmentKind.DEGENERATE)
    equal = degenerate.copy()
    equal[degenerate] = _close_rows(points[union[degenerate]], points[part_a[degenerate]], tol)
    return AxiomReport(
        mode=mode,
        tolerance=tol,
        members=src._members,
        union=union,
        part_a=part_a,
        part_b=part_b,
        lam=lam,
        residual=residual,
        degenerate=degenerate,
        reason=_verdicts(kind, lam, equal, mode, tol),
    )


def check_richness(src: DatasetSource, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the stored outcomes do not all sit on one line."""
    return _affine_rank(src._points, tol) >= 2


@dataclass(frozen=True)
class StrongRichnessEntry:
    feature: str
    witness: tuple[str, str] | None

    @property
    def witnessed(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class StrongRichnessReport:
    entries: tuple[StrongRichnessEntry, ...]

    @property
    def satisfied(self) -> bool:
        return all(e.witnessed for e in self.entries)


def check_strong_richness(
    src: DatasetSource, tol: Tolerance = DEFAULT_TOL
) -> StrongRichnessReport:
    """Per-feature witness search for the strong richness condition.

    A feature x is witnessed by (y, z) when the three singleton outcomes
    are not collinear and both pair aggregates f({x,y}), f({x,z}) lie
    away from both of their endpoints.  One ``_pair_table`` marks the
    interior pairs.  Candidates with both pairs interior are then
    tried in lexicographic order until the first non-collinear triple:
    every feature's first candidate in one stacked collinearity test,
    and one test at a time only past a collinear first candidate.
    Raises MissingDataError when a feature has no witness and some
    absent pair (x, u) lies in a non-collinear triple (x, u, v); those
    pairs are the required sets.
    """
    features = src._features
    n = len(features)
    points = src._points[:n]  # the singletons, in feature order
    _, row, away = _pair_table(src, tol)
    interior = away & away.T
    absent = (row < 0) & ~np.eye(n, dtype=bool)
    partners = [np.flatnonzero(r).tolist() for r in interior]
    tried = [x for x in range(n) if len(partners[x]) >= 2]
    witnesses: dict[int, tuple[str, str] | None] = {}
    if tried:
        firsts = np.array([[x, *partners[x][:2]] for x in tried])
        for x, rank in zip(tried, _affine_ranks(points[firsts], tol).tolist()):
            if rank >= 2:
                witnesses[x] = (features[partners[x][0]], features[partners[x][1]])
    entries: list[StrongRichnessEntry] = []
    required: set[tuple[str, ...]] = set()
    for x in range(n):
        if x not in witnesses:
            later = itertools.islice(itertools.combinations(partners[x], 2), 1, None)
            witnesses[x] = next(
                ((features[y], features[z]) for y, z in later
                 if _affine_rank(points[[x, y, z]], tol) >= 2),
                None,
            )
        witness = witnesses[x]
        if witness is None:
            required.update(
                tuple(sorted((features[x], features[u])))
                for u in np.flatnonzero(absent[x]).tolist()
                if any(_affine_rank(points[[x, *sorted((u, v))]], tol) >= 2
                       for v in range(n) if v not in (x, u))
            )
        entries.append(StrongRichnessEntry(features[x], witness))
    if required:
        raise MissingDataError(sorted(required))
    return StrongRichnessReport(entries=tuple(entries))
