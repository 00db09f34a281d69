"""Fast checks against their exhaustive references.

``reference_check_axiom`` enumerates every bipartition of every stored
union, looks both parts up through the public, validating lookups, and
judges each split alone with ``reference_segment_coefficient`` (the
scalar segment formula) and ``reference_judge_pair``; the array kernel
behind ``check_axiom`` must give the same report, bit for bit;
``reference_strong_richness`` recomputes every pair answer and runs the
collinearity test for every candidate; ``reference_strong_richness_loop``
reads the same pair table but tests one candidate triple at a time,
where ``check_strong_richness`` tests every feature's first one at once.  Both are the straightforward
definitions the main code must reproduce exactly: same checks in the
same order, same witnesses, same blocked pairs.

``reference_convex_coefficients`` and ``reference_relative_interior``
search every affinely independent generator subset,
``reference_bayes_residual`` scans all 2^states events and
``reference_verify_cps`` scans every pair of stored conditioning sets.
The hull tests must give the same verdicts wherever the point is clear
of the hull's faces, where the two tolerance rules cannot disagree; the
Bayes residual must agree to rounding and the CPS check must report the
same pairs and the same violations in the same order.

``reference_evaluate`` and its siblings are the scalar loops of rule (3)
(top members in sorted order, add the weights and weight x outcome,
divide); every forward evaluation, now one array kernel, must match them
bit for bit.

``reference_recover_order``, ``reference_recover_weights`` and the
reference ratio search decide one pair at a time with ``Tolerance.close``
and ``segment_coefficient``; recovery, which reads the pairs as arrays,
must give the same ranks, weight bits, errors and witnesses.

``reference_dataset_source`` is the constructor that validates one entry
at a time; the batched ``DatasetSource`` must intern the same table bit
for bit and, on a faulty table, raise the same error for the same entry.

``reference_load_dataset`` reads a file's set records one at a time;
``load_dataset``, which reads them in batch, must build the same source bit
for bit from any edit of a valid file, or refuse it at the same place with
the same message.

``reference_split_rows`` sorts each union's bipartitions by their
member tuples; ``_split_rows``, which finds them by int64 keys in report
order, must give the same rows in the same order.

``reference_belief_check`` is the loader's per-set ``as_belief`` loop;
``load_dataset``, which flags the faulty rows in one array pass, must
accept the same belief datasets and refuse the others with the same
location and message.

``reference_boundary_diagnostic`` runs the hull search on every menu;
``boundary_diagnostic``, which settles the menus it can from the
recovered weights and searches only the rest, must give the same report.
``reference_certified_boundary`` certifies one menu size at a time with
``reference_certify_interior`` and builds one ``BoundaryRow`` per menu;
the one padded certificate call must accept the same rows and give the
same rows, boundary menus and contradictions.

``reference_bayes_parts`` is the per-set loop of the Bayes check, each
stored set's conditional summed from its columns of the joint;
``check_bayesian``, one gather per set size, must give the same positive
and negative parts of every set's gap, bit for bit, and the same residual.

``reference_normalized_source`` normalises one stored set at a time onto
<., v> = 1 and rebuilds the source through the mapping constructor;
``social._normalized_source``, one row pass on the source's own index,
must give the same points bit for bit, or the same error with the same
message, from 1e-310 to 1.7e308 and for subnormal directions.
``reference_perturb`` draws the noise one set at a time; ``perturb``,
one draw for all rows, must give the same bits.

``reference_numerical_rank`` counts one row of singular values against
its scalar threshold; ``_numerical_ranks``, which counts a whole stack
through the array gate, must give the same ranks at the threshold too.

``reference_canonical`` is the definition of canonical set order; the
one-pass ``_canonical`` test must agree with it, and input in any record
or member order must give the source of its canonical file bit for bit.
``per_size_top_means`` is rule (3) one set size at a time; the padded
runs of ``_top_means`` must match it and ``reference_top_mean`` bit for
bit under any run budget, and hold no more memory at their peak.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import time
import tracemalloc
import types
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggkit import (
    AxiomMode,
    ConditionalProbabilitySystem,
    DatasetSource,
    GeneratorConfig,
    MissingData,
    NonRepresentable,
    OutcomePolicy,
    Recovered,
    Representation,
    SubsetPolicy,
    TimedQuery,
    affine_dimension,
    aggregate_coalition,
    as_belief,
    barycentric,
    boundary_diagnostic,
    build_cps,
    build_joint,
    check_axiom,
    check_bayesian,
    check_richness,
    check_strong_richness,
    choice_probabilities,
    convex_coefficients,
    evaluate,
    evaluate_discounted,
    gen_dataset,
    gen_representation,
    induced_source,
    perturb,
    recover,
    recover_order,
    recover_weights,
    relative_interior_check,
    top_set,
    verify_cps,
)
from aggkit import belief, choice, cli, fileio, geometry, model, recovery, social
from aggkit.belief import ChainViolation, CpsReport, recover_discounted
from aggkit.choice import BoundaryRow, recover_two_stage
from aggkit.errors import (
    AffinelyDependentBasis,
    DatasetFormatError,
    DegenerateLambda,
    IntransitivityDetected,
    MinimalAgreementViolated,
    MissingDataError,
    MissingSingleton,
    NotABelief,
    NotInAffineHull,
    NotInConvexHull,
)
from aggkit.geometry import (
    DEFAULT_TOL,
    SegmentKind,
    SegmentPosition,
    Tolerance,
    _SEGMENT_KINDS,
    _numerical_ranks,
    _segment_positions,
    as_point,
    interior_lambda,
    segment_coefficient,
)
from aggkit.model import (
    AxiomCheck,
    StrongRichnessEntry,
    StrongRichnessReport,
    feature_set,
)
from aggkit.recovery import ContradictionWitness, RatioDerivation


def set_sort_key(members):
    """Canonical set order: by size first, then lexicographically."""
    return (len(members), tuple(sorted(members)))


def reference_segment_coefficient(p, a, b, tol=DEFAULT_TOL):
    """The segment formula on one point, in scalar steps."""
    p = as_point(p)
    a = as_point(a)
    b = as_point(b)

    d = a - b
    length = float(np.linalg.norm(d))
    if length <= tol.abs_tol:
        common = 0.5 * (a + b)
        return SegmentPosition(
            kind=SegmentKind.DEGENERATE,
            lam=None,
            residual=float(np.linalg.norm(p - common)),
        )

    lam_raw = float(np.dot(p - b, d) / (length * length))
    projected = lam_raw * a + (1.0 - lam_raw) * b
    residual = float(np.linalg.norm(p - projected))
    g = tol.gate(length, float(np.linalg.norm(p - b)))

    if residual > g:
        return SegmentPosition(kind=SegmentKind.OFF_LINE, lam=lam_raw, residual=residual)

    slack = tol.lam_slack
    if -slack <= lam_raw <= 1.0 + slack:
        lam = min(1.0, max(0.0, lam_raw))
        return SegmentPosition(kind=SegmentKind.ON_SEGMENT, lam=lam, residual=residual)
    return SegmentPosition(kind=SegmentKind.ON_LINE, lam=lam_raw, residual=residual)


def reference_judge_pair(pos, mode, tol, degenerate_equal):
    """Pass/fail and reason of one split, one branch per case.

    ``degenerate_equal`` says whether f(A | B) matches the common
    endpoint when the pair is degenerate; None otherwise.
    """
    if pos.kind is SegmentKind.DEGENERATE:
        if degenerate_equal:
            return True, ""
        return False, "endpoints coincide but the union outcome differs from them"
    if pos.kind is SegmentKind.OFF_LINE:
        return False, "union outcome is off the segment line"
    if pos.kind is SegmentKind.ON_LINE:
        return False, "union outcome is collinear but outside the segment"
    if mode is AxiomMode.WEIGHTED:
        return True, ""
    slack = tol.lam_slack
    interior = slack < pos.lam < 1.0 - slack
    if mode is AxiomMode.STRICT:
        if interior:
            return True, ""
        return False, "mixing coefficient sits at an endpoint"
    if not interior:
        return True, ""
    return False, "mixing coefficient is strictly interior"


def reference_check_axiom(src, mode, tol=DEFAULT_TOL):
    """Every bipartition (A holding the smallest member) of every union."""
    checks = []
    for union in src.sets():
        members = sorted(union)
        if len(members) < 2:
            continue
        f_union = src.outcome(union)
        head, rest = members[0], members[1:]
        seen = []
        for size in range(0, len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                part_a = frozenset([head, *extra])
                part_b = union - part_a
                if not part_b:
                    continue
                if not (src.has(part_a) and src.has(part_b)):
                    continue
                seen.append((tuple(sorted(part_a)), tuple(sorted(part_b))))
        for key_a, key_b in sorted(seen):
            f_a = src.outcome(key_a)
            f_b = src.outcome(key_b)
            pos = reference_segment_coefficient(f_union, f_a, f_b, tol)
            degenerate = pos.kind is SegmentKind.DEGENERATE
            equal = tol.close(f_union, f_a) if degenerate else None
            passed, reason = reference_judge_pair(pos, mode, tol, equal)
            checks.append(
                AxiomCheck(
                    set_a=key_a,
                    set_b=key_b,
                    union=tuple(members),
                    lam=None if degenerate else pos.lam,
                    residual=pos.residual,
                    degenerate=degenerate,
                    passed=passed,
                    reason=reason,
                )
            )
    return tuple(checks)


def reference_strong_richness(src, tol=DEFAULT_TOL):
    """Witness search that recomputes every pair and every collinearity test."""
    features = src.features()
    singles = {f: src.outcome([f]) for f in features}
    entries = []
    all_blocked = set()

    def pair_interior(x, other):
        fs = frozenset([x, other])
        if isinstance(src, DatasetSource) and not src.has(fs):
            return None
        agg = src.outcome(fs)
        ga = tol.gate(float(np.linalg.norm(agg)), float(np.linalg.norm(singles[x])))
        gb = tol.gate(float(np.linalg.norm(agg)), float(np.linalg.norm(singles[other])))
        return (
            float(np.linalg.norm(agg - singles[x])) > ga
            and float(np.linalg.norm(agg - singles[other])) > gb
        )

    for x in features:
        witness = None
        blocked = set()
        others = [f for f in features if f != x]
        for y, z in itertools.combinations(others, 2):
            if affine_dimension([singles[x], singles[y], singles[z]], tol) < 2:
                continue
            oy = pair_interior(x, y)
            oz = pair_interior(x, z)
            if oy is None:
                blocked.add(tuple(sorted((x, y))))
            if oz is None:
                blocked.add(tuple(sorted((x, z))))
            if oy and oz:
                witness = (y, z)
                break
        if witness is None and blocked:
            all_blocked |= blocked
        entries.append(StrongRichnessEntry(feature=x, witness=witness))
    if all_blocked:
        raise MissingDataError(sorted(all_blocked))
    return StrongRichnessReport(entries=tuple(entries))


def reference_strong_richness_loop(src, tol=DEFAULT_TOL):
    """The same pair table as ``check_strong_richness``, then one
    collinearity test at a time: each feature's candidates in
    lexicographic order until the first non-collinear triple."""
    features = src._features
    n = len(features)
    points = src._points[:n]
    _, row, away = model._pair_table(src, tol)
    interior = away & away.T
    absent = (row < 0) & ~np.eye(n, dtype=bool)
    entries = []
    required = set()
    for x in range(n):
        candidates = itertools.combinations(np.flatnonzero(interior[x]).tolist(), 2)
        witness = next(
            ((features[y], features[z]) for y, z in candidates
             if geometry._affine_rank(points[[x, y, z]], tol) >= 2),
            None,
        )
        if witness is None:
            required.update(
                tuple(sorted((features[x], features[u])))
                for u in np.flatnonzero(absent[x]).tolist()
                if any(geometry._affine_rank(points[[x, *sorted((u, v))]], tol) >= 2
                       for v in range(n) if v not in (x, u))
            )
        entries.append(StrongRichnessEntry(features[x], witness))
    if required:
        raise MissingDataError(sorted(required))
    return StrongRichnessReport(entries=tuple(entries))


def _rep(seed, features, classes=1, policy=OutcomePolicy.RANDOM_RICH, dimension=2):
    return gen_representation(
        GeneratorConfig(
            seed=seed,
            feature_count=features,
            dimension=dimension,
            rank_classes=classes,
            outcome_policy=policy,
        )
    )


def _wide(rep):
    """Singletons, all pairs, the full set and its two halves."""
    names = rep.features()
    half = len(names) // 2
    sets = [(f,) for f in names]
    sets += list(itertools.combinations(names, 2))
    sets += [names, names[:half], names[half:]]
    return gen_dataset(rep, sets)


def _thinned(src, seed, keep=0.6):
    """Drop a seeded share of the non-singleton sets."""
    rng = np.random.default_rng(seed)
    table = {
        s: src.outcome(s)
        for s in src.sets()
        if len(s) == 1 or rng.random() < keep
    }
    return DatasetSource(src.dimension, table)


def _strong_richness_or_missing(fn, src):
    try:
        return fn(src)
    except MissingDataError as err:
        return ("missing", err.required)


DATASETS = {
    "pairs-triples": lambda: gen_dataset(
        _rep(11, 9, classes=2), SubsetPolicy.PAIRS_AND_TRIPLES
    ),
    "all-subsets": lambda: gen_dataset(_rep(12, 7, classes=2)),
    "all-subsets-flat": lambda: gen_dataset(_rep(13, 6)),
    "wide-union": lambda: _wide(_rep(14, 12, classes=3)),
    "thinned": lambda: _thinned(gen_dataset(_rep(15, 7, classes=2)), seed=15),
    "thinned-triples": lambda: _thinned(
        gen_dataset(_rep(16, 10, classes=3), SubsetPolicy.PAIRS_AND_TRIPLES), seed=16
    ),
    "perturbed": lambda: perturb(gen_dataset(_rep(17, 6, classes=2)), 1e-3, seed=17),
    "perturbed-wide": lambda: perturb(_wide(_rep(18, 10)), 1e-3, seed=18),
    "collinear": lambda: gen_dataset(
        _rep(19, 6, classes=2, policy=OutcomePolicy.COLLINEAR)
    ),
    "beliefs-3d": lambda: gen_dataset(
        _rep(20, 6, classes=2, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=3)
    ),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    return DATASETS[request.param]()


class TestAxiomMatchesReference:
    @pytest.mark.parametrize("mode", list(AxiomMode))
    def test_same_checks_in_same_order(self, dataset, mode):
        report = check_axiom(dataset, mode)
        expected = reference_check_axiom(dataset, mode)
        assert report.checks == expected
        assert report.satisfied == all(c.passed for c in expected)

    def test_references_find_work(self):
        # The comparison above means something only if checks and
        # violations actually occur on some of the datasets.
        wide = DATASETS["perturbed-wide"]()
        checks = reference_check_axiom(wide, AxiomMode.WEIGHTED)
        assert any(c.union == wide.features() for c in checks)
        assert any(not c.passed for c in checks)

    def test_wide_and_small_unions_in_one_dataset(self):
        # The wide union takes its candidates from the stored sets, the
        # pairs from their own subsets; both show up in one report.
        src = DATASETS["wide-union"]()
        names = src.features()
        report = check_axiom(src, AxiomMode.WEIGHTED)
        assert sum(1 for c in report.checks if c.union == names) == 1
        assert any(len(c.union) == 2 for c in report.checks)


class TestStrongRichnessMatchesReference:
    def test_same_entries_or_same_required_sets(self, dataset):
        got = _strong_richness_or_missing(check_strong_richness, dataset)
        expected = _strong_richness_or_missing(reference_strong_richness, dataset)
        assert got == expected
        assert got == _strong_richness_or_missing(reference_strong_richness_loop, dataset)

    def test_richness_on_stored_array(self, dataset):
        points = [dataset.outcome(s) for s in dataset.sets()]
        assert check_richness(dataset) == (affine_dimension(points) >= 2)

    def test_missing_pairs_are_reported_identically(self):
        rep = _rep(21, 7, classes=2)
        full = gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)
        table = {
            s: full.outcome(s)
            for s in full.sets()
            if not (len(s) == 2 and "x00" in s)
        }
        src = DatasetSource(full.dimension, table)
        got = _strong_richness_or_missing(check_strong_richness, src)
        expected = _strong_richness_or_missing(reference_strong_richness, src)
        assert got == expected
        assert got[0] == "missing"


def _wide_union_among_singletons(size):
    names = [f"f{i:02d}" for i in range(size)]
    table = {frozenset([f]): [float(i), float(i * i)] for i, f in enumerate(names)}
    table[frozenset(names)] = [1.0, 2.0]
    return DatasetSource(2, table)


class TestNoExponentialWalk:
    def test_wide_union_with_only_singletons(self):
        # One 22-member union among its singletons: 2^21 candidate splits
        # exist, but only two stored sets share the union's smallest member.
        src = _wide_union_among_singletons(22)
        start = time.perf_counter()
        report = check_axiom(src)
        elapsed = time.perf_counter() - start
        assert report.checks == ()
        assert report.satisfied
        assert elapsed < 5.0

    def test_union_of_1100_members(self):
        # Its 2^1099 parts overflow a float: the walk counts them in integers.
        assert check_axiom(_wide_union_among_singletons(1100)).check_count == 0

    def test_walk_takes_the_shorter_candidate_list(self):
        src = _wide_union_among_singletons(22)
        lookups = []
        row = src._row
        src._row = lambda key: lookups.append(key) or row(key)
        assert [column.tolist() for column in model._split_rows(src)] == [[], [], []]
        # The smallest member's singleton is the only candidate part.
        assert lookups == [tuple(src._features[1:])]


# --------------------------------------------------------------------------
# the segment kernel against the scalar formula and the per-split loop


def _coincident_singletons(seed=25, features=7):
    """Singletons drawn from three lattice points, so many coincide exactly.

    Each pair and triple stores the mean of its members' outcomes, and a
    seeded share of them a lattice step away from it: degenerate splits
    that pass and degenerate splits that fail.
    """
    rng = np.random.default_rng(seed)
    spots = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
    names = [f"x{i}" for i in range(features)]
    single = {f: spots[rng.integers(len(spots))] for f in names}
    table = {frozenset([f]): p for f, p in single.items()}
    for size in (2, 3):
        for combo in itertools.combinations(names, size):
            point = np.mean([single[f] for f in combo], axis=0)
            if rng.random() < 0.3:
                point = point + rng.integers(-1, 2, size=2)
            table[frozenset(combo)] = point
    return DatasetSource(2, table)


def _collinear_outside(seed=26, features=6):
    """Lattice singletons; every union on the line of one of its splits.

    Each pair stores ``lam * f(a) + (1 - lam) * f(b)``, each triple the
    same over its (first two, last) split, with ``lam`` drawn from values
    inside, at the ends of and outside [0, 1]: collinear unions beyond
    the segment (ON_LINE) next to interior and endpoint ones.
    """
    rng = np.random.default_rng(seed)
    lams = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
    names = [f"x{i}" for i in range(features)]
    table = {frozenset([f]): rng.integers(-4, 5, size=2).astype(float) for f in names}
    for size in (2, 3):
        for combo in itertools.combinations(names, size):
            lam = lams[rng.integers(len(lams))]
            a, b = table[frozenset(combo[:-1])], table[frozenset(combo[-1:])]
            table[frozenset(combo)] = lam * a + (1.0 - lam) * b
    return DatasetSource(2, table)


AXIOM_DATASETS = {
    **DATASETS,
    "coincident-singletons": _coincident_singletons,
    "collinear-outside": _collinear_outside,
}


def _rows_json(checks):
    return json.dumps([dataclasses.asdict(c) for c in checks])


class TestAxiomReportMatchesPerSplitLoop:
    @pytest.mark.parametrize("mode", list(AxiomMode))
    @pytest.mark.parametrize("name", sorted(AXIOM_DATASETS))
    def test_same_report_and_same_row_bytes(self, name, mode):
        src = AXIOM_DATASETS[name]()
        checks = reference_check_axiom(src, mode)
        report = check_axiom(src, mode)
        assert (report.mode, report.tolerance) == (mode, DEFAULT_TOL)
        assert report.satisfied == all(c.passed for c in checks)
        assert report.check_count == len(checks)
        assert report.checks == checks
        assert report.violations == tuple(c for c in checks if not c.passed)
        # Equality reads -0.0 as 0.0; the serialized rows do not.
        assert _rows_json(report.checks) == _rows_json(checks)

    def test_edge_datasets_reach_their_branches(self):
        coincident = reference_check_axiom(_coincident_singletons(), AxiomMode.WEIGHTED)
        degenerate = [c for c in coincident if c.degenerate]
        assert any(c.passed for c in degenerate)
        assert any(not c.passed for c in degenerate)
        collinear = reference_check_axiom(_collinear_outside(), AxiomMode.STRICT)
        reasons = {c.reason for c in collinear}
        assert "union outcome is collinear but outside the segment" in reasons
        assert "mixing coefficient sits at an endpoint" in reasons
        assert "" in reasons


SLACK = DEFAULT_TOL.lam_slack
ABS = DEFAULT_TOL.abs_tol
FALLING_A, FALLING_B = [0.0, 0.0], [3.0, 4.0]  # a - b is negative in every coordinate

# (p, a, b, kind, lam) at each threshold of the segment formula.
SEGMENT_CASES = {
    "lam-at-minus-slack": ([-SLACK], [1.0], [0.0], SegmentKind.ON_SEGMENT, 0.0),
    "lam-ulp-below-minus-slack": (
        [np.nextafter(-SLACK, -1.0)], [1.0], [0.0],
        SegmentKind.ON_LINE, float(np.nextafter(-SLACK, -1.0)),
    ),
    "lam-at-one-plus-slack": ([1.0 + SLACK], [1.0], [0.0], SegmentKind.ON_SEGMENT, 1.0),
    "lam-ulp-above-one-plus-slack": (
        [np.nextafter(1.0 + SLACK, 2.0)], [1.0], [0.0],
        SegmentKind.ON_LINE, float(np.nextafter(1.0 + SLACK, 2.0)),
    ),
    "residual-at-gate": ([0.5, ABS], [1.0, 0.0], [0.0, 0.0], SegmentKind.ON_SEGMENT, 0.5),
    "residual-ulp-above-gate": (
        [0.5, np.nextafter(ABS, 1.0)], [1.0, 0.0], [0.0, 0.0], SegmentKind.OFF_LINE, 0.5
    ),
    "length-at-abs-tol": ([0.0, 0.0], [ABS, 0.0], [0.0, 0.0], SegmentKind.DEGENERATE, None),
    "length-ulp-above-abs-tol": (
        [0.0, 0.0], [np.nextafter(ABS, 1.0), 0.0], [0.0, 0.0], SegmentKind.ON_SEGMENT, 0.0
    ),
    "p-at-a-falling": (FALLING_A, FALLING_A, FALLING_B, SegmentKind.ON_SEGMENT, 1.0),
    "p-at-b-falling": (FALLING_B, FALLING_A, FALLING_B, SegmentKind.ON_SEGMENT, 0.0),
    # <p - b, a - b> / |a - b|^2 rounds to -0.0; the clamp must still say 0.0.
    "lam-underflows-to-minus-zero": ([-5e-324], [2.0], [0.0], SegmentKind.ON_SEGMENT, 0.0),
}


def _position_bits(pos):
    """Kind, and the bytes of lam (sign of zero included) and residual."""
    return pos.kind, None if pos.lam is None else _bits(pos.lam), _bits(pos.residual)


def _kernel_positions(rows, tol=DEFAULT_TOL):
    """One kernel call over ``rows`` of (p, a, b), read back as positions."""
    p, a, b = (np.array([row[i] for row in rows], dtype=float) for i in range(3))
    kind, lam, residual = _segment_positions(p, a, b, tol)
    return [
        SegmentPosition(
            kind=_SEGMENT_KINDS[k],
            lam=None if _SEGMENT_KINDS[k] is SegmentKind.DEGENERATE else lam_i,
            residual=r,
        )
        for k, lam_i, r in zip(kind.tolist(), lam.tolist(), residual.tolist())
    ]


def _seeded_segment_rows(seed, count, dim):
    """Rows of every kind: mixtures inside, at and beyond the ends, off-line
    points, and coincident or nearly coincident endpoints."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        a, b = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4), rng.normal(size=dim)
        shape = rng.integers(5)
        if shape == 1:
            b = a.copy()
        elif shape == 2:
            b = a + rng.normal(size=dim) * 1e-10
        lam = rng.choice([0.0, 1.0, -SLACK, 1.0 + SLACK, rng.uniform(-1.0, 2.0)])
        p = lam * a + (1.0 - lam) * b
        if shape == 3:
            p = p + rng.normal(size=dim) * 10.0 ** rng.integers(-12, 0)
        rows.append((p, a, b))
    return rows


class TestSegmentKernelMatchesScalarFormula:
    @pytest.mark.parametrize("name", sorted(SEGMENT_CASES))
    def test_threshold_case(self, name):
        p, a, b, kind, lam = SEGMENT_CASES[name]
        expected = reference_segment_coefficient(p, a, b)
        assert expected.kind is kind
        assert expected.lam == lam
        if lam is not None:
            assert json.dumps(expected.lam) == json.dumps(lam)
        assert _position_bits(segment_coefficient(p, a, b)) == _position_bits(expected)

    def test_cases_sit_on_their_thresholds(self):
        # The residual case sits exactly at the gate, the length case exactly
        # at abs_tol, and the underflow case really rounds to -0.0.
        p, a, b, *_ = SEGMENT_CASES["residual-at-gate"]
        assert reference_segment_coefficient(p, a, b).residual == ABS
        _, a, b, *_ = SEGMENT_CASES["length-at-abs-tol"]
        assert float(np.linalg.norm(np.subtract(a, b))) == ABS
        p, a, b, *_ = SEGMENT_CASES["lam-underflows-to-minus-zero"]
        raw = float(np.dot(np.subtract(p, b), np.subtract(a, b)) / 4.0)
        assert raw == 0.0 and math.copysign(1.0, raw) < 0.0

    def test_kernel_matches_every_row_in_one_call(self):
        for dim in (1, 2):
            rows = [c[:3] for c in SEGMENT_CASES.values() if len(c[0]) == dim]
            got = _kernel_positions(rows)
            expected = [reference_segment_coefficient(*row) for row in rows]
            assert [_position_bits(g) for g in got] == [_position_bits(e) for e in expected]

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(abs_tol=1e-6, rel_tol=1e-3)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_seeded_rows_bit_for_bit(self, dim, tol):
        rows = _seeded_segment_rows(40 + dim, 400, dim)
        got = _kernel_positions(rows, tol)
        expected = [reference_segment_coefficient(*row, tol) for row in rows]
        assert [_position_bits(g) for g in got] == [_position_bits(e) for e in expected]
        # A line has no off-line points.
        kinds = set(SegmentKind) - ({SegmentKind.OFF_LINE} if dim == 1 else set())
        assert {e.kind for e in expected} == kinds


# --------------------------------------------------------------------------
# hull membership and relative interior


def _reference_decomposition(p, gens, tol, coeff_slack):
    """Barycentric coordinates over every affinely independent subset."""
    m = len(gens)
    hull_dim = affine_dimension(gens, tol)
    for size in range(1, min(m, hull_dim + 1) + 1):
        for idx in itertools.combinations(range(m), size):
            subset = [gens[i] for i in idx]
            if affine_dimension(subset, tol) != size - 1:
                continue
            try:
                coef = barycentric(p, subset, tol)
            except (NotInAffineHull, AffinelyDependentBasis):
                continue
            if np.all(coef >= -coeff_slack):
                full = np.zeros(m)
                full[list(idx)] = np.clip(coef, 0.0, None)
                return full / full.sum()
    return None


def reference_convex_coefficients(p, gens, tol=DEFAULT_TOL):
    p = np.asarray(p, dtype=float)
    gens = [np.asarray(g, dtype=float) for g in gens]
    scale = max(float(np.linalg.norm(p)), *(float(np.linalg.norm(g)) for g in gens))
    return _reference_decomposition(p, gens, tol, tol.gate(scale, 1.0))


def reference_relative_interior(p, gens, tol=DEFAULT_TOL):
    """The stretched-point test of ``relative_interior_check``, by search."""
    p = np.asarray(p, dtype=float)
    gens = [np.asarray(g, dtype=float) for g in gens]
    if reference_convex_coefficients(p, gens, tol) is None:
        raise NotInConvexHull("outside")
    m = len(gens)
    if m == 1:
        return True
    level = 1e3 * tol.lam_slack
    if m * level >= 0.5:
        level = 0.5 / m
    centroid = np.mean(np.vstack(gens), axis=0)
    stretched = p + (m * level / (1.0 - m * level)) * (p - centroid)
    return _reference_decomposition(stretched, gens, tol, 0.0) is not None


def _hull_verdict(interior_check, p, gens):
    try:
        return "interior" if interior_check(p, gens) else "boundary"
    except NotInConvexHull:
        return "outside"


def _facet_clearance(p, gens):
    """Distance from ``p`` to the nearest facet hyperplane of a full-dimensional hull."""
    pts = np.vstack(gens)
    d = pts.shape[1]
    slack = 1e-9 * float(np.abs(pts).max())
    best = np.inf
    for idx in itertools.combinations(range(len(pts)), d):
        base = pts[list(idx)]
        # Padded to d x d, the last right singular vector is the normal.
        _, svals, vt = np.linalg.svd(np.vstack([base[1:] - base[0], np.zeros(d)]))
        if d > 1 and svals[d - 2] <= slack:
            continue
        side = (pts - base[0]) @ vt[-1]
        if np.all(side <= slack) or np.all(side >= -slack):
            best = min(best, abs(float((p - base[0]) @ vt[-1])))
    return best


def _agree(p, gens, tol=DEFAULT_TOL):
    got_coef = convex_coefficients(p, gens, tol)
    want_coef = reference_convex_coefficients(p, gens, tol)
    assert (got_coef is None) == (want_coef is None)
    if got_coef is not None:
        # An accepted decomposition rebuilds the point within the gate.
        scale = max(float(np.linalg.norm(p)), *(float(np.linalg.norm(g)) for g in gens))
        assert np.all(got_coef >= 0.0)
        assert float(got_coef.sum()) == pytest.approx(1.0)
        rebuilt = np.vstack(gens).T @ got_coef
        assert float(np.linalg.norm(rebuilt - p)) <= tol.gate(scale, 1.0)
    verdict = _hull_verdict(relative_interior_check, p, gens)
    assert verdict == _hull_verdict(reference_relative_interior, p, gens)
    return verdict


def _seeded_hull_cases(seed, count):
    """Full-dimensional generator sets with points clear of every facet."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d + 1, d + 6))
        gens = [rng.normal(size=d) for _ in range(m)]
        if affine_dimension(gens) != d:
            continue
        inside = np.vstack(gens).T @ rng.dirichlet(np.ones(m))
        outside = rng.normal(size=d) * 3.0
        for p in (inside, outside):
            gate = DEFAULT_TOL.gate(max(np.linalg.norm(g) for g in [p, *gens]), 1.0)
            if _facet_clearance(p, gens) >= 1e3 * gate:
                cases.append((p, gens))
    return cases


class TestHullMatchesReference:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_points_clear_of_every_face(self, seed):
        verdicts = [_agree(p, gens) for p, gens in _seeded_hull_cases(seed, 40)]
        assert {"interior", "outside"} <= set(verdicts)

    @pytest.mark.parametrize("seed", [34, 35])
    def test_vertices_midpoints_and_far_points(self, seed):
        rng = np.random.default_rng(seed)
        verdicts = []
        for _ in range(12):
            d = int(rng.integers(1, 4))
            gens = [rng.normal(size=d) for _ in range(int(rng.integers(2, 7)))]
            centroid = np.mean(gens, axis=0)
            radius = max(np.linalg.norm(g - centroid) for g in gens)
            direction = rng.normal(size=d)
            far = centroid + 3.0 * radius * direction / np.linalg.norm(direction)
            points = [*gens, 0.5 * (gens[0] + gens[1]), far]
            verdicts += [_agree(p, gens) for p in points]
        assert {"boundary", "outside"} <= set(verdicts)

    @pytest.mark.parametrize(
        "gens",
        [
            # duplicates
            [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            # all generators equal
            [[0.3, -0.2, 1.0]] * 4,
            # collinear in R^3
            [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.25, 0.5, 0.75], [-1.0, -2.0, -3.0]],
            # a single generator
            [[2.0, -1.0]],
            # many more generators than d + 1
            [[np.cos(t), np.sin(t)] for t in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)],
        ],
        ids=["duplicates", "all-equal", "collinear-3d", "single", "many-in-plane"],
    )
    def test_degenerate_generator_sets(self, gens):
        gens = [np.asarray(g, dtype=float) for g in gens]
        rng = np.random.default_rng(36)
        centroid = np.mean(gens, axis=0)
        radius = max(1.0, *(np.linalg.norm(g - centroid) for g in gens))
        points = [*gens, centroid, centroid + np.full(centroid.size, 2.0 * radius)]
        points += [0.5 * (a + b) for a, b in itertools.combinations(gens[:4], 2)]
        for _ in range(5):
            points.append(np.vstack(gens).T @ rng.dirichlet(np.full(len(gens), 2.0)))
        verdicts = [_agree(p, gens) for p in points]
        assert "outside" in verdicts


# --------------------------------------------------------------------------
# Bayes residual


def reference_bayes_residual(src, joint):
    """Worst |stored belief - conditional| over every non-empty state event."""
    n = joint.num_states
    worst = 0.0
    for s in src.sets():
        observed = src.outcome(s)
        members = sorted(s)
        marginal = joint.feature_marginal(members)
        for size in range(1, n + 1):
            for event in itertools.combinations(range(n), size):
                lhs = float(sum(observed[list(event)]))
                rhs = joint.prob(event, members) / marginal
                worst = max(worst, abs(lhs - rhs))
    return worst


def _belief_dataset(seed, states, features=5):
    rep = _rep(seed, features, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=states)
    return gen_dataset(rep)


class TestBayesMatchesReference:
    @pytest.mark.parametrize(
        "states,noise,tol,consistent",
        [
            (4, 0.0, 1e-9, True),
            (3, 0.0, 1e-9, True),
            (5, 0.0, 1e-9, True),
            (8, 0.0, 1e-9, True),
            (3, 1e-6, 1e-4, True),
            (5, 3e-5, 1e-4, True),
            (8, 1e-6, 1e-4, True),
            (8, 3e-5, 1e-4, False),
        ],
    )
    def test_same_residual_and_verdict(self, states, noise, tol, consistent):
        src = _belief_dataset(30 + states, states)
        if noise:
            src = perturb(src, noise, seed=states)
        tol = Tolerance(tol, tol)
        check = check_bayesian(src, tol)
        assert check.joint is not None
        expected = reference_bayes_residual(src, check.joint)
        assert check.max_residual == pytest.approx(expected, rel=0.0, abs=1e-12)
        assert check.consistent == (expected <= tol.gate(1.0)) == consistent


def reference_bayes_parts(src, tol):
    """The per-set loop of the Bayes check: each stored set's conditional from
    its columns of the joint, the positive and negative parts of its gap,
    and their maximum; None where no single-class joint is built."""
    for f in src.features():
        as_belief(src.outcome([f]), tol)
    outcome = recover(src, tol)
    if not isinstance(outcome, Recovered) or len(outcome.representation.rank_classes()) != 1:
        return None
    joint = build_joint(outcome.representation, tol)
    parts = []
    worst = 0.0
    for s in src.sets():
        cols = [i for i, f in enumerate(joint.features) if f in s]
        gap = src.outcome(s) - joint.table[:, cols].sum(axis=1) / float(joint.table[:, cols].sum())
        parts.append([float(gap[gap > 0.0].sum()), float(-gap[gap < 0.0].sum())])
        worst = max(worst, *parts[-1])
    return parts, worst


def _bayes_source(seed, states, classes, noise):
    """A seeded belief dataset on every subset of six features, its
    outcomes moved by ``noise``; two states take beliefs drawn here, since
    the simplex policy needs three to span a plane."""
    if states == 2:
        rep = _rep(seed, 6, classes)
        first = np.random.default_rng(seed).uniform(0.05, 0.95, 6)
        rep = Representation(
            weights=rep.weights,
            ranks=rep.ranks,
            outcomes={f: np.array([x, 1.0 - x]) for f, x in zip(rep.features(), first)},
        )
    else:
        rep = _rep(seed, 6, classes, OutcomePolicy.SIMPLEX_BELIEFS, states)
    src = gen_dataset(rep)
    return perturb(src, noise, seed=seed) if noise else src


class TestBayesPartsMatchPerSetLoop:
    @pytest.mark.parametrize("classes", [1, 2])
    @pytest.mark.parametrize("noise,gate", [(0.0, 1e-4), (3e-5, 1e-4), (1e-2, 5e-2)])
    @pytest.mark.parametrize("states", [2, 8, 16])
    def test_same_parts_bit_for_bit(self, monkeypatch, states, noise, gate, classes):
        src = _bayes_source(60 + states, states, classes, noise)
        tol = Tolerance(gate, gate)
        seen = []
        real = belief._signed_parts

        def recorded(gap):
            seen.append((gap, real(gap)))
            return seen[-1][1]

        monkeypatch.setattr(belief, "_signed_parts", recorded)
        check = check_bayesian(src, tol)
        want = reference_bayes_parts(src, tol)
        # No single-class joint: two rank classes, or two states where the
        # wide gate's slack leaves no weighted representation.
        if classes > 1 or (states == 2 and gate == 5e-2):
            assert want is None and seen == [] and not check.consistent
            return
        parts, worst = want
        (gap, got), = seen
        assert got.T.tolist() == parts
        assert _bits(check.max_residual) == _bits(worst)
        # On two states the noise that recovery accepts moves no event beyond the gate.
        assert check.consistent == (worst <= tol.gate(1.0)) == (noise == 0.0 or states == 2)
        if states == 16 and gate == 5e-2:
            # Rows of 8 or more positive gaps whose unrolled pairwise sum differs
            # from the sum in order, so a sum in order would miss their bits.
            many = [row[row > 0.0] for row in gap if np.count_nonzero(row > 0.0) >= 8]
            assert any(terms.sum() != np.add.accumulate(terms)[-1] for terms in many)

    @pytest.mark.parametrize("seed", range(5))
    def test_signed_parts_of_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        for states in (1, 7, 8, 9, 16, 17, 130, 300):
            gap = rng.normal(size=(40, states)) * rng.choice([1e-12, 1.0, 1e6], size=(40, 1))
            gap[rng.random(gap.shape) < rng.random((40, 1))] *= -1.0
            gap[rng.random(gap.shape) < 0.1] = 0.0
            want = [[float(row[row > 0.0].sum()), float(-row[row < 0.0].sum())] for row in gap]
            assert belief._signed_parts(gap).T.tolist() == want


# --------------------------------------------------------------------------
# conditional probability systems


def reference_verify_cps(cps, tol=DEFAULT_TOL):
    """Every pair of stored conditioning sets, cell by cell."""
    g = tol.gate(1.0)
    stored = sorted(cps.source.sets(), key=set_sort_key)
    joints = {fs: cps.conditional(fs) for fs in stored}
    for fs in stored:
        joint = joints[fs]
        if abs(joint.total() - 1.0) > g:
            raise ValueError(f"conditional on {sorted(fs)} is not normalized")
        off = joint.feature_marginal(cps.features) - joint.feature_marginal(fs)
        if abs(off) > g:
            raise ValueError(f"conditional on {sorted(fs)} has mass outside its set")
    violations = []
    worst = 0.0
    checked = 0
    for a, b in itertools.combinations(stored, 2):
        if a & b or (a | b) not in joints:
            continue
        checked += 1
        j_u, j_a, j_b = (joints[x] for x in (a | b, a, b))
        coef_a = j_u.feature_marginal(a)
        coef_b = j_u.feature_marginal(b)
        for col, f in enumerate(cps.features):
            for state in range(cps.num_states):
                lhs = float(j_u.table[state, col])
                rhs = coef_a * float(j_a.table[state, col]) + coef_b * float(
                    j_b.table[state, col]
                )
                worst = max(worst, abs(lhs - rhs))
                if abs(lhs - rhs) > g:
                    violations.append(
                        ChainViolation(
                            tuple(sorted(a)), tuple(sorted(b)), state, f, lhs, rhs
                        )
                    )
    return CpsReport(max_residual=worst, violations=tuple(violations), checked_pairs=checked)


def _cps(seed, features, classes, states=3):
    rep = _rep(
        seed, features, classes=classes, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=states
    )
    return build_cps(rep)


def _tables(cps):
    """The (states x features) table of every conditioning set, in canonical order."""
    return {fs: np.array(cps.conditional(fs).table) for fs in cps.source.sets()}


def _system(num_states, tables):
    """A conditional probability system from (states x features) tables."""
    width = num_states * len(frozenset().union(*tables))
    return ConditionalProbabilitySystem(
        num_states, DatasetSource(width, {fs: np.ravel(t) for fs, t in tables.items()})
    )


def _tilted(cps, seed, share=0.3):
    """Mix a seeded share of conditionals with a member's own conditional.

    The mixture keeps normalization and support, so only the chain rule
    can fail.
    """
    rng = np.random.default_rng(seed)
    tables = _tables(cps)
    for fs in sorted(tables, key=set_sort_key):
        if len(fs) > 1 and rng.random() < share:
            tables[fs] = 0.7 * tables[fs] + 0.3 * tables[frozenset([min(fs)])]
    return _system(cps.num_states, tables)


def _sparse(cps, seed, keep=0.5):
    """Keep the singletons and a seeded share of the larger conditioning sets."""
    rng = np.random.default_rng(seed)
    tables = {
        fs: table
        for fs, table in sorted(_tables(cps).items(), key=lambda kv: set_sort_key(kv[0]))
        if len(fs) == 1 or rng.random() < keep
    }
    return _system(cps.num_states, tables)


CPS_CASES = {
    "flat": lambda: _cps(40, 5, 1),
    "two-tier": lambda: _cps(41, 6, 2),
    "three-tier-4-states": lambda: _cps(42, 6, 3, states=4),
    "tilted": lambda: _tilted(_cps(43, 6, 2), seed=43),
    "sparse": lambda: _sparse(_cps(44, 7, 2), seed=44),
    "sparse-tilted": lambda: _tilted(_sparse(_cps(45, 7, 3), seed=45), seed=46),
}


class TestCpsMatchesReference:
    @pytest.mark.parametrize("name", sorted(CPS_CASES))
    def test_same_pairs_and_violations_in_order(self, name):
        cps = CPS_CASES[name]()
        got = verify_cps(cps)
        want = reference_verify_cps(cps)
        assert got.checked_pairs == want.checked_pairs
        key = lambda v: (v.part_a, v.part_b, v.state, v.feature)
        assert [key(v) for v in got.violations] == [key(v) for v in want.violations]
        for ours, theirs in zip(got.violations, want.violations):
            assert ours.lhs == theirs.lhs
            assert ours.rhs == pytest.approx(theirs.rhs, rel=0.0, abs=1e-12)
        assert got.max_residual == pytest.approx(want.max_residual, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(CPS_CASES))
    def test_chain_rule_walks_the_axiom_splits(self, name):
        # The chain rule is the averaging axiom with lambda = P(A | A+B):
        # one split walk serves both checks.
        cps = CPS_CASES[name]()
        assert verify_cps(cps).checked_pairs == check_axiom(cps.source).check_count

    def test_references_find_violations(self):
        assert verify_cps(CPS_CASES["tilted"]()).violations
        assert verify_cps(CPS_CASES["sparse-tilted"]()).violations
        assert verify_cps(CPS_CASES["two-tier"]()).satisfied

    @pytest.mark.parametrize("defect", ["unnormalized", "mass-outside"])
    def test_same_rejection_of_malformed_conditionals(self, defect):
        cps = _cps(47, 4, 2)
        tables = _tables(cps)
        fs = frozenset(["x00", "x01"])
        if defect == "unnormalized":
            tables[fs] = 2.0 * tables[fs]
        else:
            tables[fs] = 0.5 * tables[fs] + 0.5 * tables[frozenset(["x02"])]
        broken = _system(cps.num_states, tables)
        with pytest.raises(ValueError) as ours:
            verify_cps(broken)
        with pytest.raises(ValueError) as theirs:
            reference_verify_cps(broken)
        assert str(ours.value) == str(theirs.value)

    def test_negative_cell_is_refused(self):
        cps = _cps(47, 4, 2)
        tables = _tables(cps)
        tables[frozenset(["x00", "x01"])][0, 0] = -1e-3
        with pytest.raises(ValueError, match="joint probabilities must be non-negative"):
            _system(cps.num_states, tables)

    def test_missing_singleton_is_refused(self):
        cps = _cps(47, 4, 2)
        tables = _tables(cps)
        del tables[frozenset(["x02"])]
        with pytest.raises(MissingSingleton):
            _system(cps.num_states, tables)


# --------------------------------------------------------------------------
# Rule (3): the scalar loops every forward evaluation used to run


def reference_evaluate(rep, members):
    """Top members in sorted order: add weights, add weight x outcome, divide."""
    top = sorted(top_set(rep, members))
    total = sum(rep.weights[f] for f in top)
    acc = np.zeros(rep.dimension)
    for f in top:
        acc += rep.weights[f] * rep.outcomes[f]
    return acc / total


@dataclasses.dataclass(frozen=True)
class VerificationRow:
    members: tuple
    observed: tuple
    predicted: tuple
    residual: float
    passed: bool


def reference_verification(src, rep, tol=DEFAULT_TOL):
    """One validating evaluation and three norms per known set."""
    rows = []
    for s in src.sets():
        observed = src.outcome(s)
        predicted = reference_evaluate(rep, s)
        residual = float(np.linalg.norm(observed - predicted))
        gate = tol.gate(float(np.linalg.norm(observed)), float(np.linalg.norm(predicted)), 1.0)
        rows.append(
            VerificationRow(
                members=tuple(sorted(s)),
                observed=tuple(float(v) for v in observed),
                predicted=tuple(float(v) for v in predicted),
                residual=residual,
                passed=residual <= gate,
            )
        )
    return tuple(rows)


def reference_build_joint(rep, tol=DEFAULT_TOL):
    features = rep.features()
    beliefs = {f: as_belief(rep.outcomes[f], tol) for f in features}
    total_w = sum(rep.weights[f] for f in features)
    table = np.column_stack([rep.weights[f] * beliefs[f] / total_w for f in features])
    return features, table


def reference_build_cps(rep, tol=DEFAULT_TOL):
    """Conditional tables per subset, top weights added in sorted order."""
    features = rep.features()
    beliefs = {f: as_belief(rep.outcomes[f], tol) for f in features}
    n = next(iter(beliefs.values())).size
    tables = {}
    for size in range(1, len(features) + 1):
        for combo in itertools.combinations(features, size):
            top = sorted(top_set(rep, combo))
            total_w = sum(rep.weights[f] for f in top)
            cols = [
                rep.weights[f] * beliefs[f] / total_w if f in top else np.zeros(n)
                for f in features
            ]
            tables[frozenset(combo)] = np.column_stack(cols)
    return tables


def reference_choice_probabilities(weights, ranks, members):
    fs = sorted(members)
    best = max(ranks[f] for f in fs)
    top = [f for f in fs if ranks[f] == best]
    total = sum(float(weights[f]) for f in top)
    return {f: (float(weights[f]) / total if f in top else 0.0) for f in fs}


def reference_aggregate_coalition(weights, utilities, coalition):
    num = None
    den = 0.0
    for m in sorted(coalition):
        w = float(weights[m])
        u = np.asarray(utilities[m], dtype=float)
        num = w * u if num is None else num + w * u
        den += w
    return num / den


def reference_evaluate_discounted(q, weights, beliefs, query):
    num = None
    den = 0.0
    for f in sorted(query.members):
        coef = (q ** query.times[f]) * float(weights[f])
        vec = np.asarray(beliefs[f], dtype=float)
        num = coef * vec if num is None else num + coef * vec
        den += coef
    return num / den


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _row_bits(rows):
    """Members, verdicts and the bytes of every float of verification rows."""
    floats = _bits(*([getattr(r, f) for r in rows] for f in ("observed", "predicted", "residual")))
    return [r.members for r in rows], [r.passed for r in rows], floats


def _column_bits(checked):
    """``_row_bits`` of a ``Verification``, read off its columns."""
    floats = _bits(checked.observed, checked.predicted, checked.residual)
    return list(checked.members), checked.passed.tolist(), floats


def _equal_weights(rep):
    return Representation(
        weights={f: 1.0 for f in rep.features()}, ranks=rep.ranks, outcomes=rep.outcomes
    )


def _some_sets(rep, count, seed):
    """Singletons, every pair, and ``count`` seeded sets of any size."""
    names = rep.features()
    rng = np.random.default_rng(seed)
    sets = [(f,) for f in names] + list(itertools.combinations(names, 2))
    for _ in range(count):
        size = int(rng.integers(3, len(names) + 1))
        sets.append(tuple(sorted(rng.choice(names, size, replace=False))))
    return sets


def _perturb_triples(src, magnitude, seed):
    """Noise on the sets of three or more: order and weights still come
    out of the pairs, and verification fails on the noisy sets."""
    rng = np.random.default_rng(seed)
    table = {}
    for s in src.sets():
        noise = rng.uniform(-magnitude, magnitude, src.dimension) if len(s) > 2 else 0.0
        table[s] = src.outcome(s) + noise
    return DatasetSource(src.dimension, table)


KERNEL_REPS = {
    "one-tier": lambda: _rep(51, 7),
    "two-tiers": lambda: _rep(52, 8, classes=2),
    "three-tiers": lambda: _rep(53, 9, classes=3),
    "four-tiers": lambda: _rep(54, 12, classes=4, dimension=3),
    "equal-weights": lambda: _equal_weights(_rep(55, 8, classes=2)),
    "beliefs": lambda: _rep(56, 7, classes=2, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=4),
    "menus": lambda: _rep(57, 6),
    "70-features": lambda: _rep(58, 70, classes=3, dimension=3),
}


def _kernel_sets(rep):
    if len(rep.features()) > 12:
        return _some_sets(rep, 200, seed=len(rep.features()))
    names = rep.features()
    return [c for size in range(1, len(names) + 1) for c in itertools.combinations(names, size)]


@pytest.fixture(scope="module", params=sorted(KERNEL_REPS))
def kernel_rep(request):
    return KERNEL_REPS[request.param]()


class TestForwardEvaluationMatchesReference:
    def test_evaluate(self, kernel_rep):
        for s in _kernel_sets(kernel_rep):
            assert _bits(evaluate(kernel_rep, s)) == _bits(reference_evaluate(kernel_rep, s))

    def test_induced_source(self, kernel_rep):
        src = induced_source(kernel_rep, _kernel_sets(kernel_rep))
        want = np.vstack([reference_evaluate(kernel_rep, s) for s in src.sets()])
        assert _bits(src._points) == _bits(want)

    @pytest.mark.parametrize("noise", [0.0, 1e-3], ids=["exact", "perturbed"])
    def test_recover_verification_rows(self, kernel_rep, noise):
        src = induced_source(kernel_rep, _kernel_sets(kernel_rep))
        if noise:
            src = _perturb_triples(src, noise, seed=len(src))
        ranks = recover_order(src)
        weights, _ = recover_weights(src, ranks)
        rep = Representation(weights, ranks, {f: src.outcome([f]) for f in ranks})
        want = reference_verification(src, rep)
        got = recovery._verification(src, rep, DEFAULT_TOL)
        assert _column_bits(got) == _row_bits(want)
        outcome = recover(src)
        if noise:
            assert isinstance(outcome, NonRepresentable)
            assert outcome.failing_sets == tuple(r.members for r in want if not r.passed)
            assert _bits(outcome.max_residual) == _bits(max(r.residual for r in want))
            # The pairs agree, so the witness comes from the worst failing set.
            worst = max((r for r in want if not r.passed), key=lambda r: r.residual)
            assert outcome.witness.first.via == (worst.members,)
        else:
            assert isinstance(outcome, Recovered)
            assert _column_bits(outcome.verification) == _column_bits(got)

    def test_recover_verification_on_an_oracle(self):
        # A discount oracle's recovery is verified on its whole equal-time
        # table: every singleton and every pair, whether recovery read it or not.
        rep = KERNEL_REPS["one-tier"]()
        rec = recover_discounted(_discount_oracle(0.5, rep), rep.features(), rep.dimension)
        want = reference_verification(_equal_time_table(0.5, rep), rec.recovery.representation)
        assert [r.members for r in want] == _equal_time_sets(rep)
        assert _column_bits(rec.recovery.verification) == _row_bits(want)

    def test_choice_probabilities(self, kernel_rep):
        for s in _kernel_sets(kernel_rep)[:300]:
            got = choice_probabilities(kernel_rep.weights, kernel_rep.ranks, s)
            want = reference_choice_probabilities(kernel_rep.weights, kernel_rep.ranks, s)
            assert list(got) == list(want)
            assert _bits(list(got.values())) == _bits(list(want.values()))

    def test_aggregate_coalition(self, kernel_rep):
        for s in _kernel_sets(kernel_rep)[:300]:
            got = aggregate_coalition(kernel_rep.weights, kernel_rep.outcomes, s)
            want = reference_aggregate_coalition(kernel_rep.weights, kernel_rep.outcomes, s)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("q", [0.37, 1.0, 2.5])
    def test_evaluate_discounted(self, kernel_rep, q):
        rng = np.random.default_rng(int(q * 100))
        for s in _kernel_sets(kernel_rep)[:300]:
            query = TimedQuery(s, {f: int(rng.integers(1, 6)) for f in s})
            got = evaluate_discounted(q, kernel_rep.weights, kernel_rep.outcomes, query)
            want = reference_evaluate_discounted(q, kernel_rep.weights, kernel_rep.outcomes, query)
            assert _bits(got) == _bits(want)


def _discount_oracle(q, rep):
    """A timed-query oracle on ``rep``'s weights and outcomes, in scalar steps."""
    return lambda query: reference_evaluate_discounted(q, rep.weights, rep.outcomes, query)


def _equal_time_sets(rep):
    names = rep.features()
    return [(f,) for f in names] + list(itertools.combinations(names, 2))


def _equal_time_table(q, rep):
    """Every singleton and every pair at time 1, one oracle query each."""
    oracle = _discount_oracle(q, rep)
    return DatasetSource(
        rep.dimension, {s: oracle(TimedQuery(s, dict.fromkeys(s, 1))) for s in _equal_time_sets(rep)}
    )


BELIEF_REPS = {
    "one-tier": lambda: _rep(61, 6, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=3),
    "two-tiers": lambda: _rep(62, 7, classes=2, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=4),
    "four-tiers": lambda: _rep(63, 8, classes=4, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=3),
    "equal-weights": lambda: _equal_weights(
        _rep(64, 6, classes=2, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=5)
    ),
}


class TestBeliefTablesMatchReference:
    @pytest.mark.parametrize("name", sorted(BELIEF_REPS))
    def test_build_cps(self, name):
        rep = BELIEF_REPS[name]()
        cps = build_cps(rep)
        want = reference_build_cps(rep)
        assert list(cps.source.sets()) == list(want)
        for fs, table in want.items():
            assert _bits(cps.conditional(fs).table) == _bits(table)

    @pytest.mark.parametrize("seed,states", [(65, 3), (66, 4), (67, 6)])
    def test_build_joint(self, seed, states):
        rep = _rep(seed, 7, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=states)
        joint = build_joint(rep)
        features, table = reference_build_joint(rep)
        assert joint.features == features
        assert _bits(joint.table) == _bits(table)


# --------------------------------------------------------------------------
# Rule (3) over code blocks against the dense (sets x features) kernel


def reference_membership(column, sets):
    """Boolean (sets x features) matrix of ``sets``; ``column`` numbers the features."""
    width = len(column)
    members = np.zeros((len(sets), width), dtype=bool)
    members.reshape(-1)[[row * width + column[f] for row, s in enumerate(sets) for f in s]] = True
    return members


def reference_top_mean(weights, points, members=None, ranks=None):
    """Rule (3) for each row of the boolean (sets x features) ``members``, by
    default one row of every feature: weights and weight x point of each
    row's top members are added one column at a time, in sorted order."""
    points = np.asarray(points, dtype=float)
    if members is None:
        members = np.ones((1, len(points)), dtype=bool)
    ranks = np.zeros(len(points)) if ranks is None else np.asarray(ranks)
    columns = np.asfortranarray(members).T
    used = np.flatnonzero(columns.any(axis=1))
    best = np.full(len(members), -np.inf)
    for j in used:
        np.maximum(best, ranks[j], out=best, where=columns[j])
    total = np.zeros(len(members))
    acc = np.zeros((len(members), points.shape[1]))
    for j in used:
        top = columns[j] & (best == ranks[j])
        np.add(total, weights[j], out=total, where=top)
        np.add(acc, weights[j] * points[j], out=acc, where=top[:, None])
    return acc / total[:, None]


def _code_blocks(sets):
    """``sets`` (sorted code tuples) as ``DatasetSource._blocks`` holds them,
    and the sets in the blocks' row order."""
    rows = sorted(set(sets), key=lambda s: (len(s), s))
    blocks = {}
    for size in sorted({len(s) for s in rows}):
        block = np.array([s for s in rows if len(s) == size], dtype=np.intp)
        blocks[size] = (rows.index(tuple(block[0])), block)
    return blocks, rows


# Coordinates from subnormal to near the square-safe bound, both zeros included.
_KERNEL_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e150, -1e150, 9.999999999999999e149]),
    st.builds(lambda s, x: s * x, st.sampled_from([1e-300, 1.0, 1e10, 1e150]), st.floats(-1.5, 1.5)),
)


@st.composite
def kernel_cases(draw):
    """Weights, ranks with ties, points and sets of every size from 1 to n."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    weight = st.sampled_from([1e-3, 0.5, 1.0, 3.0, 7e2]) | st.floats(1e-3, 1e3)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    ranks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    points = draw(st.lists(st.lists(_KERNEL_CELLS, min_size=d, max_size=d), min_size=n, max_size=n))
    subsets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(lambda s: tuple(sorted(s)))
    sets = draw(st.lists(subsets, min_size=1, max_size=12))
    return np.array(weights), np.array(ranks), np.array(points, dtype=float), sets


class TestBlockKernelMatchesDenseKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_same_bits(self, case):
        weights, ranks, points, sets = case
        blocks, rows = _code_blocks(sets)
        codes = {j: j for j in range(len(points))}
        want = reference_top_mean(weights, points, reference_membership(codes, rows), ranks)
        got = model._top_means(weights, points, blocks, ranks)
        assert np.array_equal(got, want) and _bits(got) == _bits(want)
        # One set of every feature, the default of both.
        assert _bits(model._top_means(weights, points, ranks=ranks)) == _bits(reference_top_mean(weights, points, ranks=ranks))

    def test_named_sets_in_any_order(self, kernel_rep):
        # induced_source indexes the named sets in canonical order and
        # evaluates the index's blocks: each row is its set's dense row.
        src = induced_source(kernel_rep, _kernel_sets(kernel_rep)[::-1])
        members = reference_membership(kernel_rep._column, src._members)
        want = reference_top_mean(kernel_rep._weight_array, kernel_rep._outcome_array, members, kernel_rep._rank_array)
        assert _bits(src._points) == _bits(want)


def _dense_cps(rep):
    """``build_cps`` as it was built: every subset named, its tables from the
    dense kernel, and the source made by the validating constructor."""
    features = rep.features()
    beliefs = [as_belief(rep.outcomes[f]) for f in features]
    sets = [c for k in range(1, len(features) + 1) for c in itertools.combinations(features, k)]
    members = reference_membership(rep._column, sets)
    tables = reference_top_mean(rep._weight_array, belief._cells(beliefs), members, rep._rank_array)
    return ConditionalProbabilitySystem(beliefs[0].size, DatasetSource(tables.shape[1], dict(zip(sets, tables))))


def dense_verify_cps(cps, tol=DEFAULT_TOL):
    """``verify_cps`` over a dense member mask, its pairs ordered by one
    three-row ``lexsort``, in blocks of 4096 cells."""
    g = tol.gate(1.0)
    src = cps.source
    features, keys = src.features(), src._members
    tables = src._points.reshape(len(src), cps.num_states, len(features))
    member = reference_membership({f: j for j, f in enumerate(features)}, keys)
    masses = tables.sum(axis=1)
    union, *parts = model._split_rows(src)
    pairs = np.vstack([np.sort(parts, axis=0), union])
    pairs = pairs[:, np.lexsort(pairs[::-1])]
    violations, worst = [], 0.0
    block = max(1, 4096 // src.dimension)
    for start in range(0, pairs.shape[1], block):
        a, b, u = pairs[:, start : start + block]
        coef_a = (masses[u] * member[a]).sum(axis=1)[:, None, None]
        coef_b = (masses[u] * member[b]).sum(axis=1)[:, None, None]
        lhs = tables[u]
        rhs = coef_a * tables[a] + coef_b * tables[b]
        gaps = np.abs(lhs - rhs)
        worst = max(worst, float(gaps.max()))
        violations += [
            ChainViolation(keys[a[k]], keys[b[k]], int(state), features[c],
                           float(lhs[k, state, c]), float(rhs[k, state, c]))
            for k, c, state in np.argwhere(gaps.transpose(0, 2, 1) > g)
        ]
    return CpsReport(max_residual=worst, violations=tuple(violations), checked_pairs=pairs.shape[1])


class TestCpsMatchesDenseBuild:
    @pytest.mark.parametrize("name", sorted(BELIEF_REPS))
    def test_same_source_and_report(self, name):
        rep = BELIEF_REPS[name]()
        cps, dense = build_cps(rep), _dense_cps(rep)
        assert cps.source._members == dense.source._members
        assert _bits(cps.source._points) == _bits(dense.source._points)
        assert {k: (first, block.tolist()) for k, (first, block) in cps.source._blocks.items()} == {
            k: (first, block.tolist()) for k, (first, block) in dense.source._blocks.items()}
        got, want = verify_cps(cps), dense_verify_cps(dense)
        assert got == want and _bits(got.max_residual) == _bits(want.max_residual)

    @pytest.mark.parametrize("name", sorted(CPS_CASES))
    def test_same_violations_in_order(self, name):
        cps = CPS_CASES[name]()
        got, want = verify_cps(cps), dense_verify_cps(cps)
        assert got == want and _bits(got.max_residual) == _bits(want.max_residual)

    def test_perturbed_system_pins_the_violations(self):
        cps = _tilted(build_cps(BELIEF_REPS["four-tiers"]()), seed=47)
        got, want = verify_cps(cps), dense_verify_cps(cps)
        assert len(got.violations) > 100 and got.max_residual > 1e-3
        assert got == want and _bits(got.max_residual) == _bits(want.max_residual)

    def test_a_non_finite_table_is_refused_as_the_constructor_refuses_it(self):
        features = ("a", "b", "c", "d")
        blocks = model._every_subset(len(features))
        sets = [tuple(features[c] for c in codes) for _, block in blocks.values() for codes in block.tolist()]
        points = np.ones((len(sets), 2))
        points[[5, 9], 1] = np.inf
        with pytest.raises(ValueError) as ours:
            model._block_source(features, blocks, points)
        with pytest.raises(ValueError) as theirs:  # the entries in canonical order
            DatasetSource(2, dict(zip(sets, points)))
        assert str(ours.value) == str(theirs.value)


def reference_weight_table(src, weights, v, tol=DEFAULT_TOL):
    """``verify_weight_table`` over the dense membership of its coalitions."""
    norm_src = social._normalized_source(src, v, tol)
    first = len(norm_src.features())
    coalitions = norm_src._members[first:]
    people = sorted({m for members in coalitions for m in members})
    single = dict(zip(norm_src.features(), range(first)))
    predicted = reference_top_mean(
        [float(weights[m]) for m in people],
        norm_src._points[[single[m] for m in people]],
        reference_membership({m: j for j, m in enumerate(people)}, coalitions),
    )
    residuals = geometry._row_norms(norm_src._points[first:] - predicted).tolist()
    return tuple((c, r, r <= tol.gate(1.0)) for c, r in zip(coalitions, residuals))


class TestWeightTableMatchesDenseKernel:
    def test_committee(self, fixtures_dir):
        with open(fixtures_dir / "profile_committee.json", encoding="utf-8") as fh:
            doc = fileio.load_dataset(fh)
        got = social.verify_weight_table(doc.source, doc.weight_table, doc.direction)
        assert got == reference_weight_table(doc.source, doc.weight_table, doc.direction)

    def test_individuals_outside_every_coalition(self):
        # Coalitions of the first five of seven individuals: the other two
        # carry no weight, and noise makes some rows fail.
        rng = np.random.default_rng(48)
        names = [f"i{k}" for k in range(7)]
        v = np.array([1.0, 2.0, 0.5])
        table = {(f,): rng.uniform(0.1, 1.0, 3) for f in names}
        for size in (2, 3, 5):
            for combo in itertools.combinations(names[:5], size):
                table[combo] = rng.uniform(0.1, 1.0, 3)
        src = DatasetSource(3, table)
        weights = {f: float(w) for f, w in zip(names[:5], rng.uniform(0.5, 2.0, 5))}
        got = social.verify_weight_table(src, weights, v)
        assert got == reference_weight_table(src, weights, v)
        assert len(got) == 10 + 10 + 1 and not all(passed for *_, passed in got)


class TestVerificationStaysPerSet:
    def test_no_sets_by_features_array(self):
        # 300 features and every pair: a (sets x features) boolean mask alone
        # is 45,150 x 300 bytes, more than recovery allocates at its peak.
        rep = _rep(49, 300, classes=3, dimension=3)
        names = rep.features()
        src = induced_source(rep, list(itertools.combinations(names, 2)))
        tracemalloc.start()
        try:
            outcome = recover(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, Recovered) and len(outcome.verification) == 45_150
        assert peak < len(src) * len(names)


# --------------------------------------------------------------------------
# order and weight recovery against the per-pair loops


def reference_recover_order(src, tol=DEFAULT_TOL):
    """Every pairwise comparison on its own, then every triple in turn."""
    features = sorted(src.features())
    singles = {f: src.outcome([f]) for f in features}

    def find_witness(x, exclude):
        for z in features:
            if z == x or z == exclude:
                continue
            if tol.close(singles[z], singles[x]):
                continue
            agg = src._lookup((x, z))
            if agg is None:
                continue
            if not tol.close(agg, singles[x]) and not tol.close(agg, singles[z]):
                return z
        return None

    geq = {}
    missing = set()
    for x, y in itertools.combinations(features, 2):
        fx, fy = singles[x], singles[y]
        if not tol.close(fx, fy):
            agg = src._lookup((x, y))
            if agg is None:
                missing.add(tuple(sorted((x, y))))
                continue
            geq[(x, y)] = not tol.close(agg, fy)
            geq[(y, x)] = not tol.close(agg, fx)
        else:
            z = find_witness(x, exclude=y)
            if z is None:
                z = find_witness(y, exclude=x)
                if z is not None:
                    x, y = y, x
            if z is None:
                geq[(x, y)] = True
                geq[(y, x)] = True
                continue
            agg = src._lookup((z, y))
            if agg is None:
                missing.add(tuple(sorted((z, y))))
                continue
            geq[(x, y)] = not tol.close(agg, singles[y])
            geq[(y, x)] = not tol.close(agg, singles[z])
    if missing:
        raise MissingDataError(sorted(missing))
    for x, y, z in itertools.permutations(features, 3):
        if geq[(x, y)] and geq[(y, z)] and not geq[(x, z)]:
            raise IntransitivityDetected((x, y, z))
    better_than = {f: set() for f in features}
    for x, y in itertools.permutations(features, 2):
        if geq[(x, y)] and not geq[(y, x)]:
            better_than[x].add(y)
    levels = sorted({len(better_than[f]) for f in features})
    return {f: levels.index(len(better_than[f])) for f in features}


def _reference_pair_lambda(agg, fa, fb, pair, tol):
    pos = segment_coefficient(agg, fa, fb, tol)
    lam = interior_lambda(pos, tol)
    if lam is None:
        raise DegenerateLambda(pair, pos.lam, recovery._NOT_INTERIOR[pos.kind])
    return lam


def reference_recover_weights(src, ranks, tol=DEFAULT_TOL):
    """Anchor, classmates and bridges, one ``segment_coefficient`` call each."""
    features = sorted(ranks)
    singles = {f: src.outcome([f]) for f in features}
    weights = {}
    indeterminate = []
    missing = set()
    for level in sorted(set(ranks.values())):
        members = sorted(f for f in features if ranks[f] == level)
        if len(members) == 1:
            weights[members[0]] = 1.0
            continue
        anchor = next(
            (
                m
                for m in members
                if any(not tol.close(singles[m], singles[o]) for o in members if o != m)
            ),
            None,
        )
        if anchor is None:
            for m in members:
                weights[m] = 1.0
            indeterminate.append(tuple(members))
            continue
        weights[anchor] = 1.0
        deferred = []
        for m in members:
            if m == anchor:
                continue
            if tol.close(singles[m], singles[anchor]):
                deferred.append(m)
                continue
            agg = src._lookup((anchor, m))
            if agg is None:
                missing.add(tuple(sorted((anchor, m))))
                continue
            lam = _reference_pair_lambda(agg, singles[anchor], singles[m], (anchor, m), tol)
            weights[m] = (1.0 - lam) / lam
        for m in deferred:
            bridge = next(
                (o for o in members if o != m and o in weights and not tol.close(singles[o], singles[m])),
                None,
            )
            if bridge is None:
                weights[m] = weights[anchor]
                continue
            agg = src._lookup((bridge, m))
            if agg is None:
                missing.add(tuple(sorted((bridge, m))))
                continue
            lam = _reference_pair_lambda(agg, singles[bridge], singles[m], (bridge, m), tol)
            weights[m] = weights[bridge] * (1.0 - lam) / lam
    if missing:
        raise MissingDataError(sorted(missing))
    return weights, tuple(indeterminate)


def reference_direct_ratios(src, ranks, tol=DEFAULT_TOL):
    singles = {f: src.outcome([f]) for f in ranks}
    out = {}
    for a, b in itertools.combinations(sorted(ranks), 2):
        if ranks[a] != ranks[b]:
            continue
        fa, fb = singles[a], singles[b]
        if tol.close(fa, fb):
            continue
        agg = src._lookup((a, b))
        if agg is None:
            continue
        lam = interior_lambda(segment_coefficient(agg, fa, fb, tol), tol)
        if lam is None:
            continue
        out[(a, b)] = lam / (1.0 - lam)
        out[(b, a)] = (1.0 - lam) / lam
    return out


def reference_ratio_conflict_witness(src, ranks, tol=DEFAULT_TOL):
    """The two-pass triangle search over ``reference_direct_ratios``."""
    direct = reference_direct_ratios(src, ranks, tol)
    ordered = sorted((a, b) for (a, b) in direct if a < b)
    for between_only in (True, False):
        for a, b in ordered:
            r_ab = direct[(a, b)]
            for c in sorted(ranks):
                if c in (a, b) or (between_only and not (a < c < b)):
                    continue
                if (a, c) not in direct or (c, b) not in direct:
                    continue
                chained = direct[(a, c)] * direct[(c, b)]
                if abs(chained - r_ab) > tol.gate(abs(chained), abs(r_ab)) * 10.0:
                    return ContradictionWitness(
                        pair=(a, b),
                        first=RatioDerivation(
                            pair=(a, b),
                            ratio=r_ab,
                            via=(tuple(sorted((a, b))),),
                            note="mixing coefficient of the pair aggregate",
                        ),
                        second=RatioDerivation(
                            pair=(a, b),
                            ratio=chained,
                            via=(tuple(sorted((a, c))), tuple(sorted((c, b)))),
                            note=f"chained through {c}",
                        ),
                    )
    return None


def _outcome_of(fn, *args):
    """``fn(*args)``, or what its error carries: the required sets, the
    triple, or the pair, coefficient bits and message."""
    try:
        return fn(*args)
    except MissingDataError as err:
        return ("missing", err.required)
    except IntransitivityDetected as err:
        return ("intransitive", err.triple)
    except DegenerateLambda as err:
        return ("degenerate", err.pair, _bits(np.nan if err.lam is None else err.lam), str(err))


def _with_shared_outcomes(rep, seed, collapse=False):
    """``rep`` with a seeded third of its features moved onto the outcome
    of another feature, of the same rank or not; with ``collapse``, every
    member of the lowest rank class then shares one outcome."""
    rng = np.random.default_rng(seed)
    names = rep.features()
    outcomes = dict(rep.outcomes)
    for f in names:
        if rng.random() < 0.35:
            outcomes[f] = outcomes[names[int(rng.integers(len(names)))]]
    if collapse:
        lowest = sorted(f for f in names if rep.ranks[f] == min(rep.ranks.values()))
        outcomes.update(dict.fromkeys(lowest, outcomes[lowest[0]]))
    return Representation(weights=rep.weights, ranks=rep.ranks, outcomes=outcomes)


def _cyclic(seed, features=6, dimension=2):
    """Singletons on nine lattice points, so some coincide, whose pair
    aggregates sit at a seeded endpoint or at the midpoint: pairwise
    winners that often form cycles, and equal-outcome pairs whose
    witnesses disagree."""
    rng = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(features)]
    table = {frozenset([f]): rng.integers(-1, 2, size=dimension).astype(float) for f in names}
    for a, b in itertools.combinations(names, 2):
        fa, fb = table[frozenset([a])], table[frozenset([b])]
        table[frozenset([a, b])] = (fa, fb, 0.5 * (fa + fb))[int(rng.integers(3))]
    return DatasetSource(dimension, table)


def _pairs_only(rep):
    return gen_dataset(rep, [(f,) for f in rep.features()] + list(itertools.combinations(rep.features(), 2)))


def _recovery_case(seed):
    """One seeded source of the recovery corpus, and the ranks its
    weights are read with when the order cannot be recovered."""
    kind = seed % 8
    classes = 2 + seed % 3
    rep = _rep(100 + seed, 3 * classes + seed % 4, classes=classes)
    if kind == 0:
        src = gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)
    elif kind == 1:
        rep = _with_shared_outcomes(rep, seed, collapse=seed % 16 == 1)
        src = _pairs_only(rep)
    elif kind == 2:
        src = _thinned(gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES), seed, keep=0.9)
    elif kind == 3:
        # Noise along the line moves interior coefficients: ratio conflicts.
        rep = _rep(100 + seed, 3 * classes, classes=classes, policy=OutcomePolicy.COLLINEAR, dimension=1)
        src = perturb(_pairs_only(rep), 1e-3, seed=seed)
    elif kind == 4:
        src = perturb(_pairs_only(rep), 0.3, seed=seed)
    elif kind == 5:
        return _cyclic(seed, features=4 + seed % 5), None
    elif kind == 6:
        return _coincident_singletons(seed=seed, features=5 + seed % 4), None
    else:
        rep = _with_shared_outcomes(rep, seed)
        src = _thinned(_pairs_only(rep), seed, keep=0.95)
    return src, dict(rep.ranks)


RECOVERY_SEEDS = range(48)


def _label(outcome):
    """Which way an order or weight recovery (or its reference) came out."""
    if isinstance(outcome, dict):
        return "ranks"
    if isinstance(outcome[0], str):
        return outcome[0]
    return "indeterminate" if outcome[1] else "weights"


def _ranks_for_weights(src, truth):
    """The recovered ranks, else the generator's, else one class."""
    try:
        return reference_recover_order(src)
    except (MissingDataError, IntransitivityDetected):
        return truth or {f: 0 for f in src.features()}


class TestRecoveryMatchesPerPairLoops:
    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_same_ranks_or_same_error(self, seed):
        src, _ = _recovery_case(seed)
        assert _outcome_of(recover_order, src) == _outcome_of(reference_recover_order, src)

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_same_weight_bits_or_same_error(self, seed):
        src, truth = _recovery_case(seed)
        ranks = _ranks_for_weights(src, truth)
        got = _outcome_of(recover_weights, src, ranks)
        want = _outcome_of(reference_recover_weights, src, ranks)
        if isinstance(want, tuple) and isinstance(want[0], dict):
            assert list(got[0]) == list(want[0])
            assert _bits(list(got[0].values())) == _bits(list(want[0].values()))
            assert got[1] == want[1]
        else:
            assert got == want

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_same_direct_ratios_and_conflict(self, seed):
        src, truth = _recovery_case(seed)
        ranks = _ranks_for_weights(src, truth)
        features, _, kind, lam = recovery._same_rank_table(src, ranks, DEFAULT_TOL)
        ratio = recovery._ratio_matrix(kind, lam, DEFAULT_TOL)
        want = reference_direct_ratios(src, ranks)
        index = {f: k for k, f in enumerate(features)}
        held = {(features[a], features[b]) for a, b in zip(*np.nonzero(~np.isnan(ratio)))}
        assert held == set(want)  # every pair in both orientations, and nothing else
        assert _bits([ratio[index[a], index[b]] for a, b in want]) == _bits(list(want.values()))
        assert recovery._ratio_conflict_witness(
            src, ranks, DEFAULT_TOL
        ) == reference_ratio_conflict_witness(src, ranks)

    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_discount_table_recovers_the_reference_weights(self, seed):
        # Shared outcomes give equal-outcome pairs, which recovery bridges
        # around; the weights match the per-pair loops on the same table.
        rep = _with_shared_outcomes(_rep(200 + seed, 9), seed)
        rec = recover_discounted(_discount_oracle(0.5, rep), rep.features(), rep.dimension)
        table = _equal_time_table(0.5, rep)
        ranks = reference_recover_order(table)
        weights, indeterminate = reference_recover_weights(table, ranks)
        assert not indeterminate
        assert rec.recovery.representation.ranks == ranks
        assert sorted(rec.weights) == sorted(weights)
        assert _bits([rec.weights[f] for f in sorted(weights)]) == _bits([weights[f] for f in sorted(weights)])
        assert rec.q == pytest.approx(0.5, rel=1e-9)

    def test_corpus_reaches_every_outcome(self):
        orders, weights, conflicts = set(), set(), 0
        for seed in RECOVERY_SEEDS:
            src, truth = _recovery_case(seed)
            orders.add(_label(_outcome_of(reference_recover_order, src)))
            ranks = _ranks_for_weights(src, truth)
            weights.add(_label(_outcome_of(reference_recover_weights, src, ranks)))
            conflicts += reference_ratio_conflict_witness(src, ranks) is not None
        assert orders == {"ranks", "missing", "intransitive"}
        assert weights == {"weights", "indeterminate", "missing", "degenerate"}
        assert conflicts


@st.composite
def near_gate_classes(draw):
    """One collinear rank class of 3-9 features, a drawn subset of its pairs
    stored, whose drawn pairs miss the chained ratio by 10 gates times
    1 +- (1e-4 to 1e-3): just past or just short of the search's gate."""
    k = draw(st.integers(3, 9))
    names = [f"x{i}" for i in range(k)]
    spots = draw(st.permutations(range(k)))
    gaps = draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k))
    along = np.cumsum(gaps)[list(spots)]
    weights = draw(st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k))
    pairs = list(itertools.combinations(range(k), 2))
    off = set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True)))
    dropped = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs) // 2, unique=True))) - off

    def point(t):
        return np.array([0.3, -0.2]) + t * np.array([1.0, 0.5])

    table = {frozenset([f]): point(t) for f, t in zip(names, along)}
    for a, b in pairs:
        if (a, b) in dropped:
            continue
        ratio = weights[a] / weights[b]
        if (a, b) in off:
            miss = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-4, 1e-3))
            ratio += draw(st.sampled_from([-1.0, 1.0])) * 10.0 * DEFAULT_TOL.gate(1.0, ratio) * (1.0 + miss)
        lam = ratio / (1.0 + ratio)
        table[frozenset([names[a], names[b]])] = point(lam * along[a] + (1.0 - lam) * along[b])
    return DatasetSource(2, table), dict.fromkeys(names, 0)


class TestRatioConflictSearch:
    @given(near_gate_classes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_triangle_loop_near_the_gate(self, case):
        src, ranks = case
        assert recovery._ratio_conflict_witness(
            src, ranks, DEFAULT_TOL
        ) == reference_ratio_conflict_witness(src, ranks)

    def test_memory_stays_quadratic(self):
        """200 consistent classmates with every pair stored: both passes scan
        every row, and one n^3 float temporary would take 64 MB."""
        n = 200
        names = [f"x{i:03d}" for i in range(n)]
        along = np.linspace(0.0, 10.0, n)
        weights = np.linspace(0.5, 2.0, n)
        table = {frozenset([f]): [t, 2.0 * t] for f, t in zip(names, along)}
        for a, b in itertools.combinations(range(n), 2):
            lam = weights[a] / (weights[a] + weights[b])
            t = lam * along[a] + (1.0 - lam) * along[b]
            table[frozenset([names[a], names[b]])] = [t, 2.0 * t]
        src, ranks = DatasetSource(2, table), dict.fromkeys(names, 0)
        tracemalloc.start()
        try:
            witness = recovery._ratio_conflict_witness(src, ranks, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness is None
        assert peak < 16 * 2**20


def reference_dataset_source(dimension, outcomes):
    """The one-entry-at-a-time constructor: each key through ``feature_set``,
    each value through ``as_point``, then the duplicate test, in insertion
    order; the interned fields as ``DatasetSource`` keeps them."""
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    ref = types.SimpleNamespace(dimension=int(dimension))
    table = {}
    for key, value in outcomes.items():
        fs = feature_set(key)
        arr = as_point(value, dim=ref.dimension)
        if fs in table:
            raise ValueError(f"duplicate set {sorted(fs)} in dataset")
        table[fs] = arr
    missing = sorted({(m,) for fs in table for m in fs if frozenset([m]) not in table})
    if missing:
        raise MissingSingleton(missing, "every member of every set needs a singleton entry")
    ref._features = tuple(sorted({m for fs in table for m in fs}))
    ref._sets = tuple(sorted(table, key=set_sort_key))
    code = {f: i for i, f in enumerate(ref._features)}
    blocks = {}
    for row, fs in enumerate(ref._sets):
        blocks.setdefault(len(fs), (row, []))[1].append(sorted(map(code.__getitem__, fs)))
    ref._blocks = {k: (first, np.array(rows, dtype=np.intp)) for k, (first, rows) in blocks.items()}
    points = np.empty((len(ref._sets), ref.dimension))
    for row, fs in enumerate(ref._sets):
        points[row] = table[fs]
    points.setflags(write=False)
    ref._points = points
    return ref


class _Pairs(Mapping):
    """A mapping kept as a list of (key, value) pairs, so that its keys may
    be lists; ``items()`` gives the pairs in insertion order."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def __getitem__(self, key):
        return next(v for k, v in self._pairs if k == key)

    def __iter__(self):
        return (k for k, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)

    def items(self):
        return list(self._pairs)


def _spelled(members, rng):
    """One key for a set: bare string (singletons), frozenset, tuple or list."""
    if len(members) == 1 and rng.random() < 0.5:
        return members[0]
    return [frozenset, tuple, list][rng.integers(3)](rng.permutation(members).tolist())


def _valued(point, rng, rows):
    """One value for a point: list, tuple, numpy row, or integers of all sizes."""
    style = rng.integers(5)
    if style == 0:
        return list(point)
    if style == 1:
        return tuple(point)
    if style == 2:
        rows.append(np.asarray(point, dtype=float))
        return np.vstack(rows)[-1]
    if style == 3:  # integers beyond 2**53, where the float rounds
        return [int(x * 1e6) * 2**40 + 1 for x in point]
    return [int(x * 1e3) * 10**30 if i % 2 else -int(x * 10) for i, x in enumerate(point)]


def _table_pairs(seed, features=6, dimension=3):
    """Seeded (key, value) pairs: every singleton plus some larger sets."""
    rng = np.random.default_rng(seed)
    names = [f"f{i}" for i in range(features)]
    sets = [[f] for f in names] + [
        list(c) for k in (2, 3) for c in itertools.combinations(names, k) if rng.random() < 0.4
    ]
    rows = []
    pairs = [
        (_spelled(s, rng), _valued(rng.uniform(-5, 5, dimension), rng, rows))
        for s in rng.permutation(np.array(sets, dtype=object)).tolist()
    ]
    return pairs, dimension


def _table(pairs):
    """A dict when every key is hashable, a list-backed mapping otherwise."""
    if any(isinstance(k, list) for k, _ in pairs):
        return _Pairs(pairs)
    return dict(pairs)


def _built(dimension, pairs):
    try:
        return DatasetSource(dimension, _table(pairs))
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return err


def _reference(dimension, pairs):
    try:
        return reference_dataset_source(dimension, _table(pairs))
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return err


def _assert_same_index(got, want):
    """The same two-field index: member tuples, and per size the first row
    and a read-only intp block of sorted codes, sizes in row order."""
    assert got._members == tuple(tuple(sorted(s)) for s in want._sets)
    assert list(got._blocks) == list(want._blocks)
    for size, (first, block) in got._blocks.items():
        assert first == want._blocks[size][0]
        assert block.dtype == np.intp and block.flags.writeable is False
        assert block.shape == want._blocks[size][1].shape and block.tolist() == want._blocks[size][1].tolist()


def _assert_same_error(got, want):
    assert isinstance(want, Exception), "the table was meant to be faulty"
    assert (type(got), str(got)) == (type(want), str(want))


# One fault each: (name, how it changes the well-formed pairs).
_FAULTS = {
    "bad id": lambda p, d: p.append((("f0", "f 1"), [0.0] * d)),
    "comma id": lambda p, d: p.append(("f,1", [0.0] * d)),
    "empty key": lambda p, d: p.append((frozenset(), [0.0] * d)),
    "empty string key": lambda p, d: p.append(("", [0.0] * d)),
    "non-string id": lambda p, d: p.append(((0, "f1"), [0.0] * d)),
    "wrong length": lambda p, d: p.append((("f0", "f1", "f2", "f3"), [0.0] * (d + 1))),
    "nan": lambda p, d: p.append((("f0", "f5"), [math.nan] + [0.0] * (d - 1))),
    "inf": lambda p, d: p.append((("f1", "f5"), [0.0] * (d - 1) + [-math.inf])),
    "2-d value": lambda p, d: p.append((("f2", "f5"), [[0.0] * d])),
    "empty value": lambda p, d: p.append((("f3", "f5"), [])),
    "ragged values": lambda p, d: p.append((("f4", "f5"), [[0.0], [0.0, 1.0]] + [0.0] * (d - 2))),
    "scalar value": lambda p, d: p.append((("f0", "f4"), 1.5)),
    "huge integer": lambda p, d: p.append((("f1", "f4"), [10**400] + [0] * (d - 1))),
    "two spellings": lambda p, d: p.extend(
        [(("f0", "f1", "f5"), [0.0] * d), (frozenset(["f5", "f1", "f0"]), [1.0] * d)]
    ),
    "missing singleton": lambda p, d: p.append((("f0", "g9"), [0.0] * d)),
}


class TestDatasetSourceMatchesPerEntryConstructor:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_interned_table(self, seed):
        pairs, dimension = _table_pairs(seed)
        got, want = _built(dimension, pairs), _reference(dimension, pairs)
        assert got._features == want._features
        assert got.sets() == want._sets
        _assert_same_index(got, want)
        assert got._points.tobytes() == want._points.tobytes()
        assert got._points.flags.writeable is want._points.flags.writeable is False

    def test_tables_use_every_key_and_value_spelling(self):
        pairs = [p for seed in range(12) for p in _table_pairs(seed)[0]]
        assert {type(k) for k, _ in pairs} == {str, frozenset, tuple, list}
        assert {type(v) for _, v in pairs} == {list, tuple, np.ndarray}
        assert any(isinstance(x, int) and abs(x) > 10**30 for _, v in pairs for x in v)

    def test_empty_table(self):
        # A dataset without sets is refused: recovery and richness have
        # nothing to read.
        got = _built(2, [])
        assert (type(got), str(got)) == (ValueError, "a dataset needs at least one set")

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_fault_same_error(self, fault, seed):
        pairs, dimension = _table_pairs(seed)
        _FAULTS[fault](pairs, dimension)
        _assert_same_error(_built(dimension, pairs), _reference(dimension, pairs))

    @pytest.mark.parametrize(
        "first, second", [(a, b) for a in sorted(_FAULTS) for b in sorted(_FAULTS) if a != b]
    )
    def test_first_of_two_faults_is_reported(self, first, second):
        pairs, dimension = _table_pairs(3)
        _FAULTS[first](pairs, dimension)
        _FAULTS[second](pairs, dimension)
        got = _built(dimension, pairs)
        _assert_same_error(got, _reference(dimension, pairs))
        # A missing singleton is a fault of the whole table, found after
        # every entry has passed; any other fault is the first entry's.
        alone, _ = _table_pairs(3)
        _FAULTS[second if first == "missing singleton" else first](alone, dimension)
        _assert_same_error(got, _reference(dimension, alone))


# --------------------------------------------------------------------------
# the loader's set records against the per-record loop


def _reference_vector(value, dim, where):
    """One outcome array, element by element."""
    if not isinstance(value, list):
        raise DatasetFormatError(where, "expected an array of numbers")
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DatasetFormatError(f"{where}[{i}]", f"expected a number, got {x!r}")
        if not abs(x) <= 1.7976931348623157e308:
            raise DatasetFormatError(f"{where}[{i}]", f"non-finite value {x!r}")
    if len(value) != dim:
        raise DatasetFormatError(where, f"length {len(value)} does not match dimension {dim}")
    return [float(x) for x in value]


def _reference_members(members, features, where):
    """One member array: every member declared, then none twice."""
    if not isinstance(members, list) or not members:
        raise DatasetFormatError(where, "expected a non-empty array of feature ids")
    for m in members:
        if not isinstance(m, str) or m not in features:
            raise DatasetFormatError(where, f"undeclared feature {m!r}")
    if len(set(members)) != len(members):
        raise DatasetFormatError(where, "duplicate members")
    return frozenset(members)


def reference_load_dataset(text):
    """The loader as it read set records before the batch pass: the top
    level, the feature table, then one record at a time, element by
    element, each record's table entry checked as it comes.  Gives the
    interned fields of the source (``reference_dataset_source``) or raises
    the first fault; what the loader reads after the source (direction,
    weights, the belief rows) is not repeated here."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise DatasetFormatError("<input>", "top level must be an object")
    fileio._closed(raw, fileio._TOP_KEYS, "<input>")
    if fileio._need(raw, "format_version", "<input>") != fileio.FORMAT_VERSION:
        raise DatasetFormatError("format_version", "unsupported version")
    kind = raw.get("kind", "generic")
    dimension = fileio._positive_integer(fileio._need(raw, "dimension", "<input>"), "dimension")
    features = fileio._need(raw, "features", "<input>")
    table = {}
    for fid in sorted(features):
        where = f"features[{fid!r}]"
        entry = features[fid]
        fileio._closed(entry, fileio._FEATURE_KEYS, where)
        table[frozenset([fid])] = _reference_vector(fileio._need(entry, "outcome", where), dimension, f"{where}.outcome")
    for idx, entry in enumerate(raw.get("sets", [])):
        where = f"sets[{idx}]"
        if not isinstance(entry, dict):
            raise DatasetFormatError(where, "expected an object")
        fileio._closed(entry, fileio._SET_KEYS, where)
        members = fileio._need(entry, "members", where)
        fs = _reference_members(members, features, f"{where}.members")
        outcome = _reference_vector(fileio._need(entry, "outcome", where), dimension, f"{where}.outcome")
        if "timing" in entry and kind != "timed":
            raise DatasetFormatError(f"{where}.timing", "timing is only allowed in timed datasets")
        if fs in table and len(fs) > 1:
            raise DatasetFormatError(f"{where}.members", f"duplicate set {sorted(fs)}")
        if len(fs) == 1 and table[fs] != outcome:
            raise DatasetFormatError(f"{where}.outcome", "singleton disagrees with its feature entry")
        table[fs] = outcome
    return reference_dataset_source(dimension, table)


def _document(src):
    return fileio.dataset_to_json(src)


def _wide_document(features=70, sets=40, seed=7):
    """More features than an int64 mask holds, and sets over all of them."""
    rng = np.random.default_rng(seed)
    names = [f"w{i:02d}" for i in range(features)]
    table = {frozenset([f]): rng.uniform(-3, 3, 2) for f in names}
    for _ in range(sets):
        size = int(rng.integers(2, features + 1))
        table[frozenset(rng.choice(names, size, replace=False).tolist())] = rng.uniform(-3, 3, 2)
    return _document(DatasetSource(2, table))


_LOADER_BASES = {
    "corpus": lambda: {
        "format_version": "1",
        "kind": "generic",
        "dimension": 2,
        "features": {"a": {"outcome": [0, 1]}, "b": {"outcome": [1, 0]}, "c": {"outcome": [1, 1]}},
        "sets": [
            {"members": ["a", "b"], "outcome": [0.5, 0.5]},
            {"members": ["b", "c"], "outcome": [1, 0.5]},
            {"members": ["a", "b", "c"], "outcome": [0.75, 0.5]},
        ],
    },
    "dense": lambda: _document(
        gen_dataset(
            gen_representation(GeneratorConfig(seed=61, feature_count=18, dimension=2, rank_classes=2)),
            SubsetPolicy.PAIRS_AND_TRIPLES,
        )
    ),
    "wide": _wide_document,
}
_LOADER_TEXTS = {}


def _base_text(name):
    if name not in _LOADER_TEXTS:
        _LOADER_TEXTS[name] = json.dumps(_LOADER_BASES[name]())
    return _LOADER_TEXTS[name]


_FLOAT_MAX = 1.7976931348623157e308
_ODD_VALUES = {
    "string": "1.5", "true": True, "false": False, "null": None, "list": [0.5], "object": {"x": 1},
    "2**1024": 2**1024, "float max": _FLOAT_MAX, "-float max": -_FLOAT_MAX,
    "int(float max) + 1": int(_FLOAT_MAX) + 1, "int(float max)": int(_FLOAT_MAX), "-0.0": -0.0,
    "0": 0, "10**30": 10**30, "2**53 + 1": 2**53 + 1, "NaN": math.nan, "Infinity": math.inf,
}


def _mutate(doc, draw):
    """One edit of a set record (or a new record) of ``doc``, in place."""
    sets, features = doc["sets"], doc["features"]
    intact = [
        i for i, e in enumerate(sets)
        if type(e) is dict and type(e.get("members")) is list and e["members"] and type(e.get("outcome")) is list
        and e["outcome"] and all(type(m) is str for m in e["members"])
    ]
    if not intact:
        return
    i = draw(st.sampled_from(intact))
    entry = sets[i]
    members, outcome = entry["members"], entry["outcome"]
    fid = draw(st.sampled_from(sorted(features)))
    edit = draw(st.sampled_from([
        "value", "ragged", "unsorted", "unhashable", "repeated member", "undeclared", "empty",
        "string members", "duplicate set", "singleton agrees", "singleton disagrees",
        "singleton as integers", "unknown key", "no members", "no outcome", "timing", "not an object",
        "outcome not a list",
    ]))
    if edit == "value":
        outcome[draw(st.integers(0, len(outcome) - 1))] = draw(st.sampled_from(list(_ODD_VALUES.values())))
    elif edit == "ragged":
        entry["outcome"] = outcome[:-1] if draw(st.booleans()) else outcome + [0.0]
    elif edit == "unsorted":
        members.reverse()
    elif edit == "unhashable":
        members[draw(st.integers(0, len(members) - 1))] = [members[0]]
    elif edit == "repeated member":
        members.append(draw(st.sampled_from(members)))
    elif edit == "undeclared":
        members[draw(st.integers(0, len(members) - 1))] = draw(st.sampled_from(["zzz", 1, None, ""]))
    elif edit == "empty":
        entry["members"] = []
    elif edit == "string members":
        entry["members"] = members[0]
    elif edit == "duplicate set":
        copy = {"members": draw(st.permutations(members)), "outcome": list(outcome)}
        sets.insert(draw(st.integers(0, len(sets))), copy)
    elif edit.startswith("singleton"):
        point = list(features[fid]["outcome"])
        if edit == "singleton disagrees":
            point[0] = point[0] + 1.0
        elif edit == "singleton as integers":
            point = [int(x) if float(x).is_integer() else x for x in point]
            point[0] = -0.0 if point[0] == 0 else point[0]
        sets.insert(draw(st.integers(0, len(sets))), {"members": [fid], "outcome": point})
    elif edit == "unknown key":
        entry["note"] = 1
    elif edit == "no members":
        del entry["members"]
    elif edit == "no outcome":
        del entry["outcome"]
    elif edit == "timing":
        entry["timing"] = {m: 1 for m in members}
    elif edit == "not an object":
        sets[i] = [members, outcome]
    else:
        entry["outcome"] = draw(st.sampled_from([0.5, "0.5", {"x": 0.5}, None]))


@st.composite
def loader_documents(draw):
    """A base document with one or two edits of its set records."""
    doc = json.loads(_base_text(draw(st.sampled_from(sorted(_LOADER_BASES)))))
    for _ in range(draw(st.integers(1, 2))):
        _mutate(doc, draw)
    return json.dumps(doc)


def _load_or_error(load, text):
    try:
        return load(text)
    except DatasetFormatError as err:
        return err


def _assert_loads_alike(text):
    """The same source, bit for bit, or the same fault at the same place."""
    want = _load_or_error(reference_load_dataset, text)
    got = _load_or_error(lambda t: fileio.load_dataset(io.StringIO(t)).source, text)
    if isinstance(want, DatasetFormatError):
        assert isinstance(got, DatasetFormatError)
        assert (got.location, str(got)) == (want.location, str(want))
        return
    assert not isinstance(got, Exception), got
    assert got._features == want._features
    _assert_same_index(got, want)
    assert got._points.tobytes() == want._points.tobytes()


class TestLoaderMatchesPerRecordLoop:
    @settings(max_examples=300, deadline=None)
    @given(loader_documents())
    def test_same_source_or_same_fault(self, text):
        _assert_loads_alike(text)

    @pytest.mark.parametrize("value", sorted(_ODD_VALUES))
    @pytest.mark.parametrize("name", sorted(_LOADER_BASES))
    def test_every_odd_value_read_alike(self, name, value):
        doc = json.loads(_base_text(name))
        doc["sets"][-1]["outcome"][-1] = _ODD_VALUES[value]
        _assert_loads_alike(json.dumps(doc))

    @pytest.mark.parametrize("name", sorted(_LOADER_BASES))
    def test_bases_load_alike(self, name):
        text = _base_text(name)
        want = reference_load_dataset(text)
        got = fileio.load_dataset(io.StringIO(text)).source
        _assert_same_index(got, want)
        assert got._points.tobytes() == want._points.tobytes()
        if name == "wide":  # more features than a 64-bit mask has bits
            assert len(got._features) > 64

    def test_valid_records_skip_the_per_record_readers(self, monkeypatch):
        # The records of a valid file are read in batch; the per-record
        # readers run only to name a fault.
        calls = []
        for name in ("_as_vector", "_member_set"):
            real = getattr(fileio, name)

            def counted(value, *args, _real=real, _name=name):
                calls.append((_name, args[-1]))
                return _real(value, *args)

            monkeypatch.setattr(fileio, name, counted)
        fileio.load_dataset(io.StringIO(_base_text("dense")))
        assert calls and not [where for _, where in calls if where.startswith("sets[")]


def reference_boundary_diagnostic(src, recovery, tol=DEFAULT_TOL):
    """One hull search per menu of two or more alternatives."""
    rows = []
    boundary = []
    for s in src.sets():
        members = sorted(s)
        if len(members) < 2:
            continue
        outcome = src.outcome(s)
        points = [src.outcome([m]) for m in members]
        try:
            interior = relative_interior_check(outcome, points, tol)
            in_hull = True
        except NotInConvexHull:
            interior = False
            in_hull = False
        rows.append(BoundaryRow(members=tuple(members), interior=interior, in_hull=in_hull))
        if not interior:
            boundary.append(tuple(members))
    single = None
    if isinstance(recovery, Recovered):
        single = len(recovery.representation.rank_classes()) == 1
    return tuple(rows), tuple(boundary), tuple(boundary) if single else (), single


def _boundary_fields(report):
    """What a ``BoundaryReport`` says: its rows, boundary menus,
    contradictions and single-class flag."""
    return report.rows, report.boundary_menus, report.contradictions, report.single_class


def reference_certify_interior(points, gens, coef, tol):
    """The certificate on menus of one size m: ``gens`` a ``(k, m, d)`` stack,
    ``coef`` its ``(k, m)`` coefficients, as one array pass per size."""
    m = gens.shape[1]
    tame = geometry._tame(points, 32.0) and geometry._tame(gens, 32.0)
    origin = gens.mean(axis=1)
    spokes = gens - origin[:, None, :]
    q = points - origin
    level = geometry._RELINT_MARGIN * tol.lam_slack
    if m * level >= 0.5:
        level = 0.5 / m
    gate, stretch = tol.gate(geometry._spread(q, spokes, tame), 1.0), 1.0 + m * level / (1.0 - m * level)
    rebuilt = np.einsum("km,kmd->kd", coef, spokes)
    accepted = (geometry._row_norms(rebuilt - q, tame) <= geometry._CERTIFICATE_SHARE * gate) & (
        coef.min(axis=1) >= level
    )
    _, svals, vt = np.linalg.svd(spokes, full_matrices=False)
    span = vt * (np.arange(vt.shape[1]) < _numerical_ranks(svals, tol)[:, None])[:, :, None]
    flat = np.matmul(spokes, span.transpose(0, 2, 1))
    target = stretch * np.matmul(span, q[:, :, None])[:, :, 0]
    flat_origin = flat.mean(axis=1)
    flat_spokes = flat - flat_origin[:, None, :]
    flat_q = target - flat_origin
    stretched = stretch * coef - (stretch - 1.0) / m
    miss = geometry._row_norms(np.einsum("km,kmr->kr", stretched, flat_spokes) - flat_q, tame)
    return accepted & (
        miss <= geometry._CERTIFICATE_SHARE * geometry._FIT_EPS * geometry._spread(flat_q, flat_spokes, tame)
    )


def reference_certified_boundary(src, recovery, tol=DEFAULT_TOL):
    """One certificate call per menu size over the menus whose members share
    a rank, then one ``BoundaryRow`` per menu, searching the menus left open."""
    members, points = src._members, src._points
    blocks = [(first, codes) for size, (first, codes) in src._blocks.items() if size > 1]
    settled = np.zeros(len(members), dtype=bool)
    single = None
    if isinstance(recovery, Recovered):
        rep = recovery.representation
        single = len(rep.rank_classes()) == 1
        for first, codes in blocks:
            ranks = rep._rank_array[codes]
            same = np.flatnonzero((ranks == ranks[:, :1]).all(axis=1))
            w = rep._weight_array[codes[same]]
            coef = w / w.sum(axis=1, keepdims=True)
            settled[first + same] = reference_certify_interior(
                points[first + same], points[codes[same]], coef, tol
            )
    rows = []
    boundary = []
    for first, codes in blocks:
        for row, gens in enumerate(codes, first):
            interior = in_hull = True
            if not settled[row]:
                try:
                    interior = relative_interior_check(points[row], points[gens], tol)
                except NotInConvexHull:
                    interior = in_hull = False
            rows.append(BoundaryRow(members=members[row], interior=interior, in_hull=in_hull))
            if not interior:
                boundary.append(members[row])
    return tuple(rows), tuple(boundary), tuple(boundary) if single else (), single


def _menus(seed, features=7, dimension=3, classes=1, shift=0.0, factor=1.0):
    """Every menu of a seeded two-stage rule, its outcomes moved as given."""
    rep = gen_representation(
        GeneratorConfig(
            seed=seed, feature_count=features, dimension=dimension, rank_classes=classes
        )
    )
    moved = {f: factor * p + shift for f, p in rep.outcomes.items()}
    return gen_dataset(Representation(weights=rep.weights, ranks=rep.ranks, outcomes=moved))


def _pairs_and_whole(seed, features=30):
    """A seeded one-class rule's pairs and its whole menu: sizes far apart."""
    rep = gen_representation(GeneratorConfig(seed=seed, feature_count=features, dimension=3, rank_classes=1))
    names = rep.features()
    return induced_source(rep, [(f,) for f in names] + list(itertools.combinations(names, 2)) + [names])


def _faces_and_outside(src, seed):
    """Every third menu moved onto a vertex of its hull or out beyond one."""
    rng = np.random.default_rng(seed)
    table = {s: src.outcome(s) for s in src.sets()}
    for k, s in enumerate(s for s in src.sets() if len(s) >= 2):
        if k % 3 == 0:
            gens = np.vstack([src.outcome([f]) for f in sorted(s)])
            vertex = gens[np.argmax(gens @ rng.normal(size=src.dimension))]
            table[s] = vertex if k % 2 == 0 else 3.0 * vertex - 2.0 * gens.mean(axis=0)
    return DatasetSource(src.dimension, table)


def _boundary_case(name):
    """(source, recovery, tolerance) of one named menu dataset."""
    tol = DEFAULT_TOL
    if name == "luce":
        src = _menus(41)
    elif name in ("two classes", "three classes"):
        classes = 2 if name == "two classes" else 3
        src = _menus(42 + classes, features=3 * classes + 1, dimension=2, classes=classes)
    elif name == "faces, clean weights":
        clean = _menus(45)
        return _faces_and_outside(clean, 45), recover(clean), tol
    elif name == "faces":
        src = _faces_and_outside(_menus(45), 45)
    elif name == "non-representable":
        src = perturb(_menus(46, features=5), 1e-3, seed=46)
    elif name == "missing pair":
        full = _menus(47, features=5)
        src = DatasetSource(
            full.dimension, {s: full.outcome(s) for s in full.sets() if s != {"x00", "x01"}}
        )
    elif name == "translated":
        src = _menus(41, shift=1e6)
    else:
        src = _menus(41, factor=1e-6)
        tol = Tolerance(abs_tol=1e-15)
    return src, recover(src, tol), tol


_BOUNDARY_OUTCOMES = {
    "luce": Recovered,
    "two classes": Recovered,
    "three classes": Recovered,
    "faces, clean weights": Recovered,
    "faces": NonRepresentable,
    "non-representable": NonRepresentable,
    "missing pair": MissingData,
    "translated": Recovered,
    "scaled": Recovered,
}


class TestBoundaryMatchesPerMenuSearch:
    @pytest.mark.parametrize("name", sorted(_BOUNDARY_OUTCOMES))
    def test_same_report(self, name):
        src, recovery, tol = _boundary_case(name)
        assert isinstance(recovery, _BOUNDARY_OUTCOMES[name])
        want = reference_boundary_diagnostic(src, recovery, tol)
        assert _boundary_fields(boundary_diagnostic(src, recovery, tol)) == want
        if name.startswith("faces"):
            rows, boundary_menus, _, _ = want
            assert boundary_menus and not all(row.in_hull for row in rows)


def _no_menus():
    """One alternative: no menu of two or more, and a recovery all the same."""
    return DatasetSource(2, {"a": [0.5, 1.0]})


class TestBoundaryMatchesPerSizeCertificates:
    """One padded certificate call gives the report of one call per menu size."""

    @pytest.mark.parametrize(
        "src,outcome",
        [(_menus(51), Recovered), (_menus(52, features=6, dimension=2, classes=2), Recovered),
         (perturb(_menus(53, features=5), 1e-3, seed=53), NonRepresentable), (_no_menus(), Recovered)],
        ids=["luce", "two classes", "refused", "no menus"],
    )
    def test_same_report(self, src, outcome):
        assert isinstance(recover(src), outcome)
        for recovery in (recover(src), recover_two_stage(src).recovery):
            want = reference_certified_boundary(src, recovery)
            assert _boundary_fields(boundary_diagnostic(src, recovery)) == want

    @pytest.mark.parametrize("slots", [None, 1, 7, 24, 64])
    @pytest.mark.parametrize("src", [_menus(51), _pairs_and_whole(54)], ids=["every menu", "pairs and the whole"])
    def test_runs_of_bounded_padding(self, src, slots, monkeypatch):
        # Small budgets of member slots cut runs across sizes and leave a menu
        # wider than the budget in a run of its own; the default takes every
        # menu in one call.
        calls = []
        real = choice._certify_interior

        def recorded(points, gens, coef, sizes, tol):
            calls.append(gens.shape[:2])
            return real(points, gens, coef, sizes, tol)

        monkeypatch.setattr(choice, "_certify_interior", recorded)
        if slots is not None:
            monkeypatch.setattr(choice, "_PAD_CELLS", slots * src.dimension)
        recovery = recover(src)
        want = reference_certified_boundary(src, recovery)
        monkeypatch.setattr(choice, "relative_interior_check", None)  # every menu certified: no search
        assert _boundary_fields(boundary_diagnostic(src, recovery)) == want
        assert sum(rows for rows, _ in calls) == len(src) - len(src.features())  # one rank class
        if slots is None:
            assert len(calls) == 1
        else:
            assert len(calls) > 1 and all(rows * width <= slots or rows == 1 for rows, width in calls)

    @pytest.mark.parametrize("seed", range(20))
    def test_padded_call_accepts_the_rows_per_size_calls_accept(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        width = 5
        sizes = rng.integers(1, width + 1, 40)
        gens = rng.uniform(-1.0, 1.0, (40, width, d)) * (np.arange(width) < sizes[:, None])[:, :, None]
        coef = rng.uniform(0.05, 1.0, (40, width)) * (np.arange(width) < sizes[:, None])
        coef[::5, 0] = 1e-6  # below the strictness level
        coef /= coef.sum(axis=1, keepdims=True)
        points = np.einsum("km,kmd->kd", coef, gens)
        points[1::3] += rng.normal(0.0, 1e-10, (len(points[1::3]), d))
        points[2::7] += rng.normal(0.0, 1.0, (len(points[2::7]), d))
        got = geometry._certify_interior(points, gens, coef, sizes, DEFAULT_TOL)
        want = np.zeros(len(sizes), dtype=bool)
        for m in range(1, width + 1):
            rows = np.flatnonzero(sizes == m)
            want[rows] = reference_certify_interior(points[rows], gens[rows, :m], coef[rows, :m], DEFAULT_TOL)
        assert got.tolist() == want.tolist()
        assert 0 < got.sum() < len(got)


# --------------------------------------------------------------------------
# the split walk against a per-union sorted walk


def reference_split_rows(src):
    """Each stored union's bipartitions (A holding its smallest member),
    sorted by the parts' member tuples, as row indices."""
    row = {members: i for i, members in enumerate(src._members)}
    splits = []
    for union in src._members:
        head, rest = union[0], union[1:]
        parts = []
        for size in range(len(rest)):
            for extra in itertools.combinations(rest, size):
                part_a = (head, *extra)
                if part_a in row:
                    part_b = tuple(m for m in rest if m not in extra)
                    if part_b in row:
                        parts.append((part_a, part_b))
        splits += [(row[union], row[a], row[b]) for a, b in sorted(parts)]
    return splits


@st.composite
def set_families(draw):
    """A stored family over up to seven features: every singleton plus any
    subsets (sparse ones take the walk over stored sets sharing a union's
    smallest member), or every subset (the walk over all parts' keys)."""
    names = draw(st.lists(st.text("abxyz01", min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
    subsets = [c for k in range(2, len(names) + 1) for c in itertools.combinations(names, k)]
    chosen = subsets if draw(st.booleans()) else draw(st.lists(st.sampled_from(subsets), unique=True)) if subsets else []
    table = {frozenset(s): [float(i)] for i, s in enumerate([(n,) for n in names] + chosen)}
    return DatasetSource(1, table)


_FULL_FAMILY = DatasetSource(1, {frozenset(s): [0.0] for k in range(1, 6) for s in itertools.combinations("abcde", k)})
_SPARSE_FAMILY = DatasetSource(
    1, {frozenset(s): [0.0] for s in ["a", "b", "c", "d", "e", "ab", "cd", "abcd", "ce", "abce", "bcde"]}
)
_NO_SPLIT = DatasetSource(1, {frozenset(s): [0.0] for s in ["a", "b", "c", "abc"]})


def _family(names, sets):
    """Every singleton of ``names`` plus ``sets``, each a tuple of indices into them."""
    return DatasetSource(1, {frozenset(names[i] for i in s): [0.0] for s in [(i,) for i in range(len(names))] + sets})


_X = [f"x{i:02d}" for i in range(80)]
# Pairs, triples (those of x00 and x03 with more stored sets sharing their
# smallest member than parts, the others fewer) and a 22-member union with
# two stored splits among more stored parts.
_WIDE_80 = _family(_X, [
    *((i, i + 1) for i in range(0, 78, 3)), (0, 2), (3, 5), (0, 10), (3, 10),
    *((i, i + 1, i + 2) for i in range(0, 77, 3)), (0, 1, 10), (3, 4, 10), (0, 3, 10),
    tuple(range(22)), tuple(range(1, 22)), tuple(range(11)), tuple(range(11, 22)), tuple(range(12)), (0, 1),
])
# Triples abc and cde walk all their parts, bcd between them the three stored
# sets that hold b as smallest member.
_MIXED_BLOCK = _family("abcdef", [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (2, 4), (3, 4), (0, 1, 2), (1, 2, 3), (2, 3, 4)])
# A 15-member union among 30 features: keys of 14 members in base 31 would
# not fit in int64, so its stored parts are bisected for.
_OVERFLOW = _family([f"y{i:02d}" for i in range(30)], [
    tuple(range(15)), tuple(range(1, 15)), tuple(range(7)), tuple(range(7, 15)),
    (0, *range(7, 15)), tuple(range(1, 7)), tuple(range(14)), (0, 20), (0, 1, 2), (3, 4, 5),
])
# An 8-member union among 511 features, whose smallest member 129 stored
# sets share: more than its 127 parts, whose keys in base 512 would not fit.
_OVERFLOW_SHARED = _family([f"z{i:03d}" for i in range(511)], [
    *((0, j) for j in range(1, 128)), tuple(range(8)), tuple(range(1, 8)),
    tuple(range(2, 8)), tuple(range(4)), tuple(range(4, 8)), (5, 6, 7),
])


class TestSplitRowsMatchPerUnionSort:
    @settings(max_examples=300, deadline=None)
    @example(_FULL_FAMILY)
    @example(_SPARSE_FAMILY)
    @example(_NO_SPLIT)
    @example(_WIDE_80)
    @example(_MIXED_BLOCK)
    @example(_OVERFLOW)
    @example(_OVERFLOW_SHARED)
    @given(set_families())
    def test_same_rows_in_same_order(self, src):
        union, part_a, part_b = model._split_rows(src)
        assert union.dtype == part_a.dtype == part_b.dtype == np.intp
        assert list(zip(union.tolist(), part_a.tolist(), part_b.tolist())) == reference_split_rows(src)


# --------------------------------------------------------------------------
# the loader's belief check against the per-set loop


def reference_belief_check(src, tol):
    """(location, message) of the first stored set, in canonical order,
    that ``as_belief`` refuses; None when it accepts them all."""
    for fs in sorted(src.sets(), key=set_sort_key):
        try:
            as_belief(np.asarray(src.outcome(fs)), tol)
        except NotABelief as exc:
            return f"outcome of {{{','.join(sorted(fs))}}}", str(exc)
    return None


def _ulps(x, steps):
    """``x`` moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@st.composite
def belief_rows(draw, d, gate):
    """A probability vector of ``d`` entries, or one whose sum sits at
    1 +- gate or whose smallest entry sits at -gate, give or take a few ulps."""
    row = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))) + 1e-3
    row = (row / row.sum()).tolist()
    edge = draw(st.sampled_from(["none", "sum", "entry"]))
    steps = draw(st.integers(-3, 3))
    if edge == "sum":
        target = _ulps(1.0 + draw(st.sampled_from([-gate, gate])), steps)
        row[-1] = target - math.fsum(row[:-1])
    elif edge == "entry":
        row[draw(st.integers(0, d - 1))] = _ulps(-gate, draw(st.integers(-1, 1)))
    return row


@st.composite
def belief_documents(draw):
    """A belief dataset of up to three features and their stored unions,
    and the tolerance to load it with."""
    d = draw(st.integers(1, 16))
    tol = draw(st.sampled_from([DEFAULT_TOL, Tolerance(abs_tol=1e-6, rel_tol=1e-6), Tolerance(abs_tol=0.25)]))
    rows = belief_rows(d, tol.gate(1.0))
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    unions = [c for k in range(2, len(names) + 1) for c in itertools.combinations(names, k)]
    doc = {
        "format_version": "1",
        "kind": "belief",
        "dimension": d,
        "features": {n: {"outcome": draw(rows)} for n in names},
        "sets": [{"members": list(u), "outcome": draw(rows)} for u in unions],
    }
    return doc, tol


def _loaded(doc, tol, kind):
    return fileio.load_dataset(io.StringIO(json.dumps({**doc, "kind": kind})), tol)


class TestBeliefLoaderMatchesPerSetLoop:
    @settings(max_examples=400, deadline=None)
    @given(belief_documents())
    def test_same_acceptance_and_first_fault(self, doc_tol):
        doc, tol = doc_tol
        want = reference_belief_check(_loaded(doc, tol, "generic").source, tol)
        try:
            _loaded(doc, tol, "belief")
        except DatasetFormatError as err:
            assert want is not None
            assert (err.location, str(err)) == (want[0], f"{want[0]}: {want[1]}")
        else:
            assert want is None

    @settings(max_examples=200, deadline=None)
    @given(belief_documents())
    def test_check_bayesian_refuses_the_first_faulty_singleton(self, doc_tol):
        doc, tol = doc_tol
        src = _loaded(doc, tol, "generic").source
        singles = DatasetSource(src.dimension, {f: src.outcome([f]) for f in src.features()})
        want = reference_belief_check(singles, tol)
        try:
            check_bayesian(src, tol)
        except NotABelief as exc:
            assert want is not None and str(exc) == want[1]
        else:
            assert want is None


def reference_norm(x):
    """``np.linalg.norm``, or, where its squares overflow on a finite vector,
    the norm of the vector over its largest magnitude, times that magnitude."""
    norm = float(np.linalg.norm(x))
    if math.isinf(norm) and np.isfinite(x).all():
        top = float(np.abs(x).max())
        norm = top * float(np.linalg.norm(x / top))
    return norm


def _reference_scaled(u, v, tol, who):
    """One vector over <u, v>, with scalar dots and norms and ``tol.gate``."""
    u = as_point(u)
    v = as_point(v, dim=u.size)
    s = float(np.dot(u, v))
    gate = tol.gate(reference_norm(u) * reference_norm(v))
    if s <= gate:
        raise MinimalAgreementViolated(who, s, gate)
    return u / s


def _reference_finite(out, who):
    if not np.isfinite(out).all():
        raise ValueError(f"{who}: normalised outcome has non-finite coordinates: {out!r}")


def reference_normalize_to_H(u, v, tol, who):
    """One vector onto <., v> = 1; ValueError, named ``who``, when it overflows."""
    out = _reference_scaled(u, v, tol, who)
    _reference_finite(out, who)
    return out


def reference_normalized_source(src, v, tol):
    """The per-set loop: every stored set in canonical order through
    ``_reference_scaled``, then again through the finiteness test, then
    the mapping constructor."""
    v = as_point(v, dim=src.dimension)
    normalized = {s: _reference_scaled(src.outcome(s), v, tol, ",".join(sorted(s))) for s in src.sets()}
    for s, out in normalized.items():
        _reference_finite(out, ",".join(sorted(s)))
    return DatasetSource(src.dimension, normalized)


def _result_or_error(fn, *args):
    with np.errstate(all="ignore"):  # an overflow is compared, not warned about
        try:
            return fn(*args)
        except Exception as err:  # noqa: BLE001 - the error itself is compared
            return err


# A scale for the table and one for the direction: 1e-310 to 1e307, or
# one of the pairs at the edge of the float range where <u, v> clears the
# gate while |v| underflows to 0 and u / <u, v> may overflow.  Each coordinate
# is a size in [0.1, 10] (now and then a zero of either sign) times its
# scale times a factor that is now and then far off it.
_SCALES = st.one_of(
    st.sampled_from([3e-309, 1e-308, 1e-300, 1e-160, 1.0, 1e150, 1e300]),
    st.builds(lambda e: 10.0**e, st.integers(-310, 307)),
)
_EDGE_SCALES = st.sampled_from([(1e300, 3e-309), (1e300, 1e-308), (3e299, 3e-309), (1e155, 1e-160)])
# Scales whose product is 1, so that <u, v> is near 1 and most tables pass.
_MATCHED_SCALES = st.builds(lambda e: (10.0**e, 10.0**-e), st.integers(-307, 307))
_SIZES = st.one_of(st.sampled_from([0.0, -0.0]), *[st.floats(0.1, 10.0)] * 6)
_FACTORS = st.sampled_from([1.0] * 6 + [1e-10, 1e10, 1e-300, 1e300])


@st.composite
def agreement_tables(draw):
    """A coalition table, a direction and a tolerance; half the tables
    have entries of both signs, the others none below zero."""
    d = draw(st.integers(1, 4))
    signs = st.sampled_from([1.0, -1.0] if draw(st.booleans()) else [1.0])

    def point(scale):
        return [min(draw(_SIZES) * scale * draw(_FACTORS), 1.7e308) * draw(signs) for _ in range(d)]

    names = [f"i{j}" for j in range(draw(st.integers(1, 3)))]
    unions = [c for k in range(2, len(names) + 1) for c in itertools.combinations(names, k)]
    stored = draw(st.lists(st.sampled_from(unions), unique=True, max_size=3)) if unions else []
    u_scale, v_scale = draw(st.one_of(st.tuples(_SCALES, _SCALES), _EDGE_SCALES, _MATCHED_SCALES))
    table = {frozenset(s): point(u_scale) for s in [(n,) for n in names] + stored}
    tol = draw(st.sampled_from([Tolerance(1e-15, 1e-15), DEFAULT_TOL, Tolerance(1e-3, 1e-3)]))
    return DatasetSource(d, table), np.array(point(v_scale)), tol


class TestNormalizedSourceMatchesPerSetLoop:
    @settings(max_examples=1500, deadline=None)
    @given(agreement_tables())
    @example(  # |v| underflows and |u| overflows: the gate's scale is NaN
        (DatasetSource(3, {"i0": [1e300, 0.0, 0.0], "i1": [1e299, 1e300, 0.0]}), np.array([3e-309, 0.0, 0.0]), DEFAULT_TOL)
    )
    @example((DatasetSource(1, {"i0": [-1e-200]}), np.array([1e-200]), DEFAULT_TOL))  # <u, v> is -0.0
    @example((DatasetSource(3, {"i0": [1e300, 0.0, 0.0]}), np.array([3e-309, 0.0, 0.0]), DEFAULT_TOL))  # overflows
    def test_same_points_or_same_error(self, case):
        src, v, tol = case
        got = _result_or_error(social._normalized_source, src, v, tol)
        want = _result_or_error(reference_normalized_source, src, v, tol)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert got._members == want._members
            assert got._points.tobytes() == want._points.tobytes()
            assert got._points.flags.writeable is False
        for row in src._points:  # the one-vector wrapper, on every stored outcome
            got = _result_or_error(social.normalize_to_H, row, v, tol, "u")
            want = _result_or_error(reference_normalize_to_H, row, v, tol, "u")
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got.tobytes() == want.tobytes()


def reference_perturb(src, magnitude, seed):
    """Noise on every non-singleton set, one draw per set in canonical order;
    a magnitude outside [0, largest float / 2] is refused."""
    if not 0.0 <= magnitude <= np.finfo(float).max / 2:
        raise ValueError(f"magnitude must be non-negative and at most half the largest float: {magnitude!r}")
    rng = np.random.default_rng(seed)
    table = {}
    for s in src.sets():
        out = np.array(src.outcome(s), dtype=float)
        if len(s) > 1:
            out = out + rng.uniform(-magnitude, magnitude, out.size)
        table[s] = out
    return DatasetSource(src.dimension, table)


class TestPerturbMatchesPerSetLoop:
    @pytest.mark.parametrize("name", ["dense", "wide", "singletons", "huge"])
    def test_same_bits_or_same_error(self, name):
        rep = _rep(61, 6, classes=2, dimension=3)
        huge = {"a": [1.7e308, -1.7e308], "b": [1e308, 1.0], ("a", "b"): [1.7e308, -1.7e308]}
        src, magnitude = {
            "dense": (gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES), 1e-3),
            "wide": (_wide(_rep(62, 9)), 0.5),
            "singletons": (induced_source(rep, [(f,) for f in rep.features()]), math.inf),
            "huge": (DatasetSource(2, huge), 8e307),  # some draws overflow
        }[name]
        for seed in range(4):
            got = _result_or_error(perturb, src, magnitude, seed)
            want = _result_or_error(reference_perturb, src, magnitude, seed)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got._members == want._members
                assert got._points.tobytes() == want._points.tobytes()


# --------------------------------------------------------------------------
# the pair table against one lookup per pair


def reference_pair_table(src, tol):
    """``equal``, ``row`` and ``away`` one pair at a time: each pair through
    ``_lookup``, each comparison through ``Tolerance.close``."""
    features = src.features()
    n = len(features)
    singles = [src._lookup([f]) for f in features]
    equal = np.array([[tol.close(p, q) for q in singles] for p in singles], dtype=bool).reshape(n, n)
    row = np.full((n, n), -1, dtype=np.int32)
    away = np.zeros((n, n), dtype=bool)
    for i, j in itertools.permutations(range(n), 2):
        agg = src._lookup([features[i], features[j]])
        if agg is not None:
            row[i, j] = src._members.index(tuple(sorted((features[i], features[j]))))
            away[i, j] = not tol.close(agg, singles[j])
    return equal, row, away


@st.composite
def pair_sources(draw):
    """Singletons on a small lattice of positive points, so outcomes often
    coincide, and any subset of the pairs (gaps and none included), each at
    an endpoint, the midpoint or a lattice point; some triples on top."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    lattice = st.lists(st.integers(1, 3).map(float), min_size=dim, max_size=dim)
    names = [f"f{i}" for i in range(n)]
    table = {(f,): draw(lattice) for f in names}
    for pair in itertools.combinations(names, 2):
        if draw(st.booleans()):
            a, b = (np.array(table[(f,)]) for f in pair)
            table[pair] = draw(st.sampled_from([a, b, (a + b) / 2, np.array(draw(lattice))])).tolist()
    for triple in itertools.combinations(names, 3):
        if draw(st.integers(0, 3)) == 0:
            table[triple] = draw(lattice)
    return DatasetSource(dim, dict(draw(st.permutations(list(table.items())))))  # any insertion order


_SOURCE_PATHS = ("given", "loaded", "timed", "perturbed", "normalised")


def _pair_source_as(src, how):
    """``src`` itself, read back by either loader path, or derived from it."""
    if how in ("loaded", "timed"):
        doc = fileio.dataset_to_json(src, kind="generic" if how == "loaded" else "timed")
        return fileio.load_dataset(io.StringIO(json.dumps(doc))).source
    if how == "perturbed":
        return perturb(src, 0.25, 3)
    if how == "normalised":
        return social._normalized_source(src, np.ones(src.dimension), DEFAULT_TOL)
    return src


def _assert_pair_table(src, tol=DEFAULT_TOL):
    got, want = model._pair_table(src, tol), reference_pair_table(src, tol)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


_NO_PAIRS = DatasetSource(2, {"a": [1.0, 1.0], "b": [2.0, 1.0], "c": [1.0, 3.0], ("a", "b", "c"): [1.0, 2.0]})
_PAIR_GAP = DatasetSource(
    2, {"a": [1.0, 1.0], "b": [2.0, 1.0], "c": [1.0, 3.0], "d": [2.0, 1.0], ("a", "b"): [2.0, 1.0], ("b", "d"): [2.0, 1.0],
        ("a", "c"): [1.0, 2.0], ("c", "d"): [1.5, 2.0], ("a", "b", "c"): [1.0, 2.0]}
)


class TestPairTableMatchesPerPairLookup:
    @settings(max_examples=150, deadline=None)
    @example(DatasetSource(1, {"a": [1.0]}), "timed")  # no pairs
    @example(_NO_PAIRS, "given")
    @example(_NO_PAIRS, "normalised")
    @example(_PAIR_GAP, "perturbed")
    @example(_PAIR_GAP, "loaded")
    @example(gen_dataset(_rep(71, 5), SubsetPolicy.PAIRS_AND_TRIPLES), "timed")
    @given(pair_sources(), st.sampled_from(_SOURCE_PATHS))
    def test_same_table(self, src, how):
        _assert_pair_table(_pair_source_as(src, how))

    def test_cps_source(self):
        rng = np.random.default_rng(73)
        names = ["a", "b", "c", "d"]
        rep = Representation(
            weights=dict(zip(names, rng.uniform(0.5, 2.0, 4).tolist())),
            ranks={"a": 1, "b": 1, "c": 0, "d": 0},
            outcomes={f: rng.dirichlet(np.ones(3)) for f in names},
        )
        _assert_pair_table(build_cps(rep).source)

    def test_equal_is_built_in_row_blocks(self):
        # 1,000 singletons: an n^2 x d copy of them alone would take 32 MB.
        rng = np.random.default_rng(79)
        src = DatasetSource(2, {f"x{i:04d}": p for i, p in enumerate(rng.integers(0, 9, (1000, 2)).tolist())})
        singles = src._points
        tracemalloc.start()
        try:
            equal, row, _ = model._pair_table(src, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 10**6
        assert row.dtype == np.int32
        whole = geometry._close_rows(np.repeat(singles, 1000, axis=0), np.tile(singles, (1000, 1)), DEFAULT_TOL)
        assert equal.tobytes() == whole.reshape(1000, 1000).tobytes()


def _assert_lookups(src):
    """``has`` and ``outcome`` against a frozenset-to-outcome dict: every
    stored set in an unsorted spelling, every absent subset of a stored
    size, and sets naming an id the source lacks."""
    table = dict(zip(src.sets(), src._points))
    for fs, point in table.items():
        spelled = sorted(fs, reverse=True)
        assert src.has(spelled) and src.outcome(spelled).tobytes() == point.tobytes()
    features = src.features()
    for size in {len(fs) for fs in table}:
        for members in itertools.combinations(features, size):
            if frozenset(members) not in table:
                assert not src.has(members)
                with pytest.raises(MissingDataError):
                    src.outcome(members)
    for members in (["zz"], ["zz", features[0]], [*features, "zz"], [features[-1] + "z"]):
        assert not src.has(members)
        with pytest.raises(MissingDataError):
            src.outcome(members)


class TestLookupMatchesSetDict:
    @settings(max_examples=150, deadline=None)
    @example(DatasetSource(1, {"a": [1.0]}), "timed")
    @example(_NO_PAIRS, "normalised")
    @example(_PAIR_GAP, "perturbed")
    @example(gen_dataset(_rep(71, 5), SubsetPolicy.PAIRS_AND_TRIPLES), "loaded")
    @given(pair_sources(), st.sampled_from(_SOURCE_PATHS))
    def test_same_outcomes(self, src, how):
        _assert_lookups(_pair_source_as(src, how))


def reference_numerical_rank(svals, tol):
    """Singular values above ``rel_tol`` times the largest, with ``abs_tol`` as floor."""
    if svals.size == 0:
        return 0
    thresh = max(tol.abs_tol, tol.rel_tol * float(svals[0]))
    return int(np.count_nonzero(svals > thresh))


@st.composite
def singular_value_stacks(draw):
    """A tolerance and a ``(k, r)`` stack of descending rows whose values sit
    at, just around and far from each row's threshold."""
    tol = draw(st.sampled_from([DEFAULT_TOL, Tolerance(1e-3, 1e-6), Tolerance(0.0, 1e-9), Tolerance(1e-9, 0.0)]))
    k, r = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    rows = []
    for _ in range(k):
        top = draw(st.sampled_from([0.0, 5e-324, 1e-9, 1e-6, 1.0, 3e3, 1e300]) | st.floats(0.0, 1e6))
        thresh = max(tol.abs_tol, tol.rel_tol * top)
        at = st.sampled_from([0.0, thresh, np.nextafter(thresh, 0.0), np.nextafter(thresh, np.inf)])
        rest = draw(st.lists(at | st.floats(0.0, 1.0).map(lambda x: x * top), min_size=max(r - 1, 0), max_size=max(r - 1, 0)))
        rows.append([top, *sorted((min(x, top) for x in rest), reverse=True)][:r])
    return tol, np.array(rows, dtype=float).reshape(k, r)


class TestNumericalRanksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(singular_value_stacks())
    def test_same_ranks(self, case):
        tol, stack = case
        want = [reference_numerical_rank(row, tol) for row in stack]
        assert _numerical_ranks(stack, tol).tolist() == want
        assert [int(_numerical_ranks(row, tol)) for row in stack] == want

    def test_svd_of_menus(self):
        # Centred menus of rank 0 to 3, some of them exactly collinear.
        rng = np.random.default_rng(5)
        menus = rng.normal(size=(200, 4, 3)) * rng.choice([1e-12, 1.0, 1e9], size=(200, 1, 1))
        menus[:50, :, 1:] = 0.0
        menus[50:60] = menus[50:60, :1]
        svals = np.linalg.svd(menus - menus.mean(axis=1, keepdims=True), compute_uv=False)
        assert _numerical_ranks(svals, DEFAULT_TOL).tolist() == [reference_numerical_rank(row, DEFAULT_TOL) for row in svals]
        assert set(_numerical_ranks(svals, DEFAULT_TOL).tolist()) >= {0, 1, 3}


# --------------------------------------------------------------------------
# Validate once, index once: the canonical-input index, rule (3) in padded
# runs, the internal representation and the batched belief checks


def _doc(name):
    """A generated dataset file in canonical order, as ``aggkit gen`` writes it."""
    flags = {
        "all-subsets": ("--seed", "7", "--features", "6", "--subsets", "all"),
        "pairs-triples": ("--seed", "3", "--features", "9", "--dimension", "3", "--classes", "3",
                          "--subsets", "pairs-triples"),
        "beliefs": ("--seed", "7", "--features", "7", "--classes", "2", "--dimension", "3",
                    "--policy", "simplex-beliefs", "--subsets", "all"),
        "menu": ("--seed", "7", "--features", "6", "--classes", "2", "--kind", "menu"),
    }[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gen", *flags]) == 0
    return json.loads(out.getvalue())["result"]["dataset"]


def _reordered(doc, order, seed=0):
    """``doc`` with its set records and each record's members reversed or shuffled."""
    doc = json.loads(json.dumps(doc))
    rng = np.random.default_rng(seed)
    sets = doc["sets"]
    for record in sets:
        members = record["members"]
        record["members"] = members[::-1] if order == "reversed" else rng.permutation(members).tolist()
    doc["sets"] = sets[::-1] if order == "reversed" else [sets[i] for i in rng.permutation(len(sets))]
    return doc


def _load_doc(doc):
    return fileio.load_dataset(io.StringIO(json.dumps(doc))).source


def _assert_same_source(got, want):
    """Members, flat index, blocks and points, bit for bit, all read-only."""
    assert got._features == want._features and got._members == want._members
    for column in ("_codes", "_sizes"):
        mine, theirs = getattr(got, column), getattr(want, column)
        assert mine.dtype == theirs.dtype == np.intp and mine.tolist() == theirs.tolist()
        assert not mine.flags.writeable
    assert [(k, first, block.tolist()) for k, (first, block) in got._blocks.items()] == [
        (k, first, block.tolist()) for k, (first, block) in want._blocks.items()]
    assert all(not block.flags.writeable for _, block in got._blocks.values())
    assert got._points.tobytes() == want._points.tobytes() and not got._points.flags.writeable


def _columns(src):
    """A source's own index as the unchecked columns of ``_from_columns``."""
    return src._codes.copy(), src._sizes.copy(), np.cumsum(src._sizes) - src._sizes


def reference_canonical(rows):
    """The canonical order by its definition: each row's codes strictly rise,
    and the rows are sorted by size, then lexicographically, with no repeat."""
    keys = [(len(r), tuple(r)) for r in rows]
    return all(list(r) == sorted(set(r)) for r in rows) and keys == sorted(set(keys))


@st.composite
def code_rows(draw):
    """Rows of codes of any length, near-canonical ones most often: sorted
    rows and tables, with a repeated code, a repeated row or a swap drawn in."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=1, max_size=14))
    if draw(st.booleans()):
        rows = [sorted(set(r)) for r in rows]
        rows = [list(k) for k in sorted({tuple(r) for r in rows}, key=lambda r: (len(r), r))]
        edit = draw(st.sampled_from(["none", "repeat row", "swap rows", "repeat code", "swap codes"]))
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "repeat row":
            rows.insert(i, list(rows[i]))
        elif edit == "swap rows" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif edit == "repeat code":
            rows[i] = sorted(rows[i] + rows[i][:1])
        elif edit == "swap codes" and len(rows[i]) > 1:
            rows[i][0], rows[i][1] = rows[i][1], rows[i][0]
    return rows


class TestCanonicalIndexMatchesSortedIndex:
    @settings(max_examples=400, deadline=None)
    @given(code_rows())
    def test_canonical_is_the_definition(self, rows):
        lengths = np.array([len(r) for r in rows], dtype=np.intp)
        codes = np.array([c for r in rows for c in r], dtype=np.intp)
        assert model._canonical(codes, lengths, np.cumsum(lengths) - lengths) == reference_canonical(rows)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("name", ["all-subsets", "pairs-triples", "beliefs", "menu"])
    def test_reordered_records_give_the_same_source(self, name, order):
        doc = _doc(name)
        want, got = _load_doc(doc), _load_doc(_reordered(doc, order))
        _assert_same_source(got, want)
        assert model._canonical(*_columns(want))
        table = {f: entry["outcome"] for f, entry in doc["features"].items()}
        table.update((tuple(r["members"]), r["outcome"]) for r in _reordered(doc, order, seed=1)["sets"])
        _assert_same_source(DatasetSource(want.dimension, table), want)

    @pytest.mark.parametrize("name", ["all-subsets", "pairs-triples", "beliefs", "menu"])
    def test_the_sort_path_builds_the_same_index(self, name, monkeypatch):
        doc = _doc(name)
        want = _load_doc(doc)
        calls, real = [], model._canonical

        def first_refused(*columns):  # the columns as given are refused, the sorted ones tested
            calls.append(real(*columns))
            return len(calls) > 1 and calls[-1]

        monkeypatch.setattr(model, "_canonical", first_refused)
        _assert_same_source(_load_doc(doc), want)
        assert calls == [True, True]

    def test_every_subset_block_is_canonical(self):
        features = tuple("abcdefg")
        blocks = model._every_subset(len(features))
        src = model._block_source(features, blocks, np.ones((2 ** len(features) - 1, 2)))
        assert model._canonical(*_columns(src))
        assert src._members == tuple(c for k in range(1, 8) for c in itertools.combinations(features, k))


def per_size_top_means(weights, points, blocks, ranks):
    """Rule (3) one set size at a time, each block's columns added in turn."""
    points, ranks = np.asarray(points, dtype=float), np.asarray(ranks)
    weights = np.asarray(weights, dtype=float)[:, None]
    terms = np.hstack([weights * points, weights])
    sums = np.zeros((sum(len(block) for _, block in blocks.values()), terms.shape[1]))
    for first, block in blocks.values():
        acc, level = sums[first : first + len(block)], ranks[block]
        top = level == level.max(axis=1, keepdims=True)
        for codes, use in zip(block.T, top.T):
            np.add(acc, terms[codes], out=acc, where=use[:, None])
    return sums[:, :-1] / sums[:, -1:]


@st.composite
def mixed_kernel_cases(draw):
    """Up to 16 features with tied ranks, many small sets and a few large."""
    n = draw(st.integers(2, 16))
    d = draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    ranks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    points = draw(st.lists(st.lists(_KERNEL_CELLS, min_size=d, max_size=d), min_size=n, max_size=n))
    small = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 3), unique=True)
    large = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    sets = draw(st.lists(small, min_size=1, max_size=30)) + draw(st.lists(large, max_size=3))
    return np.array(weights), np.array(ranks), np.array(points, dtype=float), [tuple(sorted(s)) for s in sets]


def _runs():
    """Record the blocks ``_padded`` hands ``_top_means``: (rows, width, members)."""
    seen, real = [], model._padded

    def recorded(*args, **kwargs):
        for lo, hi, block, present in real(*args, **kwargs):
            seen.append((hi - lo, block.shape[1], int(present.sum())))
            yield lo, hi, block, present

    return seen, recorded


class TestPaddedRuleThreeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(mixed_kernel_cases(), st.sampled_from([None, 1, 5, 40]))
    def test_same_bits_across_mixed_sizes(self, case, slots):
        weights, ranks, points, sets = case
        blocks, rows = _code_blocks(sets)
        want = reference_top_mean(weights, points, reference_membership({j: j for j in range(len(points))}, rows), ranks)
        budget = model._PAD_CELLS if slots is None else slots * (points.shape[1] + 1)
        with mock.patch.object(model, "_PAD_CELLS", budget):
            got = model._top_means(weights, points, blocks, ranks)
        assert _bits(got) == _bits(want)
        assert _bits(per_size_top_means(weights, points, blocks, ranks)) == _bits(want)

    @pytest.mark.parametrize("slots", [1, 7, 64])
    def test_runs_cut_small_match_one_pass(self, kernel_rep, slots, monkeypatch):
        src = induced_source(kernel_rep, _kernel_sets(kernel_rep))
        one_pass = kernel_rep._evaluate_blocks(src._blocks)
        seen, recorded = _runs()
        monkeypatch.setattr(model, "_padded", recorded)
        monkeypatch.setattr(model, "_PAD_CELLS", slots * (src.dimension + 1))
        assert _bits(kernel_rep._evaluate_blocks(src._blocks)) == _bits(one_pass)
        assert len(seen) > 1 and all(rows * width <= slots or rows == 1 for rows, width, _ in seen)
        assert sum(rows for rows, _, _ in seen) == len(src)

    def test_a_rare_large_set_pads_no_small_one(self, monkeypatch):
        # Singletons, pairs and the whole set of 16: one dense run for the
        # singletons and pairs, at most half padding, and one for the whole.
        src = _pairs_and_whole(55, features=16)
        seen, recorded = _runs()
        monkeypatch.setattr(model, "_padded", recorded)
        recovery = recover(src)
        assert isinstance(recovery, Recovered)
        assert [(rows, width) for rows, width, _ in seen] == [(16 + 120, 2), (1, 16)]
        assert all(2 * members >= rows * width for rows, width, members in seen)

    def test_traced_peak_of_pairs_and_one_large_set(self):
        # All pairs of 300 features and the whole set: no run pads the pairs
        # out to 300 members, and the runs stay within the cell budget, so
        # the pass holds no more at its peak than one pass per size.
        src = _pairs_and_whole(56, features=300)
        rep = recover(src).representation
        args = rep._weight_array, rep._outcome_array, src._blocks, rep._rank_array

        def peak(kernel):
            tracemalloc.start()
            try:
                result = kernel(*args)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (got, ours), (want, theirs) = peak(model._top_means), peak(per_size_top_means)
        assert _bits(got) == _bits(want)
        assert ours <= theirs, (ours, theirs)


def _public(rep):
    """``rep`` rebuilt through the validating constructor."""
    return Representation(weights=dict(rep.weights), ranks=dict(rep.ranks), outcomes=dict(rep.outcomes))


def _assert_same_representation(got, want):
    assert list(got.weights.items()) == list(want.weights.items())
    assert _bits(list(got.weights.values())) == _bits(list(want.weights.values()))
    assert dict(got.ranks) == dict(want.ranks) and list(got.ranks) == list(want.ranks)
    assert list(got.outcomes) == list(want.outcomes)
    assert all(got.outcomes[f].tobytes() == want.outcomes[f].tobytes() for f in want.outcomes)
    assert all(not got.outcomes[f].flags.writeable for f in got.outcomes)
    assert got._column == want._column
    for field in ("_weight_array", "_rank_array", "_outcome_array"):
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestInternalRepresentationMatchesConstructor:
    @pytest.mark.parametrize("name", sorted(KERNEL_REPS))
    def test_recovered(self, name):
        rep = KERNEL_REPS[name]()
        outcome = recover(induced_source(rep, _kernel_sets(rep)))
        assert isinstance(outcome, Recovered)
        _assert_same_representation(outcome.representation, _public(outcome.representation))

    @pytest.mark.parametrize("seed", range(6))
    def test_anchor_is_not_the_smallest_member(self, seed):
        # Classes interleave in sorted order and no class's smallest member
        # weighs one: both constructors rescale at that member.
        rng = np.random.default_rng(seed)
        features = tuple(f"f{i}" for i in range(7))
        weights = dict(zip(features, rng.uniform(0.1, 10.0, 7).tolist()))
        ranks = dict(zip(features, [2, 0, 1, 0, 2, 1, 0]))
        points = rng.normal(size=(7, 3))
        points.setflags(write=False)
        got = Representation._of_arrays(features, weights, ranks, points)
        want = Representation(weights=weights, ranks=ranks, outcomes=dict(zip(features, points)))
        _assert_same_representation(got, want)
        assert [got.weights[f] for f in ("f0", "f1", "f2")] == [1.0, 1.0, 1.0]
        assert got.weights["f3"] == weights["f3"] / weights["f1"]


def _bad_belief(rep, feature, how):
    """``rep`` with the belief of ``feature`` made faulty."""
    outcomes = dict(rep.outcomes)
    belief_ = np.array(outcomes[feature])
    if how == "negative":
        belief_[0] -= 0.2
        belief_[1] += 0.2
    else:
        belief_ *= 1.1
    outcomes[feature] = belief_
    return Representation(weights=rep.weights, ranks=rep.ranks, outcomes=outcomes)


def _nearly_beliefs(rep, seed):
    """``rep`` with every belief moved within the gate: entries slightly
    below zero and totals slightly off one, which as_belief corrects."""
    rng = np.random.default_rng(seed)
    outcomes = {}
    for f, p in rep.outcomes.items():
        p = np.array(p) * (1.0 + rng.uniform(-5e-11, 5e-11))
        i, j = rng.choice(p.size, 2, replace=False)
        p[j], p[i] = p[j] + p[i], -rng.uniform(0.0, 5e-11)
        outcomes[f] = p
    return Representation(weights=rep.weights, ranks=rep.ranks, outcomes=outcomes)


class TestBatchedBeliefChecksMatchPerFeatureLoop:
    @staticmethod
    def _loop_error(rep):
        with pytest.raises(NotABelief) as err:
            [as_belief(rep.outcomes[f]) for f in rep.features()]
        return str(err.value)

    @pytest.mark.parametrize("how", ["negative", "total"])
    @pytest.mark.parametrize("faulty", [("f0",), ("f3",), ("f5", "f2")])
    def test_same_error(self, faulty, how):
        rep = BELIEF_REPS["two-tiers"]()
        rep = Representation(weights={f"f{i}": w for i, w in enumerate(rep.weights.values())},
                             ranks={f"f{i}": r for i, r in enumerate(rep.ranks.values())},
                             outcomes={f"f{i}": p for i, p in enumerate(rep.outcomes.values())})
        for feature in faulty:
            rep = _bad_belief(rep, feature, how)
        want = self._loop_error(rep)
        for build in (build_cps, build_joint):
            if build is build_joint:
                rep = Representation(weights=rep.weights, ranks=dict.fromkeys(rep.ranks, 0), outcomes=rep.outcomes)
            with pytest.raises(NotABelief) as err:
                build(rep)
            assert str(err.value) == want

    @pytest.mark.parametrize("states", [3, 8, 16])
    def test_same_renormalised_beliefs(self, states):
        rep = _nearly_beliefs(_rep(68 + states, 6, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=states), seed=states)
        want = np.vstack([as_belief(rep.outcomes[f]) for f in rep.features()])
        got = belief._beliefs(rep._outcome_array, DEFAULT_TOL)
        assert _bits(got) == _bits(want)
        assert _bits(build_joint(rep).table) == _bits(reference_build_joint(rep)[1])
