"""Fast checks against their exhaustive references.

``reference_check_axiom`` enumerates every bipartition of every stored
union and looks both parts up through the public, validating lookups;
``reference_strong_richness`` recomputes every pair answer and runs the
collinearity test for every candidate.  Both are the straightforward
definitions the main code must reproduce exactly: same checks in the
same order, same witnesses, same blocked pairs, same oracle queries.

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
"""

import itertools
import time

import numpy as np
import pytest

from aggkit import (
    AxiomMode,
    ConditionalProbabilitySystem,
    DatasetSource,
    GeneratorConfig,
    NonRepresentable,
    OracleSource,
    OutcomePolicy,
    Recovered,
    Representation,
    SubsetPolicy,
    TimedQuery,
    VerificationRow,
    affine_dimension,
    aggregate_coalition,
    as_belief,
    barycentric,
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
from aggkit import recovery
from aggkit.belief import ChainViolation, CpsReport
from aggkit.errors import (
    AffinelyDependentBasis,
    MissingDataError,
    NotInAffineHull,
    NotInConvexHull,
)
from aggkit.geometry import (
    DEFAULT_TOL,
    SegmentKind,
    Tolerance,
    segment_coefficient,
)
from aggkit.model import (
    AxiomCheck,
    StrongRichnessEntry,
    StrongRichnessReport,
    _judge_pair,
    set_sort_key,
)


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
            pos = segment_coefficient(f_union, f_a, f_b, tol)
            degenerate = pos.kind is SegmentKind.DEGENERATE
            equal = tol.close(f_union, f_a) if degenerate else None
            passed, reason = _judge_pair(pos, mode, tol, equal)
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
        entries.append(
            StrongRichnessEntry(
                feature=x,
                witness=witness,
                blocked_by=tuple(sorted(blocked)) if witness is None else (),
            )
        )
    if all_blocked:
        raise MissingDataError(sorted(all_blocked))
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

    @pytest.mark.parametrize("seed,classes", [(22, 1), (23, 2), (24, 3)])
    def test_oracle_queries_in_the_same_order(self, seed, classes):
        rep = _rep(seed, 9, classes=classes)

        def oracle():
            return OracleSource(rep.dimension, lambda fs: evaluate(rep, fs), rep.features())

        ours, theirs = oracle(), oracle()
        assert check_strong_richness(ours) == reference_strong_richness(theirs)
        assert ours.query_log == theirs.query_log
        assert ours.query_log


def _wide_union_among_singletons(size):
    names = [f"f{i:02d}" for i in range(size)]
    table = {frozenset([f]): [float(i), float(i * i)] for i, f in enumerate(names)}
    table[frozenset(names)] = [1.0, 2.0]
    return DatasetSource(2, table)


class _CountingIndex(dict):
    """Mask-to-row index that counts membership tests."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


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

    def test_walk_takes_the_shorter_candidate_list(self):
        src = _wide_union_among_singletons(22)
        index = _CountingIndex(src._mask_row)
        src._mask_row = index
        assert check_axiom(src).checks == ()
        # The smallest member's singleton is the only candidate part.
        assert index.tests == 1


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


# --------------------------------------------------------------------------
# conditional probability systems


def reference_verify_cps(cps, tol=DEFAULT_TOL):
    """Every pair of stored conditioning sets, cell by cell."""
    g = tol.gate(1.0)
    for fs in sorted(cps.conditionals, key=set_sort_key):
        joint = cps.conditionals[fs]
        if abs(joint.total() - 1.0) > g:
            raise ValueError(f"conditional on {sorted(fs)} is not normalized")
        off = joint.feature_marginal(cps.features) - joint.feature_marginal(fs)
        if abs(off) > g:
            raise ValueError(f"conditional on {sorted(fs)} has mass outside its set")
    stored = sorted(cps.conditionals, key=set_sort_key)
    violations = []
    worst = 0.0
    checked = 0
    for a, b in itertools.combinations(stored, 2):
        if a & b or (a | b) not in cps.conditionals:
            continue
        checked += 1
        j_u, j_a, j_b = (cps.conditionals[x] for x in (a | b, a, b))
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


def _tilted(cps, seed, share=0.3):
    """Mix a seeded share of conditionals with a member's own conditional.

    The mixture keeps normalization and support, so only the chain rule
    can fail.
    """
    rng = np.random.default_rng(seed)
    conditionals = dict(cps.conditionals)
    for fs in sorted(conditionals, key=set_sort_key):
        if len(fs) > 1 and rng.random() < share:
            single = conditionals[frozenset([min(fs)])]
            mixed = 0.7 * conditionals[fs].table + 0.3 * single.table
            conditionals[fs] = type(single)(features=single.features, table=mixed)
    return ConditionalProbabilitySystem(cps.features, cps.num_states, conditionals)


def _sparse(cps, seed, keep=0.5):
    """Keep the singletons and a seeded share of the larger conditioning sets."""
    rng = np.random.default_rng(seed)
    conditionals = {
        fs: joint
        for fs, joint in sorted(cps.conditionals.items(), key=lambda kv: set_sort_key(kv[0]))
        if len(fs) == 1 or rng.random() < keep
    }
    return ConditionalProbabilitySystem(cps.features, cps.num_states, conditionals)


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

    def test_references_find_violations(self):
        assert verify_cps(CPS_CASES["tilted"]()).violations
        assert verify_cps(CPS_CASES["sparse-tilted"]()).violations
        assert verify_cps(CPS_CASES["two-tier"]()).satisfied

    @pytest.mark.parametrize("defect", ["unnormalized", "mass-outside"])
    def test_same_rejection_of_malformed_conditionals(self, defect):
        cps = _cps(47, 4, 2)
        conditionals = dict(cps.conditionals)
        fs = frozenset(["x00", "x01"])
        table = np.array(conditionals[fs].table)
        if defect == "unnormalized":
            table = 2.0 * table
        else:
            outside = np.array(conditionals[frozenset(["x02"])].table)
            table = 0.5 * table + 0.5 * outside
        conditionals[fs] = type(conditionals[fs])(features=cps.features, table=table)
        broken = ConditionalProbabilitySystem(cps.features, cps.num_states, conditionals)
        with pytest.raises(ValueError) as ours:
            verify_cps(broken)
        with pytest.raises(ValueError) as theirs:
            reference_verify_cps(broken)
        assert str(ours.value) == str(theirs.value)


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
        assert _row_bits(got) == _row_bits(want)
        outcome = recover(src)
        if noise:
            assert isinstance(outcome, NonRepresentable)
            assert outcome.failing_sets == tuple(r.members for r in want if not r.passed)
            assert _bits(outcome.max_residual) == _bits(max(r.residual for r in want))
        else:
            assert isinstance(outcome, Recovered)
            assert outcome.verification == got

    def test_recover_verification_on_an_oracle(self):
        rep = KERNEL_REPS["two-tiers"]()
        src = OracleSource(rep.dimension, lambda fs: evaluate(rep, fs), rep.features())
        outcome = recover(src)
        assert isinstance(outcome, Recovered)
        want = reference_verification(src, outcome.representation)
        assert _row_bits(outcome.verification) == _row_bits(want)

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
        assert list(cps.conditionals) == list(want)
        for fs, table in want.items():
            assert _bits(cps.conditionals[fs].table) == _bits(table)

    @pytest.mark.parametrize("seed,states", [(65, 3), (66, 4), (67, 6)])
    def test_build_joint(self, seed, states):
        rep = _rep(seed, 7, policy=OutcomePolicy.SIMPLEX_BELIEFS, dimension=states)
        joint = build_joint(rep)
        features, table = reference_build_joint(rep)
        assert joint.features == features
        assert _bits(joint.table) == _bits(table)
