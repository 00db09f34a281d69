"""Metamorphic properties of the axiom check and the hull and Bayes readings.

Hull membership and relative interiority are affine notions, so moving
or uniformly scaling a menu together with its point, or listing the
menu's alternatives in another order, must leave both verdicts alone.
The Bayes residual is a worst case over state events, so renaming the
states must leave it alone too.  Menus are drawn on an integer lattice:
every test point then sits either exactly on a face of its hull or a
lattice distance away from it, never within a tolerance of a threshold.

The averaging axiom speaks of sets and segments, not of names, file
order or origin: relabelling the features (in an order-preserving way,
or by any permutation of their names, which may swap a split's parts),
listing the set records of the input file in another order, or moving
every outcome by one integer vector must leave every split's verdict
alone.  The datasets are drawn on a lattice of halves for the same
reason as the menus.

A certificate of interiority (the coefficients recovered for a menu)
is a shortcut past the hull search, so it may only ever accept what the
search accepts.  Its draws sit on purpose at the thresholds the lattice
menus avoid: the smallest coefficient just above or below the
strictness level, the point off its menu's span by about the hull gate.

Recovery speaks of the same things: the same relabelling, set order
and a round trip through the dataset file format must leave its
status, ranks and weight bits alone, and the data a recovered
representation induces on the same sets must recover to it again.

Strong richness reads every pair through the endpoint gate that
``recover_order`` uses, in one pass; it must give the report (or the
required sets) of ``reference_strong_richness``, which decides one pair
at a time.  Its draws put pairs at the gate's edge too: missing, at an
endpoint, inside the segment, or moved off an endpoint by the gate
times 1 +- 1e-3, among lattice singletons with many collinear triples.
Every feature's first candidate triple is tested in one stacked call;
the report must be that of ``reference_strong_richness_loop``, which
tests one triple at a time, also on singletons moved off a line by
about the collinearity threshold and under tolerances where either the
absolute floor or the relative share decides.
"""

import io
import itertools
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggkit import (
    AxiomMode,
    DatasetSource,
    GeneratorConfig,
    OutcomePolicy,
    Recovered,
    Representation,
    SubsetPolicy,
    check_axiom,
    check_bayesian,
    check_strong_richness,
    dataset_to_json,
    load_dataset,
    convex_coefficients,
    gen_dataset,
    gen_representation,
    induced_source,
    perturb,
    recover,
    relative_interior_check,
)
from aggkit.errors import NotInConvexHull
from aggkit.geometry import DEFAULT_TOL, Tolerance, _certify_interior, _interior_terms
from test_reference_oracles import (
    _strong_richness_or_missing,
    reference_strong_richness,
    reference_strong_richness_loop,
)

SETTINGS = settings(max_examples=60, deadline=None)


def verdicts(p, gens):
    """(hull membership, relative-interior verdict) of ``p`` over ``gens``."""
    member = convex_coefficients(p, gens) is not None
    try:
        interior = relative_interior_check(p, gens)
    except NotInConvexHull:
        interior = None
    return member, interior


@st.composite
def menus_with_points(draw):
    """Lattice generators plus a vertex, midpoint, centroid, mixture or far point."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    coord = st.integers(-4, 4)
    gens = [
        np.array(draw(st.lists(coord, min_size=d, max_size=d)), dtype=float)
        for _ in range(m)
    ]
    kind = draw(st.sampled_from(["vertex", "midpoint", "centroid", "mixture", "far"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if kind == "vertex":
        p = gens[i].copy()
    elif kind == "midpoint":
        p = 0.5 * (gens[i] + gens[j])
    elif kind == "centroid":
        p = np.mean(gens, axis=0)
    elif kind == "mixture":
        coef = np.array(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)), float)
        p = np.vstack(gens).T @ (coef / coef.sum())
    else:
        p = np.mean(gens, axis=0)
        p[draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1.0, 1.0])) * 10.0
    return p, gens


@SETTINGS
@given(
    menus_with_points(),
    st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    st.floats(1e-2, 1e2),
)
# A short segment far from the origin: its endpoint stays on the boundary.
@example(
    case=(np.zeros(3), [np.zeros(3), np.array([0.0, 0.0, 1.0])]),
    shift=[0.0, 0.0, 32.0],
    factor=0.03125,
)
def test_translation_and_scaling_keep_hull_verdicts(case, shift, factor):
    p, gens = case
    t = np.array(shift[: p.size])
    moved = [factor * g + t for g in gens]
    assert verdicts(factor * p + t, moved) == verdicts(p, gens)


@SETTINGS
@given(menus_with_points(), st.randoms(use_true_random=False))
def test_generator_order_keeps_hull_verdicts(case, rnd):
    p, gens = case
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert verdicts(p, shuffled) == verdicts(p, gens)


@st.composite
def certified_menus(draw):
    """A lattice menu of two to five alternatives (in general position,
    on one line or with a duplicate), a tolerance, and coefficients whose
    smallest entry is the strictness level t moved by a relative step
    either way, with the point they rebuild moved off it in a lattice
    direction by a multiple of the hull gate.

    At ``abs_tol = rel_tol = 1e-3`` the level hits its 1/(2m) cap.
    """
    tol = draw(st.sampled_from([Tolerance(), Tolerance(1e-6, 1e-6), Tolerance(1e-3, 1e-3)]))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5))
    vector = st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(
        lambda xs: np.array(xs, dtype=float)
    )
    shape = draw(st.sampled_from(["general", "collinear", "duplicate"]))
    if shape == "collinear":
        base, step = draw(vector), draw(vector)
        steps = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        gens = [base + k * step for k in steps]
    else:
        gens = [draw(vector) for _ in range(m)]
        if shape == "duplicate":
            gens[draw(st.integers(1, m - 1))] = gens[0].copy()
    _, level, _ = _interior_terms(m, 0.0, tol)
    share = np.array([0, *draw(st.lists(st.integers(1, 9), min_size=m - 1, max_size=m - 1))])
    coef = level + (1.0 - m * level) * share / share.sum()
    step = draw(st.sampled_from([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]))
    coef[int(np.argmax(coef))] -= level * step
    coef[0] += level * step
    p = np.vstack(gens).T @ coef
    direction = draw(vector)
    if direction.any():
        centroid = np.mean(gens, axis=0)
        spread = max(np.linalg.norm(g - centroid) for g in [p, *gens])
        gates = draw(st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0]))
        offset = gates * tol.gate(spread, 1.0)
        p = p + offset * direction / np.linalg.norm(direction)
    return p, gens, coef, tol


@settings(max_examples=300, deadline=None)
@given(certified_menus())
# The capped level 1/(2m) on two alternatives, met exactly: the stretched
# point is a vertex.
@example(
    case=(
        np.array([0.75]),
        [np.array([0.0]), np.array([1.0])],
        np.array([0.25, 0.75]),
        Tolerance(1e-3, 1e-3),
    )
)
# Collinear with a duplicate, off the line by the whole hull gate: the
# coefficients rebuild the point at exactly the gate, the search's fit
# one rounding step beyond it.
@example(
    case=(
        np.array([1.5000015, 2e-9]),
        [np.array([3.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 0.0])],
        np.array([1e-6, 0.4999995, 0.4999995]),
        Tolerance(),
    )
)
def test_accepted_certificate_means_the_search_finds_the_interior(case):
    p, gens, coef, tol = case
    if _certify_interior(p[None], np.vstack(gens)[None], coef[None], tol)[0]:
        assert relative_interior_check(p, gens, tol)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(3, 6),
    st.sampled_from([0.0, 1e-6, 3e-5]),
    st.randoms(use_true_random=False),
)
def test_state_permutation_keeps_bayes_residual(seed, states, noise, rnd):
    rep = gen_representation(
        GeneratorConfig(
            seed=seed,
            feature_count=4,
            dimension=states,
            outcome_policy=OutcomePolicy.SIMPLEX_BELIEFS,
        )
    )
    src = gen_dataset(rep)
    if noise:
        src = perturb(src, noise, seed=seed)
    order = list(range(states))
    rnd.shuffle(order)
    permuted = DatasetSource(states, {s: src.outcome(s)[order] for s in src.sets()})
    tol = Tolerance(1e-4, 1e-4) if noise else Tolerance()
    before = check_bayesian(src, tol)
    after = check_bayesian(permuted, tol)
    assert after.consistent == before.consistent
    assert (after.joint is None) == (before.joint is None)
    if before.joint is not None:
        assert abs(after.max_residual - before.max_residual) <= 1e-12


@st.composite
def lattice_datasets(draw):
    """Integer singletons; each union of two to four features, stored or not,
    holds a mixture of one of its stored splits with a coefficient in halves
    (inside, at the ends of or beyond [0, 1]), or an integer point.

    Every outcome is exact in floating point, and every union sits on the
    line of each split exactly or a lattice distance off it.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(
        lambda xs: np.array(xs, dtype=float)
    )
    names = [f"x{i}" for i in range(n)]
    table = {(f,): draw(point) for f in names}
    for size in range(2, n + 1):
        for combo in itertools.combinations(names, size):
            if not draw(st.booleans()):
                continue
            cut = draw(st.integers(1, size - 1))
            part_a, part_b = combo[:cut], combo[cut:]
            if part_a in table and part_b in table and draw(st.booleans()):
                lam = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
                table[combo] = lam * table[part_a] + (1.0 - lam) * table[part_b]
            else:
                table[combo] = draw(point)
    return DatasetSource(d, {frozenset(k): v for k, v in table.items()})


def split_verdicts(report):
    """(passed, degenerate) of every split, and the violation count."""
    return [(c.passed, c.degenerate) for c in report.checks], len(report.violations)


@SETTINGS
@given(
    lattice_datasets(),
    st.sampled_from(list(AxiomMode)),
    st.lists(st.integers(0, 999), min_size=4, max_size=4, unique=True),
)
def test_order_preserving_relabelling_keeps_axiom_verdicts(src, mode, labels):
    rename = dict(zip(src.features(), (f"f{k:03d}" for k in sorted(labels))))
    relabelled = DatasetSource(
        src.dimension, {frozenset(rename[f] for f in s): src.outcome(s) for s in src.sets()}
    )
    before = check_axiom(src, mode)
    after = check_axiom(relabelled, mode)
    assert split_verdicts(after) == split_verdicts(before)
    assert [c.union for c in after.checks] == [
        tuple(rename[f] for f in c.union) for c in before.checks
    ]


def keyed_verdicts(report, rename):
    """(passed, degenerate, reason) of every split, keyed by its renamed union
    and its unordered renamed parts: a renaming may swap which part is A."""

    def named(members):
        return frozenset(rename[f] for f in members)

    return {
        (named(c.union), frozenset({named(c.set_a), named(c.set_b)})): (c.passed, c.degenerate, c.reason)
        for c in report.checks
    }


@SETTINGS
@given(lattice_datasets(), st.sampled_from(list(AxiomMode)), st.randoms(use_true_random=False))
def test_any_relabelling_keeps_axiom_verdicts(src, mode, rnd):
    labels = list(src.features())
    rnd.shuffle(labels)
    rename = dict(zip(src.features(), labels))
    relabelled = DatasetSource(
        src.dimension, {frozenset(rename[f] for f in s): src.outcome(s) for s in src.sets()}
    )
    before = check_axiom(src, mode)
    after = check_axiom(relabelled, mode)
    expected = keyed_verdicts(before, rename)
    assert len(expected) == before.check_count == after.check_count
    assert keyed_verdicts(after, {f: f for f in labels}) == expected
    assert len(after.violations) == len(before.violations)


@SETTINGS
@given(lattice_datasets(), st.sampled_from(list(AxiomMode)), st.randoms(use_true_random=False))
def test_set_record_order_keeps_axiom_verdicts(src, mode, rnd):
    doc = dataset_to_json(src)
    rnd.shuffle(doc["sets"])
    shuffled = load_dataset(io.StringIO(json.dumps(doc))).source
    before = check_axiom(src, mode)
    after = check_axiom(shuffled, mode)
    assert split_verdicts(after) == split_verdicts(before)


@SETTINGS
@given(
    lattice_datasets(),
    st.sampled_from(list(AxiomMode)),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
)
def test_integer_translation_keeps_axiom_verdicts(src, mode, shift):
    t = np.array(shift[: src.dimension], dtype=float)
    moved = DatasetSource(src.dimension, {s: src.outcome(s) + t for s in src.sets()})
    before = check_axiom(src, mode)
    after = check_axiom(moved, mode)
    assert split_verdicts(after) == split_verdicts(before)


@st.composite
def recovery_sources(draw):
    """Generated pairs and triples, some outcomes shared between features,
    some sets dropped and some noise, or a lattice dataset: every
    recovery status, intransitive pairs included, shows up."""
    if draw(st.integers(0, 3)) == 0:
        return draw(lattice_datasets())
    n = draw(st.integers(3, 7))
    policy = draw(st.sampled_from([OutcomePolicy.RANDOM_RICH, OutcomePolicy.COLLINEAR]))
    most = n // 3 if policy is OutcomePolicy.RANDOM_RICH else 3
    rep = gen_representation(
        GeneratorConfig(
            seed=draw(st.integers(0, 10_000)),
            feature_count=n,
            rank_classes=draw(st.integers(1, most)),
            outcome_policy=policy,
        )
    )
    names = rep.features()
    outcomes = dict(rep.outcomes)
    for f in names:
        if draw(st.integers(0, 3)) == 0:
            outcomes[f] = outcomes[draw(st.sampled_from(names))]
    rep = Representation(weights=rep.weights, ranks=rep.ranks, outcomes=outcomes)
    src = gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)
    drop = draw(st.sets(st.sampled_from(src.sets()[n:]), max_size=2))
    src = DatasetSource(src.dimension, {s: src.outcome(s) for s in src.sets() if s not in drop})
    noise = draw(st.sampled_from([0.0, 0.0, 1e-3]))
    return perturb(src, noise, seed=n) if noise else src


def recovery_digest(outcome, rename=None):
    """Status, ranks and weight bits of a recovery, under ``rename``."""
    rename = rename or {}
    if not isinstance(outcome, Recovered):
        return type(outcome).__name__, None, None
    rep = outcome.representation
    return (
        "Recovered",
        {rename.get(f, f): r for f, r in rep.ranks.items()},
        [(rename.get(f, f), np.float64(w).tobytes()) for f, w in rep.weights.items()],
    )


@SETTINGS
@given(recovery_sources(), st.lists(st.integers(0, 999), min_size=7, max_size=7, unique=True))
def test_order_preserving_relabelling_keeps_recovery(src, labels):
    rename = dict(zip(src.features(), (f"f{k:03d}" for k in sorted(labels))))
    relabelled = DatasetSource(
        src.dimension, {frozenset(rename[f] for f in s): src.outcome(s) for s in src.sets()}
    )
    assert recovery_digest(recover(relabelled)) == recovery_digest(recover(src), rename)


@SETTINGS
@given(recovery_sources(), st.randoms(use_true_random=False))
def test_set_order_and_file_round_trip_keep_recovery(src, rnd):
    doc = dataset_to_json(src)
    round_trip = load_dataset(io.StringIO(json.dumps(doc))).source
    rnd.shuffle(doc["sets"])
    shuffled = load_dataset(io.StringIO(json.dumps(doc))).source
    want = recovery_digest(recover(src))
    assert recovery_digest(recover(round_trip)) == want
    assert recovery_digest(recover(shuffled)) == want


@SETTINGS
@given(recovery_sources())
def test_recovered_representation_is_a_fixed_point(src):
    first = recover(src)
    if not isinstance(first, Recovered):
        return
    rep = first.representation
    again = recover(induced_source(rep, src.sets()))
    assert isinstance(again, Recovered)
    assert again.representation.ranks == rep.ranks
    for f, w in rep.weights.items():
        assert abs(again.representation.weights[f] - w) <= 1e-9 * w


@st.composite
def richness_sources(draw):
    """Lattice singletons; each pair missing, at an endpoint, inside its
    segment, or off an endpoint by the endpoint gate x (1 +- 1e-3)."""
    n = draw(st.integers(3, 7))
    d = draw(st.integers(1, 3))
    coord = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    points = {f"f{i}": np.array(draw(coord), dtype=float) for i in range(n)}
    table = {frozenset([f]): p for f, p in points.items()}
    for x, y in itertools.combinations(points, 2):
        kind = draw(st.sampled_from(["missing", "endpoint", "inside", "near"]))
        a, b = draw(st.permutations([points[x], points[y]]))
        if kind == "endpoint":
            table[frozenset([x, y])] = a
        elif kind == "inside":
            lam = draw(st.sampled_from([0.25, 0.5, 0.75]))
            table[frozenset([x, y])] = lam * a + (1.0 - lam) * b
        elif kind == "near":
            step = np.zeros(d)
            step[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
            scale = DEFAULT_TOL.gate(float(np.linalg.norm(a))) * draw(
                st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3])
            )
            table[frozenset([x, y])] = a + scale * step
    return DatasetSource(d, table)


@settings(max_examples=200, deadline=None)
@given(richness_sources())
def test_strong_richness_matches_the_pairwise_reference(src):
    assert _strong_richness_or_missing(check_strong_richness, src) == (
        _strong_richness_or_missing(reference_strong_richness, src)
    )


@st.composite
def near_line_sources(draw):
    """Singletons on a line of length about 1 to 10, each moved off it by
    0 or 1e-12 to 1e-6 (where the collinearity threshold of 1e-9 times
    the largest singular value falls), every pair stored at its midpoint
    or, now and then, missing."""
    n = draw(st.integers(3, 8))
    d = draw(st.integers(2, 3))
    direction = np.array([1.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(d - 1)])
    normal = np.zeros(d)
    normal[1] = 1.0
    offsets = st.one_of(st.just(0.0), st.builds(lambda e: 10.0**e, st.floats(-12.0, -6.0)))
    points = {
        f"f{i}": draw(st.floats(-5.0, 5.0)) * direction + draw(offsets) * draw(st.sampled_from([-1.0, 1.0])) * normal
        for i in range(n)
    }
    table = {frozenset([f]): p for f, p in points.items()}
    for x, y in itertools.combinations(points, 2):
        if draw(st.integers(0, 9)):
            table[frozenset([x, y])] = 0.5 * (points[x] + points[y])
    return DatasetSource(d, table)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(richness_sources(), near_line_sources()),
    st.sampled_from([
        DEFAULT_TOL,
        Tolerance(abs_tol=1e-3, rel_tol=1e-3),
        Tolerance(abs_tol=0.5, rel_tol=1e-12),  # the absolute floor decides
        Tolerance(abs_tol=1e-12, rel_tol=0.2),  # the share of the largest singular value decides
    ]),
)
def test_stacked_first_candidates_match_the_loop(src, tol):
    # Same witnesses, same required sets, whether each feature's first
    # candidate is tested in the stack or one at a time.
    assert _strong_richness_or_missing(lambda s: check_strong_richness(s, tol), src) == (
        _strong_richness_or_missing(lambda s: reference_strong_richness_loop(s, tol), src)
    )
