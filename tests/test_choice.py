"""Average choice data: Luce recovery, path independence, boundaries."""

import warnings

import numpy as np
import pytest

from aggkit import (
    DatasetSource,
    GeneratorConfig,
    Menu,
    NonRepresentable,
    Representation,
    boundary_diagnostic,
    check_path_independence,
    choice_probabilities,
    choice,
    gen_dataset,
    gen_representation,
    induced_source,
    load_dataset,
    perturb,
    make_dictatorial_oracle,
    make_luce_oracle,
    recover,
    recover_luce,
    recover_two_stage,
)
from aggkit.geometry import relative_interior_check
from aggkit.errors import OracleRefused, UnknownFeature


def luce_source(points, weights):
    """Forward-generate every menu average from a Luce rule."""
    rep = Representation(
        weights=dict(weights),
        ranks={k: 0 for k in points},
        outcomes={k: np.asarray(v, dtype=float) for k, v in points.items()},
    )
    return induced_source(rep)


TRIANGLE = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0]}
LUCE_W = {"a": 2.0, "b": 1.0, "c": 1.0}


class TestMenu:
    def test_ids_sorted_and_points_frozen(self):
        m = Menu({"b": [1.0, 0.0], "a": [0.0, 0.0]})
        assert m.ids() == ("a", "b")
        assert m.dimension == 2
        with pytest.raises(ValueError):
            m.points()[0][0] = 9.0

    def test_empty_menu_rejected(self):
        with pytest.raises(ValueError):
            Menu({})


class TestLuceRecovery:
    def test_luce_data_is_rationalizable(self):
        src = luce_source(TRIANGLE, LUCE_W)
        outcome = recover_luce(src)
        assert outcome.rationalizable
        assert outcome.rich
        # Weight ratios are identified; normalization pins a to one.
        assert outcome.weights["b"] / outcome.weights["a"] == pytest.approx(0.5)
        assert outcome.weights["c"] / outcome.weights["a"] == pytest.approx(0.5)

    def test_two_tier_data_needs_the_two_stage_rule(self, two_tier_source):
        plain = recover_luce(two_tier_source)
        assert not plain.rationalizable
        assert "never chosen" in plain.reason
        staged = recover_two_stage(two_tier_source)
        assert staged.rationalizable
        assert staged.ranks is not None and staged.ranks["c"] > staged.ranks["a"]

    def test_collinear_menu_data_is_not_rich(self, line_three_points):
        outcome = recover_luce(line_three_points)
        assert not outcome.rich
        assert not outcome.rationalizable


class TestChoiceProbabilities:
    def test_proportional_to_weights_on_top_class(self):
        w = {"a": 2.0, "b": 1.0, "c": 1.0}
        ranks = {"a": 0, "b": 0, "c": 0}
        probs = choice_probabilities(w, ranks, ["a", "b", "c"])
        assert probs["a"] == pytest.approx(0.5)
        assert probs["b"] == pytest.approx(0.25)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_lower_ranks_get_zero(self):
        w = {"a": 1.0, "b": 1.0}
        ranks = {"a": 0, "b": 1}
        probs = choice_probabilities(w, ranks, ["a", "b"])
        assert probs["a"] == 0.0
        assert probs["b"] == pytest.approx(1.0)

    def test_ratio_invariance_across_menus(self):
        w = {"a": 2.0, "b": 1.0, "c": 1.0, "d": 3.0}
        ranks = {k: 0 for k in w}
        base = choice_probabilities(w, ranks, ["a", "b"])
        wide = choice_probabilities(w, ranks, ["a", "b", "c", "d"])
        assert base["a"] / base["b"] == pytest.approx(wide["a"] / wide["b"])

    def test_member_without_rank_is_unknown(self):
        with pytest.raises(UnknownFeature, match="'b'"):
            choice_probabilities({"a": 1.0, "b": 1.0}, {"a": 0}, ["a", "b"])

    @pytest.mark.parametrize(
        "weights",
        [{"a": 0.0}, {"a": -1.0, "b": 1.0}, {"a": float("nan"), "b": 1.0}, {"a": float("inf")}],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_weight_must_be_positive_and_finite(self, weights):
        ranks = {f: 0 for f in weights}
        with pytest.raises(ValueError, match="weight of 'a' must be strictly positive"):
            choice_probabilities(weights, ranks, sorted(weights))


class TestReferenceOracles:
    def test_dictatorial_picks_the_largest_point(self):
        oracle = make_dictatorial_oracle()
        m = Menu({"a": [0.0, 5.0], "b": [1.0, 0.0]})
        np.testing.assert_allclose(oracle(m), [1.0, 0.0])

    def test_luce_oracle_averages_known_points(self):
        oracle = make_luce_oracle(TRIANGLE, LUCE_W)
        m = Menu(TRIANGLE)
        np.testing.assert_allclose(oracle(m), [0.25, 0.25])

    def test_luce_oracle_defaults_unknown_points(self):
        oracle = make_luce_oracle(TRIANGLE, LUCE_W)
        m = Menu({"p": [10.0, 10.0], "q": [20.0, 20.0]})
        np.testing.assert_allclose(oracle(m), [15.0, 15.0])


class TestPathIndependence:
    def menu_pairs(self, count, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(count):
            left = Menu(
                {f"l{i}_{j}": rng.uniform(-1, 1, 2) for j in range(int(rng.integers(1, 4)))}
            )
            right = Menu(
                {f"r{i}_{j}": rng.uniform(-1, 1, 2) for j in range(int(rng.integers(1, 4)))}
            )
            pairs.append((left, right))
        return pairs

    def test_dictatorial_oracle_is_path_independent(self):
        report = check_path_independence(
            make_dictatorial_oracle(), self.menu_pairs(20, seed=5)
        )
        assert report.satisfied
        assert report.max_residual <= 1e-12

    def test_luce_oracle_is_not(self):
        oracle = make_luce_oracle(TRIANGLE, LUCE_W)
        pairs = [
            (Menu({"a": TRIANGLE["a"]}), Menu({"b": TRIANGLE["b"], "c": TRIANGLE["c"]})),
            (Menu({"b": TRIANGLE["b"]}), Menu({"a": TRIANGLE["a"], "c": TRIANGLE["c"]})),
        ]
        report = check_path_independence(oracle, pairs)
        assert not report.satisfied
        assert report.max_residual > 1e-3

    def test_overlapping_menus_rejected(self):
        m = Menu({"a": [0.0, 0.0]})
        with pytest.raises(ValueError):
            check_path_independence(make_dictatorial_oracle(), [(m, m)])

    def test_oracle_failures_are_wrapped(self):
        def broken(menu):
            raise RuntimeError("boom")

        pairs = [(Menu({"a": [0.0]}), Menu({"b": [1.0]}))]
        with pytest.raises(OracleRefused):
            check_path_independence(broken, pairs)


class TestBoundaryDiagnostic:
    def test_interior_choices_have_no_boundary_menus(self):
        src = luce_source(TRIANGLE, LUCE_W)
        report = boundary_diagnostic(src, recover(src))
        assert not report.boundary_menus
        assert not report.contradictions

    def test_vertex_choices_contradict_a_flat_order(self):
        # Every menu resolves to alternative b: choices on menu vertices.
        pts = {k: np.asarray(v) for k, v in TRIANGLE.items()}
        table = {frozenset([k]): pts[k] for k in pts}
        for pair in (("a", "b"), ("b", "c")):
            table[frozenset(pair)] = pts["b"]
        table[frozenset(["a", "c"])] = pts["c"]
        table[frozenset(["a", "b", "c"])] = pts["b"]
        src = DatasetSource(2, table)
        report = boundary_diagnostic(src, recover(src))
        assert report.boundary_menus
        assert not report.single_class

    @pytest.mark.parametrize("names", ["xyz", "abcd"])
    def test_recovery_of_other_features_is_refused(self, fixtures_dir, names):
        with open(fixtures_dir / "menu_luce.json") as fh:
            src = load_dataset(fh).source
        points = dict(zip(names, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        other = luce_source(points, dict.fromkeys(names, 1.0))
        with pytest.raises(ValueError, match="the recovery must rank exactly the source's features"):
            boundary_diagnostic(src, recover(other))


class TestMenusNearTheFloatLimit:
    """Three alternatives near 4.5e307: the pairs at their midpoints, the
    triple inside but off its centroid, so no weights recover and every
    menu goes to the hull search."""

    def test_no_menu_is_a_boundary_menu(self):
        big = 4.5e307
        pts = {"a": np.array([big, 0.8 * big]), "b": np.array([0.9 * big, big]), "c": np.array([0.95 * big, 0.7 * big])}
        table = {(f,): p for f, p in pts.items()}
        table.update({(x, y): pts[x] / 2 + pts[y] / 2 for x, y in [("a", "b"), ("a", "c"), ("b", "c")]})
        table["a", "b", "c"] = 0.3 * pts["a"] + 0.33 * pts["b"] + 0.37 * pts["c"]
        src = DatasetSource(2, table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = recover_luce(src)
            report = boundary_diagnostic(src, outcome.recovery)
        assert isinstance(outcome.recovery, NonRepresentable) and outcome.rich
        assert len(report.menus) == 4 and report.boundary_menus == () and report.in_hull.all()


class TestBoundaryCertificates:
    """Menus whose members share one rank are settled by the recovered
    weights; only the others reach the hull search."""

    @pytest.fixture()
    def searched(self, monkeypatch):
        points = []

        def counting(p, generators, tol):
            points.append(p)
            return relative_interior_check(p, generators, tol)

        monkeypatch.setattr(choice, "relative_interior_check", counting)
        return points

    def test_luce_fixture_needs_no_search(self, searched, fixtures_dir):
        with open(fixtures_dir / "menu_luce.json") as fh:
            src = load_dataset(fh).source
        report = boundary_diagnostic(src, recover(src))
        assert len(report.menus) == 4 and not report.boundary_menus
        assert searched == []

    def test_single_class_luce_data_needs_no_search(self, searched):
        rep = gen_representation(GeneratorConfig(seed=1, feature_count=7, dimension=3))
        src = gen_dataset(rep)
        report = boundary_diagnostic(src, recover(src))
        assert len(report.menus) == 2**7 - 1 - 7 and not report.boundary_menus
        assert searched == []

    def test_two_stage_data_searches_the_menus_across_classes(self, searched):
        rep = gen_representation(
            GeneratorConfig(seed=2, feature_count=7, dimension=2, rank_classes=2)
        )
        src = gen_dataset(rep)
        report = boundary_diagnostic(src, recover_two_stage(src).recovery)
        across = [s for s in src.sets() if len({rep.ranks[f] for f in s}) == 2]
        assert 0 < len(across) < len(report.menus)
        assert len(searched) == len(across)
        for p, s in zip(searched, across):
            assert np.array_equal(p, src.outcome(s))

    def test_non_representable_data_searches_every_menu(self, searched):
        rep = gen_representation(GeneratorConfig(seed=3, feature_count=5, dimension=2))
        src = perturb(gen_dataset(rep), 1e-3, seed=3)
        recovery = recover(src)
        assert isinstance(recovery, NonRepresentable)
        boundary_diagnostic(src, recovery)
        assert len(searched) == sum(len(s) >= 2 for s in src.sets())
