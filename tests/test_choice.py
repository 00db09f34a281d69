"""Average choice data: Luce recovery, path independence, boundaries."""

import numpy as np
import pytest

from aggkit import (
    DatasetSource,
    Menu,
    Representation,
    boundary_diagnostic,
    check_menu_feasibility,
    check_path_independence,
    choice_probabilities,
    induced_source,
    make_dictatorial_oracle,
    make_luce_oracle,
    recover,
    recover_luce,
    recover_two_stage,
)
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


class TestMenuFeasibility:
    def test_interior_averages_are_feasible(self):
        src = luce_source(TRIANGLE, LUCE_W)
        assert check_menu_feasibility(src).all_feasible

    def test_outside_point_is_flagged(self):
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["a", "b"]): [0.5, 0.5],
            },
        )
        report = check_menu_feasibility(src)
        assert not report.all_feasible


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
        oracle = make_luce_oracle(TRIANGLE, LUCE_W, default_weight=1.0)
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
