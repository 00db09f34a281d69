"""Order and weight recovery from aggregates, and its failure modes."""

import math

import numpy as np
import pytest

from aggkit import (
    DatasetSource,
    MissingData,
    NonRepresentable,
    Recovered,
    Representation,
    evaluate,
    induced_source,
    load_dataset,
    recover,
    recover_order,
    recover_weights,
)
from aggkit import model, recovery
from aggkit.errors import DegenerateLambda, IntransitivityDetected, MissingDataError
from aggkit.geometry import DEFAULT_TOL, Tolerance


class TestRecoverOrder:
    def test_two_tier_ranks(self, two_tier_source):
        ranks = recover_order(two_tier_source)
        assert ranks["c"] > ranks["a"]
        assert ranks["a"] == ranks["b"]

    def test_equal_outcomes_resolved_through_witness(self):
        # a and b share an outcome; the witness w separates them by rank.
        rep = Representation(
            weights={"a": 1.0, "b": 1.0, "w": 2.0},
            ranks={"a": 1, "b": 0, "w": 1},
            outcomes={"a": [0.4, 0.4], "b": [0.4, 0.4], "w": [1.0, 0.0]},
        )
        src = induced_source(rep)
        ranks = recover_order(src)
        assert ranks["a"] > ranks["b"]
        assert ranks["a"] == ranks["w"]

    def test_indistinguishable_features_share_a_rank(self):
        # Identical outcomes and no third feature: nothing separates them.
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.5],
                frozenset(["b"]): [0.5],
                frozenset(["a", "b"]): [0.5],
            },
        )
        ranks = recover_order(src)
        assert ranks["a"] == ranks["b"]

    def test_cyclic_comparisons_raise(self):
        # Pairwise winners form a cycle a > b > c > a.
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.1],
                frozenset(["b"]): [0.2],
                frozenset(["c"]): [0.3],
                frozenset(["a", "b"]): [0.1],
                frozenset(["b", "c"]): [0.2],
                frozenset(["a", "c"]): [0.3],
            },
        )
        with pytest.raises(IntransitivityDetected) as err:
            recover_order(src)
        assert set(err.value.triple) == {"a", "b", "c"}

    def test_missing_pairs_are_reported(self):
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.1],
                frozenset(["b"]): [0.2],
                frozenset(["c"]): [0.3],
            },
        )
        with pytest.raises(MissingDataError) as err:
            recover_order(src)
        assert (("a", "b") in err.value.required) or (
            ("a", "c") in err.value.required
        )


class TestRecover:
    def test_round_trip_two_tiers(self, two_tier_rep, two_tier_source):
        outcome = recover(two_tier_source)
        assert isinstance(outcome, Recovered)
        rep = outcome.representation
        assert rep.ranks == dict(two_tier_rep.ranks)
        for f in two_tier_rep.features():
            assert rep.weights[f] == pytest.approx(two_tier_rep.weights[f])
        assert outcome.max_residual <= 1e-9
        assert not outcome.indeterminate_classes

    def test_every_stored_set_is_verified(self, flat_source):
        outcome = recover(flat_source)
        assert isinstance(outcome, Recovered)
        checked = outcome.verification
        assert ("a", "b", "c") in checked.members
        assert len(checked) == len(flat_source)
        assert checked.passed.all()

    def test_overflowing_residual_fails_verification(self):
        # The triple's outcome has a norm beyond the float range, so its gate
        # overflows to inf: verification fails closed instead of passing
        # its finite residual under an infinite gate.
        m = 1.2e308
        src = DatasetSource(3, {
            "a": [m, 0, 0], "b": [0, m, 0], "c": [0, 0, m],
            frozenset("ab"): [m / 2, m / 2, 0], frozenset("ac"): [m / 2, 0, m / 2],
            frozenset("bc"): [0, m / 2, m / 2], frozenset("abc"): [m, m, m],
        })
        outcome = recover(src)
        assert isinstance(outcome, NonRepresentable)
        assert outcome.failing_sets == (("a", "b", "c"),)
        assert math.isfinite(outcome.max_residual)

    def test_huge_outcomes_verify(self, fixtures_dir):
        # Scaled by 1e300 the squared norms overflow, but the norms do not:
        # every set verifies as it does unscaled.
        with open(fixtures_dir / "triangle_two_tier.json", encoding="utf-8") as fh:
            src = load_dataset(fh).source
        big = DatasetSource(src.dimension, {s: src.outcome(s) * 1e300 for s in src.sets()})
        outcome = recover(big)
        assert isinstance(outcome, Recovered)
        assert outcome.verification.passed.all()
        assert outcome.representation.ranks == recover(src).representation.ranks

    def test_pair_table_is_built_once(self, monkeypatch):
        # Moved triples fail verification, so recover reads the pair table for
        # the order, the weights and the ratio search: it builds it once.
        rep = Representation(
            weights={"a": 1.0, "b": 2.0, "c": 0.5, "d": 1.5},
            ranks={"a": 0, "b": 0, "c": 1, "d": 1},
            outcomes={"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0], "d": [1.0, 1.0]},
        )
        src = induced_source(rep)
        src = DatasetSource(2, {s: src.outcome(s) + (1e-3 if len(s) > 2 else 0.0) for s in src.sets()})
        built = []
        real = model._close_rows
        monkeypatch.setattr(model, "_close_rows", lambda *args: built.append(1) or real(*args))
        outcome = recover(src)
        assert isinstance(outcome, NonRepresentable) and outcome.failing_sets
        calls, built[:] = len(built), []
        model._pair_table(src._with_points(src._points.copy()), DEFAULT_TOL)
        assert calls == len(built) > 0

    def test_missing_data_outcome(self):
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["c"]): [0.0, 1.0],
                frozenset(["a", "b", "c"]): [0.25, 0.25],
            },
        )
        outcome = recover(src)
        assert isinstance(outcome, MissingData)
        assert all(len(s) == 2 for s in outcome.required)

    def test_collinear_contradiction(self, line_three_points):
        outcome = recover(line_three_points)
        assert isinstance(outcome, NonRepresentable)
        assert outcome.witness.pair == ("x", "z")
        ratios = sorted(outcome.witness.ratios())
        assert ratios[0] == pytest.approx(1.0)
        assert ratios[1] == pytest.approx(5.0 / 3.0)

    def test_cyclic_comparisons_are_non_representable(self):
        # The cycle that makes recover_order raise: recover returns it.
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.1],
                frozenset(["b"]): [0.2],
                frozenset(["c"]): [0.3],
                frozenset(["a", "b"]): [0.1],
                frozenset(["b", "c"]): [0.2],
                frozenset(["a", "c"]): [0.3],
            },
        )
        outcome = recover(src)
        assert isinstance(outcome, NonRepresentable)
        assert outcome.witness.pair == ("a", "c")
        assert outcome.witness.first.via == (("a", "b"), ("b", "c"))
        assert outcome.witness.second.via == (("a", "c"),)
        assert all(np.isnan(r) for r in outcome.witness.ratios())
        assert outcome.failing_sets == ()
        assert outcome.max_residual == 0.0

    def test_off_segment_pair_is_non_representable(self):
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["a", "b"]): [0.5, 0.3],
            },
        )
        outcome = recover(src)
        assert isinstance(outcome, NonRepresentable)

    def test_equal_outcome_class_is_flagged_indeterminate(self):
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.5],
                frozenset(["b"]): [0.5],
                frozenset(["a", "b"]): [0.5],
            },
        )
        outcome = recover(src)
        assert isinstance(outcome, Recovered)
        assert outcome.indeterminate_classes == (("a", "b"),)
        assert outcome.representation.weights["a"] == pytest.approx(1.0)
        assert outcome.representation.weights["b"] == pytest.approx(1.0)

    def test_bridge_weights_for_shared_outcomes(self):
        # b and c coincide; their relative weight comes through bridge a.
        rep = Representation(
            weights={"a": 1.0, "b": 2.0, "c": 3.0},
            ranks={"a": 0, "b": 0, "c": 0},
            outcomes={"a": [0.0, 0.0], "b": [1.0, 1.0], "c": [1.0, 1.0]},
        )
        src = induced_source(rep)
        outcome = recover(src)
        assert isinstance(outcome, Recovered)
        got = outcome.representation.weights
        assert got["c"] / got["b"] == pytest.approx(1.5, rel=1e-9)

    def test_weights_need_ranks_for_exactly_the_features(self, two_tier_source):
        ranks = recover_order(two_tier_source)
        for wrong in ({f: r for f, r in ranks.items() if f != min(ranks)}, {**ranks, "zz": 0}):
            with pytest.raises(ValueError, match="ranks must rank exactly the source's features"):
                recover_weights(two_tier_source, wrong)

    def test_random_round_trips(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(3, 6))
            names = [f"f{i}" for i in range(n)]
            pts = rng.uniform(-1.0, 1.0, (n, dim))
            weights = {f: float(rng.uniform(0.5, 2.0)) for f in names}
            rep = Representation(
                weights=weights,
                ranks={f: 0 for f in names},
                outcomes={f: pts[i] for i, f in enumerate(names)},
            )
            outcome = recover(induced_source(rep))
            assert isinstance(outcome, Recovered), f"trial {trial}"
            for s in (
                frozenset(names),
                frozenset(names[:2]),
            ):
                np.testing.assert_allclose(
                    evaluate(outcome.representation, s),
                    evaluate(rep, s),
                    atol=1e-8,
                )


class TestFallbackWitness:
    """No ratio of the clean pairs conflicts, so the witness comes from
    the worst failing set; here its top rank holds one member."""

    REP = Representation(
        weights={"a": 1.0, "b": 1.0, "c": 2.0, "d": 0.5},
        ranks={"a": 1, "b": 0, "c": 0, "d": 0},
        outcomes={"a": [0.0, 1.0], "b": [1.0, 0.0], "c": [0.0, 0.0], "d": [1.0, 1.0]},
    )

    def test_single_top_pairs_with_the_next_rank(self):
        table = {frozenset(s): evaluate(self.REP, tuple(s)) for s in
                 ["a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd", "cd"]}
        table[frozenset("abc")] = [0.3, 0.6]  # a alone predicts [0, 1]
        outcome = recover(DatasetSource(2, table))
        assert isinstance(outcome, NonRepresentable)
        assert outcome.failing_sets == (("a", "b", "c"),)
        witness = outcome.witness
        assert witness.pair == ("a", "b")  # never a feature with itself
        assert np.isnan(witness.first.ratio)
        assert witness.first.via == (("a", "b", "c"),)
        assert (witness.second.ratio, witness.second.via) == (float("inf"), ())
        assert witness.second.note == "the recovered ranks put a above b"

    def test_a_singleton_beyond_the_float_range_is_named(self):
        # Only f(a) fails verification: its norm, and so its gate, leaves the
        # float range.  No set of two or more fails, so the witness names a.
        src = DatasetSource(2, {"a": [1.7e308] * 2, "b": [0.0, 0.0], ("a", "b"): [0.85e308] * 2})
        outcome = recover(src)
        assert isinstance(outcome, NonRepresentable)
        assert outcome.failing_sets == (("a",),)
        witness = outcome.witness
        assert witness.pair == ("a", "a") and witness.first.via == (("a",),)
        assert math.isnan(witness.first.ratio) and witness.second.ratio == 1.0
        assert witness.first.note == "verifying the outcome of a leaves the float range"

    def test_single_top_pair_reads_its_coefficient(self):
        # The failing set is the pair itself: its aggregate's coefficient
        # on (f(a), f(b)) is read, and the ranks give b no weight.
        witness = recovery._fallback_witness(("a", "b"), np.array([0.25, 0.75]), self.REP, DEFAULT_TOL)
        assert witness.pair == ("a", "b")
        assert witness.first.ratio == pytest.approx(3.0)
        assert witness.first.note == "mixing coefficient of the observed aggregate"
        assert witness.second.ratio == float("inf")

    def test_two_member_top_keeps_the_weight_ratio(self):
        witness = recovery._fallback_witness(("b", "c", "d"), np.array([0.5, 0.5]), self.REP, DEFAULT_TOL)
        assert witness.pair == ("b", "c")
        assert np.isnan(witness.first.ratio)  # three top members: no segment to read
        assert (witness.second.ratio, witness.second.note) == (0.5, "implied by the recovered weights")


class TestSameRankTableOnce:
    """The weights and the ratio-conflict search read one same-rank table."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = recovery._segment_positions

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(recovery, "_segment_positions", counted)
        return calls

    def test_non_representable_builds_it_once(self, line_three_points, monkeypatch):
        # Reference first, on its own source, so that nothing is kept for the other.
        fresh = DatasetSource(line_three_points.dimension,
                              {s: line_three_points.outcome(s) for s in line_three_points.sets()})
        want = recovery._ratio_conflict_witness(fresh, recover_order(fresh), DEFAULT_TOL)
        calls = self._counted(monkeypatch)
        outcome = recover(line_three_points)
        assert isinstance(outcome, NonRepresentable) and outcome.failing_sets
        assert len(calls) == 1
        assert outcome.witness == want and repr(outcome.witness) == repr(want)  # every float's bits

    def test_kept_per_ranks_and_tolerance(self, two_tier_source, monkeypatch):
        calls = self._counted(monkeypatch)
        ranks = recover_order(two_tier_source)
        first = recover_weights(two_tier_source, ranks)
        assert recover_weights(two_tier_source, dict(ranks)) == first
        assert len(calls) == 1
        with pytest.raises(DegenerateLambda):  # c is not between a and b
            recover_weights(two_tier_source, dict.fromkeys(ranks, 0))
        recover_weights(two_tier_source, ranks, Tolerance(abs_tol=1e-6))
        assert len(calls) == 3
