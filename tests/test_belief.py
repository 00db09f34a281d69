"""Belief formation: joints, conditional systems, and discounting."""

import itertools
import tracemalloc

import numpy as np
import pytest

from aggkit import (
    DatasetSource,
    Representation,
    TimedQuery,
    as_belief,
    build_cps,
    build_joint,
    check_bayesian,
    evaluate_discounted,
    induced_source,
    recover_discounted,
    verify_cps,
)
from aggkit import belief
from aggkit.errors import (
    MultipleRankClasses,
    NotABelief,
    NotStationary,
    TooLarge,
    UnknownFeature,
)


class TestAsBelief:
    def test_valid_distribution_passes_through(self):
        b = as_belief([0.25, 0.75])
        np.testing.assert_allclose(b, [0.25, 0.75])

    def test_tiny_negative_entries_are_clamped(self):
        b = as_belief([1.0 + 1e-12, -1e-12])
        assert b.min() >= 0.0
        assert b.sum() == pytest.approx(1.0)

    def test_bad_vectors_rejected(self):
        with pytest.raises(NotABelief):
            as_belief([0.5, 0.6])
        with pytest.raises(NotABelief):
            as_belief([-0.3, 1.3])



class TestBuildJoint:
    def test_weighted_coin_table(self, coin_beliefs_rep):
        joint = build_joint(coin_beliefs_rep)
        # Row per state, column per feature, total mass one.
        np.testing.assert_allclose(
            joint.table, [[0.2, 0.15], [0.05, 0.6]], atol=1e-12
        )
        assert joint.total() == pytest.approx(1.0)

    def test_marginals_and_conditionals(self, coin_beliefs_rep):
        joint = build_joint(coin_beliefs_rep)
        assert joint.feature_marginal("a") == pytest.approx(0.25)
        assert joint.feature_marginal(["a", "b"]) == pytest.approx(1.0)
        np.testing.assert_allclose(joint.conditional("b"), [0.2, 0.8], atol=1e-12)
        np.testing.assert_allclose(
            joint.conditional(["a", "b"]), [0.35, 0.65], atol=1e-12
        )
        assert joint.prob([0], ["a", "b"]) == pytest.approx(0.35)

    def test_needs_a_single_rank_class(self, two_tier_rep):
        with pytest.raises(MultipleRankClasses):
            build_joint(two_tier_rep)

    def test_unknown_feature_in_lookup(self, coin_beliefs_rep):
        joint = build_joint(coin_beliefs_rep)
        with pytest.raises(UnknownFeature):
            joint.feature_marginal("zzz")


class TestCheckBayesian:
    def test_consistent_coin_data(self, coin_beliefs_source):
        check = check_bayesian(coin_beliefs_source)
        assert check.consistent
        assert check.joint is not None
        assert check.max_residual <= 1e-9

    def test_pair_outside_the_mixture_range_is_inconsistent(self):
        # (0.9, 0.1) extrapolates beyond a: no positive weights produce it.
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.8, 0.2],
                frozenset(["b"]): [0.2, 0.8],
                frozenset(["a", "b"]): [0.9, 0.1],
            },
        )
        check = check_bayesian(src)
        assert not check.consistent
        assert check.joint is None

    def test_chained_ratio_conflict_is_inconsistent(self):
        # Pairwise mixtures exist but imply contradictory weights.
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [1.0, 0.0],
                frozenset(["b"]): [0.5, 0.5],
                frozenset(["c"]): [0.0, 1.0],
                frozenset(["a", "b"]): [0.75, 0.25],
                frozenset(["b", "c"]): [0.25, 0.75],
                frozenset(["a", "c"]): [0.375, 0.625],
                frozenset(["a", "b", "c"]): [0.4375, 0.5625],
            },
        )
        check = check_bayesian(src)
        assert not check.consistent

    def test_non_belief_rows_rejected(self, flat_source):
        with pytest.raises(NotABelief):
            check_bayesian(flat_source)

    def test_a_verdict_checks_the_beliefs_in_the_loader_and_once_more(
        self, run_cli, fixtures_dir, monkeypatch, tmp_path
    ):
        # The loader checks every row; check_bayesian checks the singletons
        # once and builds its joint from them without a third check.
        calls = []
        faults = belief._belief_faults

        def counted(points, tol):
            calls.append(len(points))
            return faults(points, tol)

        monkeypatch.setattr(belief, "_belief_faults", counted)
        code, _ = run_cli("bayes", str(fixtures_dir / "coin_beliefs.json"), "--out", str(tmp_path / "bayes.json"))
        assert code == 0 and len(calls) == 2


class TestConditionalProbabilitySystem:
    def test_chain_rule_on_flat_beliefs(self, coin_beliefs_rep):
        cps = build_cps(coin_beliefs_rep)
        report = verify_cps(cps)
        assert report.satisfied
        assert report.checked_pairs == 1
        assert report.max_residual <= 1e-12

    def test_two_tier_mass_sits_on_top_class(self):
        rep = Representation(
            weights={"a": 1.0, "b": 1.0, "c": 2.0},
            ranks={"a": 0, "b": 0, "c": 1},
            outcomes={
                "a": [0.7, 0.2, 0.1],
                "b": [0.1, 0.8, 0.1],
                "c": [0.3, 0.3, 0.4],
            },
        )
        cps = build_cps(rep)
        joint = cps.conditional(["a", "c"])
        # c dominates a, so a's column carries no mass.
        assert joint.feature_marginal("a") == pytest.approx(0.0)
        assert joint.feature_marginal("c") == pytest.approx(1.0)
        assert verify_cps(cps).satisfied

    def test_every_nonempty_subset_is_conditioned(self, coin_beliefs_rep):
        cps = build_cps(coin_beliefs_rep)
        assert len(cps.source) == 3
        assert cps.source.sets() == (frozenset("a"), frozenset("b"), frozenset("ab"))

    @pytest.mark.parametrize("n, refused", [(14, False), (15, True)])
    def test_feature_limit(self, monkeypatch, n, refused):
        # Beyond the limit TooLarge comes before any subset is built.
        def no_subsets(count):
            raise AssertionError("a subset list was built")

        if refused:
            monkeypatch.setattr(belief, "_every_subset", no_subsets)
        rep = Representation(
            weights={f"x{i:02d}": 1.0 for i in range(n)},
            ranks={f"x{i:02d}": 0 for i in range(n)},
            outcomes={f"x{i:02d}": [0.5, 0.5] for i in range(n)},
        )
        if refused:
            with pytest.raises(TooLarge, match="the limit is 14"):
                build_cps(rep)
        else:
            assert len(build_cps(rep).source) == 2**n - 1

    def test_chain_rule_check_holds_a_chunk_of_pairs(self):
        # Every subset of 14 features: 2,375,101 pairs, whose rows alone take
        # 57 MB.  The check takes the split walk's chunks as they come, so it
        # holds the tables and a few chunks' work.
        names = [f"x{i:02d}" for i in range(14)]
        rep = Representation(
            weights={f: 1.0 + i for i, f in enumerate(names)},
            ranks={f: i % 2 for i, f in enumerate(names)},
            outcomes={f: [(i + 1) / 16, 1 - (i + 1) / 16] for i, f in enumerate(names)},
        )
        cps = build_cps(rep)
        tracemalloc.start()
        try:
            report = verify_cps(cps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.satisfied and report.checked_pairs == 2375101
        assert peak < 40e6

    def test_conditioning_on_null_events_stays_defined(self):
        # b has observation weight but zero mass under a's belief; the
        # conditional given {b} is still a proper distribution.
        rep = Representation(
            weights={"a": 1.0, "b": 1.0},
            ranks={"a": 1, "b": 0},
            outcomes={"a": [1.0, 0.0], "b": [0.0, 1.0]},
        )
        cps = build_cps(rep)
        joint = cps.conditional(["b"])
        assert joint.total() == pytest.approx(1.0)
        np.testing.assert_allclose(joint.conditional("b"), [0.0, 1.0])


class TestTimedQuery:
    def test_validation(self):
        q = TimedQuery(["x", "y"], {"x": 1, "y": 3})
        assert q.key() == (("x", 1), ("y", 3))
        with pytest.raises(ValueError):
            TimedQuery(["x"], {"x": 0})
        with pytest.raises(ValueError):
            TimedQuery(["x", "y"], {"x": 1})

    def test_shift(self):
        q = TimedQuery(["x"], {"x": 2}).shifted(3)
        assert q.times["x"] == 5


class TestEvaluateDiscounted:
    @pytest.mark.parametrize(
        "weights",
        [{"x": 0.0, "y": 0.0}, {"x": -1.0, "y": 1.0}, {"x": float("nan"), "y": 1.0}],
        ids=["zero", "negative", "nan"],
    )
    def test_weight_must_be_positive_and_finite(self, weights):
        b = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
        query = TimedQuery(["x", "y"], {"x": 1, "y": 2})
        with pytest.raises(ValueError, match="weight of 'x' must be strictly positive"):
            evaluate_discounted(0.5, weights, b, query)

    def test_factor_one_is_plain_average(self):
        w = {"x": 1.0, "y": 3.0}
        b = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
        q = TimedQuery(["x", "y"], {"x": 4, "y": 7})
        np.testing.assert_allclose(
            evaluate_discounted(1.0, w, b, q), [0.25, 0.75], atol=1e-12
        )

    def test_later_signals_fade_when_q_below_one(self):
        w = {"x": 1.0, "y": 1.0}
        b = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
        q = TimedQuery(["x", "y"], {"x": 1, "y": 2})
        out = evaluate_discounted(0.5, w, b, q)
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        w = {"x": 1.3, "y": 0.7, "z": 2.0}
        b = {k: rng.dirichlet(np.ones(3)) for k in w}
        query = TimedQuery(["x", "y", "z"], {"x": 1, "y": 2, "z": 5})
        for q in (0.25, 0.5, 1.0, 2.0):
            base = evaluate_discounted(q, w, b, query)
            for c in (1, 2, 3):
                shifted = evaluate_discounted(q, w, b, query.shifted(c))
                np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_invalid_factor_rejected(self):
        w = {"x": 1.0}
        b = {"x": np.array([1.0])}
        q = TimedQuery(["x"], {"x": 1})
        with pytest.raises(ValueError):
            evaluate_discounted(0.0, w, b, q)
        with pytest.raises(ValueError):
            evaluate_discounted(float("inf"), w, b, q)


def _synthetic_discount_oracle(q, weights, beliefs):
    def oracle(query: TimedQuery):
        return evaluate_discounted(q, weights, beliefs, query)

    return oracle


class TestRecoverDiscounted:
    WEIGHTS = {"x": 1.0, "y": 2.0, "z": 0.5}
    BELIEFS = {
        "x": np.array([0.9, 0.05, 0.05]),
        "y": np.array([0.1, 0.8, 0.1]),
        "z": np.array([0.2, 0.2, 0.6]),
    }

    def test_round_trip_factor(self):
        for q in (0.25, 0.5, 1.0, 2.0):
            oracle = _synthetic_discount_oracle(q, self.WEIGHTS, self.BELIEFS)
            rec = recover_discounted(oracle, self.WEIGHTS, 3)
            assert rec.q == pytest.approx(q, rel=1e-9)
            assert rec.weights["y"] / rec.weights["x"] == pytest.approx(
                2.0, rel=1e-9
            )

    def test_validation_queries_are_scored(self):
        oracle = _synthetic_discount_oracle(0.5, self.WEIGHTS, self.BELIEFS)
        probe = TimedQuery(["x", "y", "z"], {"x": 1, "y": 2, "z": 3})
        rec = recover_discounted(oracle, self.WEIGHTS, 3, validation=[probe])
        assert rec.max_residual <= 1e-12

    def test_drifting_oracle_is_rejected(self):
        def oracle(query: TimedQuery):
            # Weights depend on absolute time: not stationary.
            shift = min(query.times.values())
            w = {k: v * (1.0 + 0.5 * shift) ** (ord(k[0]) % 3) for k, v in self.WEIGHTS.items()}
            return evaluate_discounted(0.5, w, self.BELIEFS, query)

        with pytest.raises(NotStationary):
            recover_discounted(oracle, self.WEIGHTS, 3)

    def test_table_queries_come_first_each_once(self):
        weights = {**self.WEIGHTS, "w": 1.5}
        beliefs = {**self.BELIEFS, "w": np.array([0.3, 0.3, 0.4])}
        asked = []

        def oracle(query: TimedQuery):
            asked.append(query.key())
            return evaluate_discounted(0.5, weights, beliefs, query)

        rec = recover_discounted(oracle, weights, 3)
        names = sorted(weights)
        table = [((f, 1),) for f in names]
        table += [((a, 1), (b, 1)) for a, b in itertools.combinations(names, 2)]
        assert asked[: len(table)] == table
        # The spot checks, each query then its shift by one; the table answers
        # (a@1, b@1) and a@1, and the staggered pair's answer also gives q.
        a, b = rec.identification_pair
        assert asked[len(table):] == [
            ((a, 1), (b, 2)), ((a, 2), (b, 3)),
            ((a, 2), (b, 2)),
            ((a, 2),),
        ]
        assert len(asked) == len(names) + len(names) * (len(names) - 1) // 2 + 4

    def test_an_oracle_failure_on_an_unneeded_pair_propagates(self):
        # x and x2 share one belief, so recovery never reads their pair; the
        # table still asks for it, and the oracle's own error escapes.
        weights = {**self.WEIGHTS, "x2": 3.0}
        beliefs = {**self.BELIEFS, "x2": self.BELIEFS["x"]}

        def oracle(query: TimedQuery):
            if query.members == {"x", "x2"}:
                raise ValueError("no answer for {x,x2}")
            return evaluate_discounted(0.5, weights, beliefs, query)

        with pytest.raises(ValueError, match="no answer for"):
            recover_discounted(oracle, weights, 3)

    def test_needs_two_features(self):
        oracle = _synthetic_discount_oracle(0.5, {"x": 1.0}, {"x": np.array([1.0])})
        with pytest.raises(ValueError):
            recover_discounted(oracle, ["x"], 1)
