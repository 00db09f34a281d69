"""Welfare aggregation: cone tests, Pareto, weight recovery, and SEU."""

import collections
import itertools

import numpy as np
import pytest

from aggkit import social
from aggkit import (
    Certificate,
    Collinear,
    DatasetSource,
    InCone,
    NonRepresentable,
    StateDependentRepresentation,
    aggregate_coalition,
    check_consistency_pair,
    check_extended_pareto,
    load_dataset,
    normalize_to_H,
    recover_gswf_weights,
    recover_state_dependent,
    relative_utilitarian_weight,
    verify_certificate,
)
from aggkit.geometry import DEFAULT_TOL
from aggkit.errors import (
    ConstantUtility,
    MinimalAgreementViolated,
    MissingDataError,
    ResidualTooLarge,
)


class TestNormalizeToH:
    def test_scales_onto_the_slice(self):
        v = np.array([1.0, 1.0])
        u = normalize_to_H([3.0, 1.0], v)
        assert float(u @ v) == pytest.approx(1.0)
        np.testing.assert_allclose(u, [0.75, 0.25])

    def test_disagreeing_utility_rejected(self):
        v = np.array([1.0, 1.0])
        with pytest.raises(MinimalAgreementViolated):
            normalize_to_H([-1.0, -2.0], v)
        with pytest.raises(MinimalAgreementViolated):
            normalize_to_H([1.0, -1.0], v)


class TestConsistencyPair:
    def test_positive_combination_is_in_cone(self):
        ua = np.array([1.0, 0.0, 0.0])
        ub = np.array([0.0, 1.0, 0.0])
        out = check_consistency_pair(ua, ub, 0.3 * ua + 1.7 * ub)
        assert isinstance(out, InCone)
        assert out.alpha == pytest.approx(0.3)
        assert out.beta == pytest.approx(1.7)

    def test_outside_the_plane_yields_a_certificate(self):
        ua = np.array([1.0, 0.0, 0.0])
        ub = np.array([0.0, 1.0, 0.0])
        uab = np.array([0.2, 0.2, 1.0])
        out = check_consistency_pair(ua, ub, uab)
        assert isinstance(out, Certificate)
        assert verify_certificate(out.z, ua, ub, uab)
        assert out.dot_ab < 0.0

    def test_negative_coefficient_yields_a_certificate(self):
        ua = np.array([1.0, 0.0])
        ub = np.array([0.0, 1.0])
        uab = 1.0 * ua - 0.5 * ub
        out = check_consistency_pair(ua, ub, uab)
        assert isinstance(out, Certificate)
        assert verify_certificate(out.z, ua, ub, uab)

    def test_boundary_ray_gets_a_boundary_certificate(self):
        # The coalition utility equals one part: on the cone's edge, the
        # certificate's functional annihilates it while valuing a part.
        ua = np.array([1.0, 0.0])
        ub = np.array([0.0, 1.0])
        out = check_consistency_pair(ua, ub, ua.copy())
        assert isinstance(out, Certificate)
        assert abs(out.dot_ab) <= 1e-9
        assert max(out.dot_a, out.dot_b) > 1e-9

    def test_parallel_parts_short_circuit(self):
        ua = np.array([1.0, 1.0])
        out = check_consistency_pair(ua, 2.0 * ua, ua)
        assert isinstance(out, Collinear)
        assert out.ratio == pytest.approx(2.0)

    def test_anti_parallel_parts_rejected(self):
        ua = np.array([1.0, 1.0])
        with pytest.raises(ResidualTooLarge):
            check_consistency_pair(ua, -ua, ua)

    def test_zero_vector_rejected(self):
        ua = np.array([0.0, 0.0])
        with pytest.raises(ResidualTooLarge):
            check_consistency_pair(ua, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


class TestVerifyCertificate:
    def test_valid_and_invalid_functionals(self):
        ua = np.array([1.0, 0.0])
        ub = np.array([0.0, 1.0])
        uab = np.array([-1.0, -1.0])
        assert verify_certificate([1.0, 1.0], ua, ub, uab)
        assert not verify_certificate([-1.0, 0.0], ua, ub, uab)
        assert not verify_certificate([0.0, 0.0], ua, ub, uab)

    def test_in_cone_point_admits_no_certificate(self):
        ua = np.array([1.0, 0.0])
        ub = np.array([0.0, 1.0])
        uab = 0.5 * ua + 0.5 * ub
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = rng.normal(size=2)
            assert not verify_certificate(z, ua, ub, uab)


class TestAggregateCoalition:
    def test_weighted_normalized_average(self):
        v = np.array([1.0, 1.0])
        utils = {"p": [1.5, 0.5], "q": [0.25, 0.75]}
        w = {"p": 1.0, "q": 3.0}
        normalized = {f: normalize_to_H(u, v) for f, u in utils.items()}
        agg = aggregate_coalition(w, normalized, ["p", "q"])
        expected = (1.0 * np.array([0.75, 0.25]) + 3.0 * np.array([0.25, 0.75])) / 4.0
        np.testing.assert_allclose(agg, expected)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_weight_must_be_positive_and_finite(self, weight):
        utilities = {"p": [0.75, 0.25], "q": [0.25, 0.75]}
        with pytest.raises(ValueError, match="weight of 'p' must be strictly positive"):
            aggregate_coalition({"p": weight, "q": 1.0}, utilities, ["p", "q"])


def counting_normalizations(monkeypatch):
    """Count social.normalize_to_H calls by their ``who`` label."""
    calls = collections.Counter()
    real = social.normalize_to_H

    def counted(u, v, tol=DEFAULT_TOL, who="utility"):
        calls[who] += 1
        return real(u, v, tol, who)

    monkeypatch.setattr(social, "normalize_to_H", counted)
    return calls


class TestNormalizeOncePerIndividual:
    def test_weight_table_normalizes_each_stored_set_once(self, monkeypatch, fixtures_dir):
        with open(fixtures_dir / "profile_committee.json", encoding="utf-8") as fh:
            doc = load_dataset(fh)
        src, weights, v = doc.source, doc.weight_table, doc.direction
        # Residuals of the per-coalition normalization, computed first.
        raw = {f: src.outcome([f]) for f in src.features()}
        expected = []
        for s in src.sets():
            if len(s) >= 2:
                observed = normalize_to_H(src.outcome(s), v)
                utilities = {m: normalize_to_H(raw[m], v) for m in s}
                predicted = aggregate_coalition(weights, utilities, sorted(s))
                expected.append(float(np.linalg.norm(observed - predicted)))

        calls = counting_normalizations(monkeypatch)
        rows = social.verify_weight_table(src, weights, v)
        assert [residual for _, residual, _ in rows] == expected
        assert len(calls) == len(src)
        assert set(calls.values()) == {1}
        for f in src.features():
            assert calls[f] == 1

    def test_gswf_validation_normalizes_no_individual(self, monkeypatch):
        case = TestGswfRecovery()
        inds = ["i1", "i2", "i3", "i4"]
        oracle = case.oracle_from(case.true_weights(inds, case.PREFS))
        profile = {"i1": "r1", "i2": "r2", "i3": "r3", "i4": "r1"}
        validation = [(profile, ["i1", "i2", "i3"]), (profile, inds)]
        calls = counting_normalizations(monkeypatch)
        rec = recover_gswf_weights(oracle, inds, case.PREFS, case.V, validation=validation)
        assert rec.max_residual <= 1e-12
        assert {calls[f"preference {r}"] for r in case.PREFS} == {1}
        assert not set(calls) & set(inds)


def pareto_profile(weights, utils, v, sets=None):
    """Forward-generate coalition utilities under fixed welfare weights."""
    names = sorted(utils)
    table = {}
    for f in names:
        table[frozenset([f])] = np.asarray(utils[f], dtype=float)
    groups = sets or [
        c
        for size in range(2, len(names) + 1)
        for c in itertools.combinations(names, size)
    ]
    normalized = {f: normalize_to_H(u, v) for f, u in utils.items()}
    for combo in groups:
        table[frozenset(combo)] = aggregate_coalition(weights, normalized, combo)
    return DatasetSource(len(v), table)


class TestExtendedPareto:
    V = np.array([1.0, 1.0])

    def test_consistent_profile_passes_with_weights(self):
        utils = {"p": [1.5, 0.5], "q": [0.25, 0.75], "r": [0.5, 0.4]}
        src = pareto_profile({"p": 1.0, "q": 3.0, "r": 2.0}, utils, self.V)
        report = check_extended_pareto(src, self.V)
        assert report.satisfied
        assert not report.violations
        assert report.weights is not None
        assert report.weights["q"] / report.weights["p"] == pytest.approx(3.0)

    def test_violation_carries_a_certificate(self):
        utils = {"p": [1.0, 0.0], "q": [0.0, 1.0]}
        table = {
            frozenset(["p"]): np.array([1.0, 0.0]),
            frozenset(["q"]): np.array([0.0, 1.0]),
            # The coalition tilts outside the segment of normalized parts.
            frozenset(["p", "q"]): np.array([0.9, -0.2]),
        }
        src = DatasetSource(2, table)
        report = check_extended_pareto(src, self.V)
        assert not report.satisfied
        assert report.violations
        farkas = report.violations[0].farkas
        assert isinstance(farkas, Certificate)


class TestGswfRecovery:
    V = np.array([1.0, 1.0, 1.0])
    PREFS = {
        "r1": [3.0, 1.0, 1.0],
        "r2": [1.0, 3.0, 1.0],
        "r3": [1.0, 1.0, 3.0],
    }

    def true_weights(self, inds, prefs):
        rng = np.random.default_rng(99)
        return {
            (i, r): float(rng.uniform(0.5, 2.0))
            for i in inds
            for r in prefs
        }

    def oracle_from(self, weights):
        normalized = {r: normalize_to_H(u, self.V) for r, u in self.PREFS.items()}

        def oracle(profile, coalition):
            num = np.zeros(3)
            den = 0.0
            for i in sorted(coalition):
                w = weights[(i, profile[i])]
                num += w * normalized[profile[i]]
                den += w
            return num / den

        return oracle

    def test_known_weights_recovered_up_to_scale(self):
        inds = ["i1", "i2", "i3", "i4", "i5"]
        true = self.true_weights(inds, self.PREFS)
        rec = recover_gswf_weights(self.oracle_from(true), inds, self.PREFS, self.V)
        anchor = rec.weights[(rec.reference_individual, rec.reference_preference)]
        scale = true[(rec.reference_individual, rec.reference_preference)] / anchor
        for key, w in rec.weights.items():
            assert w * scale == pytest.approx(true[key], rel=1e-9), key

    def test_anonymous_oracle_gives_individual_free_table(self):
        inds = ["i1", "i2", "i3", "i4"]
        per_pref = {"r1": 1.0, "r2": 2.5, "r3": 0.5}
        anon = {(i, r): per_pref[r] for i in inds for r in self.PREFS}
        rec = recover_gswf_weights(self.oracle_from(anon), inds, self.PREFS, self.V)
        for r in self.PREFS:
            column = {rec.weights[(i, r)] for i in inds}
            lo, hi = min(column), max(column)
            assert hi - lo <= 1e-9 * max(1.0, hi)

    def test_validation_residuals(self):
        inds = ["i1", "i2", "i3", "i4"]
        oracle = self.oracle_from(self.true_weights(inds, self.PREFS))
        profile = {"i1": "r1", "i2": "r2", "i3": "r3", "i4": "r1"}
        validation = [(profile, ["i1", "i2", "i3"])]
        rec = recover_gswf_weights(oracle, inds, self.PREFS, self.V, validation=validation)
        assert [label for label, _ in rec.validation_residuals] == ["{i1,i2,i3}"]
        assert rec.max_residual <= 1e-12

        def tilted(profile, coalition):
            out = oracle(profile, coalition)
            # The tilt keeps <out, V>, so it survives normalization.
            return out + np.array([1e-3, -1e-3, 0.0]) if len(coalition) == 3 else out

        rec = recover_gswf_weights(tilted, inds, self.PREFS, self.V, validation=validation)
        assert rec.max_residual == pytest.approx(np.sqrt(2.0) * 1e-3, rel=1e-6)

        unknown = [({**profile, "i1": "r9"}, ["i1", "i2"])]
        with pytest.raises(MissingDataError):
            recover_gswf_weights(oracle, inds, self.PREFS, self.V, validation=unknown)

    def test_needs_four_individuals(self):
        with pytest.raises(ValueError):
            recover_gswf_weights(
                self.oracle_from(self.true_weights(["i1", "i2", "i3"], self.PREFS)),
                ["i1", "i2", "i3"],
                self.PREFS,
                self.V,
            )

    def test_identical_preferences_rejected(self):
        prefs = {"r1": [3.0, 1.0, 1.0], "r2": [6.0, 2.0, 2.0]}
        with pytest.raises(ValueError):
            recover_gswf_weights(
                lambda profile, coalition: np.ones(3) / 3.0,
                ["i1", "i2", "i3", "i4"],
                prefs,
                self.V,
            )


class TestRelativeUtilitarianWeight:
    def test_reciprocal_of_the_range(self):
        assert relative_utilitarian_weight([0.0, 2.0, 1.0]) == pytest.approx(0.5)

    def test_constant_utility_rejected(self):
        with pytest.raises(ConstantUtility):
            relative_utilitarian_weight([1.0, 1.0, 1.0])


class TestStateDependentRecovery:
    V = np.array([1.0, 1.0])

    def test_quarter_three_quarter_probabilities(self):
        us1 = np.array([0.9, 0.1])
        us2 = np.array([0.3, 0.7])
        table = {
            frozenset(["s1"]): us1,
            frozenset(["s2"]): us2,
            frozenset(["s1", "s2"]): 0.25 * us1 + 0.75 * us2,
        }
        src = DatasetSource(2, table)
        out = recover_state_dependent(src, self.V)
        assert isinstance(out, StateDependentRepresentation)
        assert out.probabilities["s1"] == pytest.approx(0.25, rel=1e-9)
        assert out.probabilities["s2"] == pytest.approx(0.75, rel=1e-9)
        assert not out.indeterminate

    def test_ranked_states_are_not_representable(self):
        # A conditioning set that ignores one state cannot come from a
        # strictly positive prior.
        us1 = np.array([0.9, 0.1])
        us2 = np.array([0.3, 0.7])
        table = {
            frozenset(["s1"]): us1,
            frozenset(["s2"]): us2,
            frozenset(["s1", "s2"]): us1.copy(),
        }
        src = DatasetSource(2, table)
        out = recover_state_dependent(src, self.V)
        assert isinstance(out, NonRepresentable)
