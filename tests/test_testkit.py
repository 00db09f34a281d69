"""Seeded generators and the independent brute-force checker."""

import math

import numpy as np
import pytest

from aggkit import (
    AxiomMode,
    DatasetSource,
    GeneratorConfig,
    OutcomePolicy,
    SubsetPolicy,
    affine_dimension,
    brute_force_axiom_check,
    check_axiom,
    gen_dataset,
    gen_representation,
    perturb,
)
from aggkit.errors import TooLarge, UnsatisfiablePolicy


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, feature_count=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, rank_classes=9, feature_count=4)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, weight_range=(0.0, 1.0))
        for hi in (float("inf"), float("nan"), 10**400):  # numpy cannot draw below such a bound
            with pytest.raises(ValueError, match="^weight_range must be positive, finite and ordered"):
                GeneratorConfig(seed=1, weight_range=(0.5, hi))

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None), ("feature_count", 3.5),
         ("feature_count", 0), ("dimension", 2.5), ("dimension", False), ("rank_classes", "1")],
    )
    def test_counts_are_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GeneratorConfig(**{"seed": 1, field: value})

    def test_whole_floats_are_integers(self):
        cfg = GeneratorConfig(seed=3.0, feature_count=5.0, dimension=2.0, rank_classes=1.0)
        assert (cfg.seed, cfg.feature_count, cfg.dimension, cfg.rank_classes) == (3, 5, 2, 1)
        assert all(type(v) is int for v in (cfg.seed, cfg.feature_count, cfg.dimension, cfg.rank_classes))
        assert cfg == GeneratorConfig(seed=3, feature_count=5, dimension=2, rank_classes=1)


class TestGenRepresentation:
    def test_same_seed_same_representation(self):
        cfg = GeneratorConfig(seed=123, feature_count=6, dimension=3, rank_classes=2)
        r1 = gen_representation(cfg)
        r2 = gen_representation(cfg)
        assert dict(r1.ranks) == dict(r2.ranks)
        for f in r1.features():
            assert r1.weights[f] == r2.weights[f]
            np.testing.assert_array_equal(r1.outcomes[f], r2.outcomes[f])

    def test_rich_classes_span_planes(self):
        cfg = GeneratorConfig(seed=5, feature_count=7, dimension=3, rank_classes=2)
        rep = gen_representation(cfg)
        for block in rep.rank_classes():
            pts = [rep.outcomes[f] for f in block]
            assert affine_dimension(pts) >= 2

    def test_rich_policy_needs_three_per_class(self):
        with pytest.raises(UnsatisfiablePolicy):
            gen_representation(GeneratorConfig(seed=1, feature_count=5, rank_classes=2))

    def test_collinear_policy_stays_on_a_line(self):
        cfg = GeneratorConfig(
            seed=8,
            feature_count=5,
            dimension=3,
            outcome_policy=OutcomePolicy.COLLINEAR,
        )
        rep = gen_representation(cfg)
        pts = [rep.outcomes[f] for f in rep.features()]
        assert affine_dimension(pts) <= 1

    def test_simplex_policy_emits_distributions(self):
        cfg = GeneratorConfig(
            seed=9,
            feature_count=4,
            dimension=3,
            outcome_policy=OutcomePolicy.SIMPLEX_BELIEFS,
        )
        rep = gen_representation(cfg)
        for f in rep.features():
            out = rep.outcomes[f]
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0)

    def test_simplex_needs_three_states(self):
        with pytest.raises(UnsatisfiablePolicy):
            gen_representation(
                GeneratorConfig(
                    seed=1,
                    feature_count=4,
                    dimension=2,
                    outcome_policy=OutcomePolicy.SIMPLEX_BELIEFS,
                )
            )


class TestGenDataset:
    def test_all_subsets_counts(self):
        rep = gen_representation(GeneratorConfig(seed=2, feature_count=4, dimension=2, rank_classes=1))
        src = gen_dataset(rep, SubsetPolicy.ALL_SUBSETS)
        assert len(src.sets()) == 15

    def test_pairs_and_triples(self):
        rep = gen_representation(GeneratorConfig(seed=2, feature_count=5, dimension=2))
        src = gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)
        sizes = {len(s) for s in src.sets()}
        assert sizes == {1, 2, 3}

    def test_all_subsets_refused_beyond_the_cap(self):
        rep = gen_representation(
            GeneratorConfig(seed=3, feature_count=11, dimension=2, rank_classes=1)
        )
        with pytest.raises(TooLarge):
            gen_dataset(rep, SubsetPolicy.ALL_SUBSETS)

    def test_custom_set_list(self):
        rep = gen_representation(GeneratorConfig(seed=4, feature_count=3, dimension=2))
        src = gen_dataset(rep, [("x00",), ("x01",), ("x02",), ("x00", "x01")])
        assert len(src.sets()) == 4


class TestBruteForce:
    def test_clean_data_satisfies(self, two_tier_source):
        report = brute_force_axiom_check(two_tier_source, AxiomMode.WEIGHTED)
        assert report.satisfied
        assert bool(report)
        assert not report.violations

    def test_agrees_with_main_checker_on_perturbed_data(self, flat_source):
        noisy = perturb(flat_source, magnitude=1e-2, seed=77)
        main = check_axiom(noisy, AxiomMode.WEIGHTED)
        brute = brute_force_axiom_check(noisy, AxiomMode.WEIGHTED)
        main_violations = {
            (c.set_a, c.set_b) for c in main.checks if not c.passed
        }
        assert main.satisfied == brute.satisfied
        assert main_violations == set(brute.violations)
        assert not brute.satisfied

    def test_strict_mode_flags_endpoints(self, two_tier_source):
        brute = brute_force_axiom_check(two_tier_source, AxiomMode.STRICT)
        assert not brute.satisfied

    def test_counterexample_pairs_look_fine(self, line_three_points):
        # The contradiction is invisible to split-by-split inspection.
        report = brute_force_axiom_check(line_three_points, AxiomMode.STRICT)
        assert report.satisfied


class TestPerturb:
    def test_singletons_untouched(self, flat_source):
        noisy = perturb(flat_source, magnitude=0.5, seed=1)
        for f in ("a", "b", "c"):
            np.testing.assert_array_equal(
                noisy.outcome([f]), flat_source.outcome([f])
            )

    def test_aggregates_move_within_bound(self, flat_source):
        noisy = perturb(flat_source, magnitude=0.01, seed=1)
        moved = noisy.outcome(["a", "b"]) - flat_source.outcome(["a", "b"])
        assert 0.0 < float(np.abs(moved).max()) <= 0.01

    def test_negative_magnitude_rejected(self, flat_source):
        # So is one whose noise interval is wider than the largest float.
        for magnitude in (-1.0, 1e308, math.nan, math.inf):
            with pytest.raises(ValueError, match="magnitude must be non-negative"):
                perturb(flat_source, magnitude=magnitude, seed=0)

    def test_overflowing_noise_rejected(self):
        # Near the largest float the noise can overflow: no outcome is inf.
        src = DatasetSource(2, {frozenset(k): [1.7e308, -1.7e308] for k in ("a", "b", "ab")})
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite coordinates"):
            perturb(src, magnitude=8e307, seed=0)
        assert np.isfinite(perturb(src, magnitude=8e307, seed=1).outcome(["a", "b"])).all()
