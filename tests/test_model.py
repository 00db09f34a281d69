"""Sources, representations, and the averaging-axiom checker."""

import sys

import numpy as np
import pytest

from aggkit import (
    AxiomMode,
    DatasetSource,
    GeneratorConfig,
    Representation,
    SubsetPolicy,
    Tolerance,
    check_axiom,
    check_richness,
    check_strong_richness,
    evaluate,
    feature_set,
    gen_dataset,
    gen_representation,
    induced_source,
    top_set,
)
from aggkit import model
from aggkit.errors import (
    MissingDataError,
    MissingSingleton,
    TooLarge,
)
from aggkit.model import _ID_FORBIDDEN, validate_feature_id


class TestFeatureSet:
    def test_accepts_string_or_iterable(self):
        assert feature_set("a") == frozenset(["a"])
        assert feature_set(["a", "b"]) == frozenset(["a", "b"])
        assert feature_set(frozenset(["b", "a"])) == frozenset(["a", "b"])

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            feature_set([""])
        with pytest.raises(ValueError):
            feature_set(["a b"])
        with pytest.raises(ValueError):
            feature_set(["a,b"])
        with pytest.raises(ValueError):
            feature_set([])

    def test_id_rule_is_whitespace_or_comma_on_every_code_point(self):
        # The compiled schema pattern against the isspace-or-comma test it
        # replaced, one character at a time over all of Unicode.
        refused = [chr(c) for c in range(sys.maxunicode + 1) if _ID_FORBIDDEN.search(chr(c))]
        old = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace() or chr(c) == ","]
        assert refused == old
        for c in refused:
            with pytest.raises(ValueError, match="may not contain whitespace or commas"):
                validate_feature_id(f"a{c}b")


class TestDatasetSource:
    def test_requires_singletons(self):
        with pytest.raises(MissingSingleton):
            DatasetSource(1, {frozenset(["a", "b"]): [0.5]})

    def test_lookup_and_missing(self):
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.0],
                frozenset(["b"]): [1.0],
                frozenset(["a", "b"]): [0.5],
            },
        )
        assert src.has(["a", "b"])
        np.testing.assert_allclose(src.outcome(["b", "a"]), [0.5])
        with pytest.raises(MissingDataError) as err:
            src.outcome(["a", "c"])
        assert err.value.required

    def test_outcomes_are_read_only(self):
        src = DatasetSource(2, {frozenset(["a"]): [1.0, 2.0]})
        out = src.outcome(["a"])
        with pytest.raises(ValueError):
            out[0] = 9.0

    def test_sets_are_canonically_ordered(self):
        src = DatasetSource(
            1,
            {
                frozenset(["b"]): [1.0],
                frozenset(["a"]): [0.0],
                frozenset(["a", "b"]): [0.5],
            },
        )
        assert src.sets() == (
            frozenset(["a"]),
            frozenset(["b"]),
            frozenset(["a", "b"]),
        )


class TestRepresentation:
    def test_normalizes_each_class_at_smallest_member(self):
        rep = Representation(
            weights={"a": 2.0, "b": 4.0, "c": 10.0},
            ranks={"a": 0, "b": 0, "c": 1},
            outcomes={"a": [0.0], "b": [1.0], "c": [2.0]},
        )
        assert rep.weights["a"] == pytest.approx(1.0)
        assert rep.weights["b"] == pytest.approx(2.0)
        assert rep.weights["c"] == pytest.approx(1.0)

    def test_rank_classes_listed_top_down(self, two_tier_rep):
        classes = two_tier_rep.rank_classes()
        assert classes[0] == ("c",)
        assert classes[1] == ("a", "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            Representation(weights={"a": 1.0}, ranks={}, outcomes={"a": [0.0]})
        with pytest.raises(ValueError):
            Representation(
                weights={"a": -1.0}, ranks={"a": 0}, outcomes={"a": [0.0]}
            )

    def test_top_set_and_evaluate(self, two_tier_rep):
        assert top_set(two_tier_rep, ["a", "b", "c"]) == frozenset(["c"])
        np.testing.assert_allclose(
            evaluate(two_tier_rep, ["a", "b", "c"]), [0.2, 0.9]
        )
        # Within the bottom class the weights 1 and 2 mix the outcomes.
        np.testing.assert_allclose(
            evaluate(two_tier_rep, ["a", "b"]), [2.0 / 3.0, 0.0]
        )


class TestInducedSource:
    def test_all_subsets(self, two_tier_rep):
        src = induced_source(two_tier_rep)
        assert len(src.sets()) == 7

    def test_custom_sets_keep_singletons(self, two_tier_rep):
        src = induced_source(two_tier_rep, [("a", "b")])
        assert src.has(["a"])
        assert src.has(["b"])
        assert src.has(["a", "b"])

    def test_all_subsets_refused_beyond_ten_features(self):
        def rep(count):
            return gen_representation(GeneratorConfig(seed=5, feature_count=count, dimension=2))

        assert len(induced_source(rep(10)).sets()) == 2**10 - 1
        with pytest.raises(TooLarge, match="all subsets of 11 features is too large; the limit is 10"):
            induced_source(rep(11))
        # A given list of sets has no such limit.
        assert len(induced_source(rep(11), [("x00", "x10")]).sets()) == 12


class TestCheckAxiom:
    def test_weighted_holds_on_induced_data(self, two_tier_source):
        report = check_axiom(two_tier_source, AxiomMode.WEIGHTED)
        assert report.satisfied
        assert not report.violations

    def test_strict_fails_on_two_tiers(self, two_tier_source):
        # Adding c to {a, b} snaps the outcome to c itself: an endpoint.
        report = check_axiom(two_tier_source, AxiomMode.STRICT)
        assert not report.satisfied
        bad_unions = {v.union for v in report.violations}
        assert ("a", "b", "c") in bad_unions

    def test_strict_holds_on_single_class(self, flat_source):
        assert check_axiom(flat_source, AxiomMode.STRICT).satisfied

    def test_extreme_holds_for_dictatorial_ranks(self):
        rep = Representation(
            weights={"a": 1.0, "b": 1.0, "c": 1.0},
            ranks={"a": 0, "b": 1, "c": 2},
            outcomes={"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0]},
        )
        src = induced_source(rep)
        assert check_axiom(src, AxiomMode.EXTREME).satisfied
        assert not check_axiom(src, AxiomMode.STRICT).satisfied

    def test_off_segment_pair_is_flagged(self):
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["a", "b"]): [0.5, 0.3],
            },
        )
        report = check_axiom(src, AxiomMode.WEIGHTED)
        assert not report.satisfied
        assert report.violations[0].residual == pytest.approx(0.3)

    def test_degenerate_equal_outcomes_pass(self):
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.7],
                frozenset(["b"]): [0.7],
                frozenset(["a", "b"]): [0.7],
            },
        )
        for mode in AxiomMode:
            assert check_axiom(src, mode).satisfied

    def test_degenerate_differing_union_fails(self):
        src = DatasetSource(
            1,
            {
                frozenset(["a"]): [0.7],
                frozenset(["b"]): [0.7],
                frozenset(["a", "b"]): [0.9],
            },
        )
        report = check_axiom(src, AxiomMode.WEIGHTED)
        assert not report.satisfied
        assert report.violations[0].degenerate

    def test_every_bipartition_is_checked(self, flat_source):
        report = check_axiom(flat_source, AxiomMode.WEIGHTED)
        # Three pair unions with one split each, one triple with three.
        assert len(report.checks) == 6


class TestRichness:
    def test_plane_spanning_data_is_rich(self, flat_source):
        assert check_richness(flat_source)

    def test_collinear_data_is_not(self, line_three_points):
        assert not check_richness(line_three_points)


class TestStrongRichness:
    def test_full_triangle_has_witnesses(self, flat_source):
        report = check_strong_richness(flat_source)
        assert report.satisfied
        for entry in report.entries:
            assert entry.witness is not None

    def test_missing_pairs_block_the_decision(self):
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["c"]): [0.0, 1.0],
            },
        )
        with pytest.raises(MissingDataError) as err:
            check_strong_richness(src)
        assert err.value.required

    def test_endpoint_aggregates_lose_the_witness(self):
        # Pair outcomes equal to one endpoint are not interior.
        src = DatasetSource(
            2,
            {
                frozenset(["a"]): [0.0, 0.0],
                frozenset(["b"]): [1.0, 0.0],
                frozenset(["c"]): [0.0, 1.0],
                frozenset(["a", "b"]): [0.0, 0.0],
                frozenset(["a", "c"]): [0.0, 0.0],
                frozenset(["b", "c"]): [0.5, 0.5],
            },
        )
        report = check_strong_richness(src)
        assert not report.satisfied
        assert report.entries[0].feature == "a"
        assert report.entries[0].witness is None

    def test_first_candidates_in_one_stacked_test(self, monkeypatch):
        # The interior pairs are one array pass; every feature's first
        # candidate triple is then one row of a single stacked test, and
        # none is collinear, so no triple is tested on its own.
        rep = gen_representation(
            GeneratorConfig(seed=6, feature_count=18, dimension=2, rank_classes=2)
        )
        src = gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)
        single, stacked = [], []

        def counted(calls, rank):
            def wrapper(mat, tol):
                calls.append(len(mat))
                return rank(mat, tol)

            return wrapper

        monkeypatch.setattr(model, "_affine_rank", counted(single, model._affine_rank))
        monkeypatch.setattr(model, "_affine_ranks", counted(stacked, model._affine_ranks))
        report = check_strong_richness(src)
        assert report.satisfied
        assert (single, stacked) == ([], [18])
