"""Dataset file format: parsing, validation, and canonical output."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import aggkit
from aggkit import dataset_to_json, dump_json, load_dataset
from aggkit.errors import DatasetFormatError
from aggkit.fileio import jnum, jvec


def parse(doc):
    return load_dataset(io.StringIO(json.dumps(doc)))


def minimal(**overrides):
    doc = {
        "format_version": "1",
        "kind": "generic",
        "dimension": 1,
        "features": {"a": {"outcome": [0.0]}, "b": {"outcome": [1.0]}},
        "sets": [{"members": ["a", "b"], "outcome": [0.5]}],
    }
    doc.update(overrides)
    return doc


class TestLoadDataset:
    def test_happy_path(self):
        doc = parse(minimal())
        assert doc.kind == "generic"
        assert doc.dimension == 1
        np.testing.assert_allclose(doc.source.outcome(["a", "b"]), [0.5])

    def test_not_json(self):
        with pytest.raises(DatasetFormatError):
            load_dataset(io.StringIO("not json {"))

    def test_version_and_kind_gates(self):
        with pytest.raises(DatasetFormatError):
            parse(minimal(format_version="2"))
        with pytest.raises(DatasetFormatError):
            parse(minimal(kind="mystery"))

    def test_dimension_must_be_positive_int(self):
        with pytest.raises(DatasetFormatError):
            parse(minimal(dimension=0))
        with pytest.raises(DatasetFormatError):
            parse(minimal(dimension="2"))
        with pytest.raises(DatasetFormatError):
            parse(minimal(dimension=True))

    def test_outcome_length_checked(self):
        doc = minimal()
        doc["features"]["a"]["outcome"] = [0.0, 0.0]
        with pytest.raises(DatasetFormatError) as err:
            parse(doc)
        assert "a" in err.value.location

    def test_non_finite_outcomes_rejected(self):
        doc = minimal()
        doc["sets"][0]["outcome"] = [math.inf]
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_undeclared_member_rejected(self):
        doc = minimal()
        doc["sets"][0]["members"] = ["a", "zzz"]
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_duplicate_sets_rejected(self):
        doc = minimal()
        doc["sets"].append({"members": ["b", "a"], "outcome": [0.7]})
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_singleton_entry_must_agree_with_feature(self):
        doc = minimal()
        doc["sets"].append({"members": ["a"], "outcome": [0.9]})
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_bad_feature_ids_rejected(self):
        doc = minimal()
        doc["features"]["has space"] = {"outcome": [0.0]}
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_feature_weights_parsed(self):
        doc = minimal()
        doc["features"]["a"]["weight"] = 2.5
        parsed = parse(doc)
        assert parsed.feature_weights == {"a": 2.5}

    def test_nonpositive_weight_rejected(self):
        doc = minimal()
        doc["features"]["a"]["weight"] = 0.0
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_timing_only_in_timed_kind(self):
        doc = minimal()
        doc["sets"][0]["timing"] = {"a": 1, "b": 2}
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_timed_kind_collects_queries(self):
        doc = minimal(kind="timed")
        doc["sets"] = [
            {"members": ["a", "b"], "outcome": [0.5]},
            {"members": ["a", "b"], "outcome": [0.4], "timing": {"a": 1, "b": 2}},
        ]
        parsed = parse(doc)
        keys = {q.key() for q, _ in parsed.timed}
        assert (("a", 1), ("b", 1)) in keys
        assert (("a", 1), ("b", 2)) in keys
        # The all-ones record doubles as the flat pair outcome.
        np.testing.assert_allclose(parsed.source.outcome(["a", "b"]), [0.5])

    def test_timing_must_cover_members(self):
        doc = minimal(kind="timed")
        doc["sets"] = [
            {"members": ["a", "b"], "outcome": [0.5], "timing": {"a": 1}},
        ]
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_belief_kind_validates_rows(self):
        doc = minimal(kind="belief", dimension=2)
        doc["features"] = {
            "a": {"outcome": [0.9, 0.2]},
            "b": {"outcome": [0.5, 0.5]},
        }
        doc["sets"] = []
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_profile_kind_requires_direction(self):
        doc = minimal(kind="profile")
        with pytest.raises(DatasetFormatError):
            parse(doc)
        doc["direction"] = [1.0]
        doc["features"] = {"a": {"outcome": [0.5]}, "b": {"outcome": [1.0]}}
        parsed = parse(doc)
        np.testing.assert_allclose(parsed.direction, [1.0])

    def test_weight_table_parsed_and_checked(self):
        doc = minimal(weights={"a": 1.0, "b": 3.0})
        parsed = parse(doc)
        assert parsed.weight_table == {"a": 1.0, "b": 3.0}
        with pytest.raises(DatasetFormatError):
            parse(minimal(weights={"zzz": 1.0}))


class TestDumpAndRoundTrip:
    def test_canonical_bytes(self):
        buf1, buf2 = io.StringIO(), io.StringIO()
        dump_json({"b": 1, "a": [1.5]}, buf1)
        dump_json({"a": [1.5], "b": 1}, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert buf1.getvalue().endswith("\n")

    def test_round_trip_preserves_outcomes(self, two_tier_source):
        doc = dataset_to_json(two_tier_source, kind="generic")
        parsed = parse(doc)
        for s in two_tier_source.sets():
            np.testing.assert_array_equal(
                parsed.source.outcome(s), two_tier_source.outcome(s)
            )

    def test_jnum_maps_non_finite_to_none(self):
        assert jnum(1.5) == 1.5
        assert jnum(math.nan) is None
        assert jnum(math.inf) is None
        assert jvec([1.0, math.nan]) == [1.0, None]


def _with(doc, path, key, value):
    """Copy of ``doc`` with ``key`` set on the object at ``path``."""
    out = json.loads(json.dumps(doc))
    target = out
    for step in path:
        target = target[step]
    target[key] = value
    return out


class TestSchemaAgreement:
    """The loader and schemas/dataset.schema.json accept the same documents."""

    @pytest.fixture(scope="class")
    def validator(self):
        import jsonschema

        path = Path(aggkit.__file__).parent / "schemas" / "dataset.schema.json"
        schema = json.loads(path.read_text())
        return jsonschema.Draft7Validator(schema)

    @pytest.mark.parametrize(
        "path, key, value",
        [
            ((), "set", [{"members": ["a", "b"], "outcome": [0.5]}]),
            ((), "directions", [1.0]),
            (("features", "a"), "wieght", 2.0),
            (("sets", 0), "note", "typo"),
            (("sets", 0), "weight", 1.0),
        ],
    )
    def test_unknown_keys_rejected_by_both(self, validator, path, key, value):
        doc = _with(minimal(), path, key, value)
        assert not validator.is_valid(doc)
        with pytest.raises(DatasetFormatError, match=repr(key)):
            parse(doc)

    def test_unhashable_member_rejected_by_both(self, validator):
        doc = _with(minimal(), ("sets", 0), "members", [["a"], "b"])
        assert not validator.is_valid(doc)
        with pytest.raises(DatasetFormatError, match="undeclared feature"):
            parse(doc)

    def test_fixtures_accepted_by_both(self, validator, fixtures_dir):
        paths = sorted(fixtures_dir.glob("*.json"))
        assert paths
        for path in paths:
            doc = json.loads(path.read_text())
            validator.validate(doc)
            parse(doc)

    def test_generated_dataset_accepted_by_both(self, validator, run_cli):
        code, out = run_cli("gen", "--seed", "5", "--features", "4")
        assert code == 0
        doc = json.loads(out)["result"]["dataset"]
        validator.validate(doc)
        parse(doc)
