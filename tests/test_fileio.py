"""Dataset file format: parsing, validation, and canonical output."""

import io
import itertools
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggkit
from aggkit import dataset_to_json, dump_json, fileio, load_dataset
from aggkit.errors import DatasetFormatError


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


def _corpus_base():
    """Three features and three stored sets; the faults edit sets[1] and sets[2]."""
    return {
        "format_version": "1",
        "kind": "generic",
        "dimension": 2,
        "features": {"a": {"outcome": [0, 1]}, "b": {"outcome": [1, 0]}, "c": {"outcome": [1, 1]}},
        "sets": [
            {"members": ["a", "b"], "outcome": [0.5, 0.5]},
            {"members": ["b", "c"], "outcome": [1, 0.5]},
            {"members": ["a", "b", "c"], "outcome": [0.75, 0.5]},
        ],
    }


def _set_field(key, value, idx=1):
    def edit(doc):
        doc["sets"][idx][key] = value

    return edit


def _set_entry(value, idx=1):
    def edit(doc):
        doc["sets"][idx] = value

    return edit


def _set_without(key, idx=1):
    def edit(doc):
        del doc["sets"][idx][key]

    return edit


def _timing(value, kind="timed"):
    def edit(doc):
        doc["kind"] = kind
        doc["sets"][1]["timing"] = value

    return edit


def _timed_entry(value):
    def edit(doc):
        doc["kind"] = "timed"
        doc["sets"][1] = value

    return edit


def _timed_twice(doc):
    """sets[1] and sets[2] both give the timed query {b@1, c@2}, with two outcomes."""
    doc["kind"] = "timed"
    doc["sets"][1]["timing"] = {"b": 1, "c": 2}
    doc["sets"][2] = {"members": ["c", "b"], "outcome": [0.9, 0.1], "timing": {"c": 2, "b": 1}}


def _feature(fid, value):
    def edit(doc):
        doc["features"][fid] = value

    return edit


_BIG = 10**400
_ABOVE_MAX = int(sys.float_info.max) + 1  # converts to the largest float
_SET_KEYS_MSG = "expected keys among ('members', 'outcome', 'timing')"

# (fault, edit, location, message): each document carries one fault.
ONE_FAULT = [
    ("non-number", _set_field("outcome", [0.5, "x"]), "sets[1].outcome[1]", "expected a number, got 'x'"),
    ("null", _set_field("outcome", [None, 0.5]), "sets[1].outcome[0]", "expected a number, got None"),
    ("bool", _set_field("outcome", [True, 0.5]), "sets[1].outcome[0]", "expected a number, got True"),
    ("nested list", _set_field("outcome", [[0.5], 0.5]), "sets[1].outcome[0]",
     "expected a number, got [0.5]"),
    ("NaN", _set_field("outcome", [math.nan, 0.5]), "sets[1].outcome[0]", "non-finite value nan"),
    ("Infinity", _set_field("outcome", [0.5, math.inf]), "sets[1].outcome[1]", "non-finite value inf"),
    ("-Infinity", _set_field("outcome", [0.5, -math.inf]), "sets[1].outcome[1]", "non-finite value -inf"),
    ("10**400", _set_field("outcome", [_BIG, 0]), "sets[1].outcome[0]", f"non-finite value {_BIG}"),
    ("-10**400", _set_field("outcome", [0, -_BIG]), "sets[1].outcome[1]", f"non-finite value {-_BIG}"),
    ("just above the largest float", _set_field("outcome", [_ABOVE_MAX, 0]), "sets[1].outcome[0]",
     f"non-finite value {_ABOVE_MAX}"),
    ("wrong length", _set_field("outcome", [0.5]), "sets[1].outcome", "length 1 does not match dimension 2"),
    ("too long", _set_field("outcome", [0.5] * 3), "sets[1].outcome", "length 3 does not match dimension 2"),
    ("empty outcome", _set_field("outcome", []), "sets[1].outcome", "length 0 does not match dimension 2"),
    ("object outcome", _set_field("outcome", {"x": 0.5}), "sets[1].outcome", "expected an array of numbers"),
    ("number outcome", _set_field("outcome", 0.5), "sets[1].outcome", "expected an array of numbers"),
    ("string outcome", _set_field("outcome", "0.5,0.5"), "sets[1].outcome", "expected an array of numbers"),
    ("no outcome", _set_without("outcome"), "sets[1]", "missing required key 'outcome'"),
    ("undeclared member", _set_field("members", ["b", "zzz"]), "sets[1].members", "undeclared feature 'zzz'"),
    ("non-string member", _set_field("members", ["b", 1]), "sets[1].members", "undeclared feature 1"),
    ("array member", _set_field("members", ["b", ["c"]]), "sets[1].members", "undeclared feature ['c']"),
    ("duplicate members", _set_field("members", ["b", "c", "b"]), "sets[1].members", "duplicate members"),
    ("empty members", _set_field("members", []), "sets[1].members",
     "expected a non-empty array of feature ids"),
    ("string members", _set_field("members", "b"), "sets[1].members",
     "expected a non-empty array of feature ids"),
    ("no members", _set_without("members"), "sets[1]", "missing required key 'members'"),
    ("duplicate set", _set_field("members", ["b", "a"]), "sets[1].members", "duplicate set ['a', 'b']"),
    ("singleton disagrees", _set_entry({"members": ["a"], "outcome": [1, 1]}), "sets[1].outcome",
     "singleton disagrees with its feature entry"),
    ("unknown set key", _set_field("weight", 1), "sets[1]", f"unknown key 'weight', {_SET_KEYS_MSG}"),
    ("set not an object", _set_entry(["b", "c"]), "sets[1]", "expected an object"),
    ("timing outside timed kind", _timing({"b": 1, "c": 2}, kind="generic"), "sets[1].timing",
     "timing is only allowed in timed datasets"),
    ("timing not an object", _timing([1, 2]), "sets[1].timing", "expected an object"),
    ("timing misses a member", _timing({"b": 1}), "sets[1].timing['c']",
     "expected a positive integer, got None"),
    ("timing zero", _timing({"b": 0, "c": 1}), "sets[1].timing['b']", "expected a positive integer, got 0"),
    ("timing bool", _timing({"b": True, "c": 1}), "sets[1].timing['b']",
     "expected a positive integer, got True"),
    ("timing fraction", _timing({"b": 1.5, "c": 1}), "sets[1].timing['b']",
     "expected a positive integer, got 1.5"),
    ("timing string", _timing({"b": "1", "c": 1}), "sets[1].timing['b']",
     "expected a positive integer, got '1'"),
    ("timing for a non-member", _timing({"b": 1, "c": 1, "a": 1}), "sets[1].timing",
     "times for non-members ['a']"),
    ("timed duplicate set", _timed_entry({"members": ["a", "b"], "outcome": [0.9, 0.1], "timing": {"a": 1, "b": 1}}),
     "sets[1].members", "duplicate set ['a', 'b']"),
    ("timed query twice", _timed_twice, "sets[2].timing", "duplicate timed query ['b@1', 'c@2']"),
    ("timed singleton disagrees", _timed_entry({"members": ["a"], "outcome": [9, 9], "timing": {"a": 1}}),
     "sets[1].outcome", "singleton disagrees with its feature entry"),
    ("feature NaN", _feature("b", {"outcome": [math.nan, 0]}), "features['b'].outcome[0]",
     "non-finite value nan"),
    ("feature wrong length", _feature("b", {"outcome": [1]}), "features['b'].outcome",
     "length 1 does not match dimension 2"),
    ("feature bool", _feature("b", {"outcome": [1, False]}), "features['b'].outcome[1]",
     "expected a number, got False"),
    ("feature unknown key", _feature("b", {"outcome": [1, 0], "rank": 1}), "features['b']",
     "unknown key 'rank', expected keys among ('outcome', 'weight')"),
    ("feature bad id", _feature("b c", {"outcome": [1, 0]}), "features['b c']",
     "feature ids are non-empty strings without spaces or commas"),
]

# (faults, edits, location, message): two faults in different set records;
# the one in the earlier record is reported.
TWO_FAULTS = [
    ("NaN, undeclared", [_set_field("outcome", [math.nan, 0]), _set_field("members", ["a", "z"], 2)],
     "sets[1].outcome[0]", "non-finite value nan"),
    ("undeclared, NaN", [_set_field("members", ["a", "z"]), _set_field("outcome", [math.nan, 0], 2)],
     "sets[1].members", "undeclared feature 'z'"),
    ("wrong length, bool", [_set_field("outcome", [0.5]), _set_field("outcome", [True, 0], 2)],
     "sets[1].outcome", "length 1 does not match dimension 2"),
    ("bool, wrong length", [_set_field("outcome", [True, 0]), _set_field("outcome", [0.5], 2)],
     "sets[1].outcome[0]", "expected a number, got True"),
    ("duplicate members, 10**400", [_set_field("members", ["b", "b"]), _set_field("outcome", [_BIG, 0], 2)],
     "sets[1].members", "duplicate members"),
    ("unknown key, duplicate set", [_set_field("why", 1), _set_field("members", ["b", "a"], 2)],
     "sets[1]", f"unknown key 'why', {_SET_KEYS_MSG}"),
    ("duplicate set, unknown key", [_set_field("members", ["b", "a"]), _set_field("why", 1, 2)],
     "sets[1].members", "duplicate set ['a', 'b']"),
    ("singleton disagrees, Infinity",
     [_set_entry({"members": ["c"], "outcome": [0, 0]}), _set_field("outcome", [math.inf, 0], 2)],
     "sets[1].outcome", "singleton disagrees with its feature entry"),
    ("timing, non-number", [_timing({"b": 0, "c": 1}), _set_field("outcome", ["x", 0], 2)],
     "sets[1].timing['b']", "expected a positive integer, got 0"),
]


def _cases(table):
    return [pytest.param(*case[1:], id=case[0]) for case in table]


def _corpus_error(edits):
    doc = _corpus_base()
    for edit in edits:
        edit(doc)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(io.StringIO(json.dumps(doc)))
    return err.value


class TestLoaderErrorCorpus:
    """Each malformed document is refused at the same place with the same words."""

    @pytest.mark.parametrize("edit, location, message", _cases(ONE_FAULT))
    def test_one_fault(self, edit, location, message):
        err = _corpus_error([edit])
        assert (err.location, str(err)) == (location, f"{location}: {message}")

    @pytest.mark.parametrize("edits, location, message", _cases(TWO_FAULTS))
    def test_earlier_of_two_faults(self, edits, location, message):
        err = _corpus_error(edits)
        assert (err.location, str(err)) == (location, f"{location}: {message}")

    @pytest.mark.parametrize(
        "outcome",
        [[sys.float_info.max, -sys.float_info.max], [int(sys.float_info.max), 0], [2**53 + 1, -(10**30)]],
    )
    def test_numbers_at_the_edges_are_read_as_floats(self, outcome):
        doc = _corpus_base()
        doc["sets"][1]["outcome"] = outcome
        parsed = load_dataset(io.StringIO(json.dumps(doc)))
        assert parsed.source.outcome(["b", "c"]).tolist() == [float(x) for x in outcome]


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

    def test_non_finite_floats_are_written_as_null(self):
        doc = {
            "x": math.nan,
            "v": [1.5, math.inf],
            "t": fileio.Records(("r",), ([-math.inf, 0.5],)),
            "k": {math.nan: np.float64("nan")},
        }
        assert json.loads(dumped(doc)) == {
            "x": None, "v": [1.5, None], "t": [{"r": None}, {"r": 0.5}], "k": {"null": None}
        }


_ids = st.text(min_size=1, max_size=4).filter(
    lambda s: "," not in s and not any(c.isspace() for c in s)
)
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**308), 10**308),
    st.sampled_from([0, -0.0, 1e308, -1e308, 5e-324]),
)
_positive = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False), st.integers(1, 10**308)
)
# A JSON integer may be written as 2.0; the loader reads it as 2, as the schema does.
_counts = st.integers(1, 3).flatmap(lambda n: st.sampled_from([n, float(n)]))
# bool before number: True is an int to Python, not a number to JSON.
_JSON_TYPES = (bool, (int, float), type(None), str, list, dict)


def _json_type(value):
    return next(i for i, t in enumerate(_JSON_TYPES) if isinstance(value, t))


_json_values = st.one_of(
    st.none(),
    st.booleans(),
    _finite,
    st.text(max_size=3),
    st.lists(_finite | st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), _finite, max_size=2),
)


@st.composite
def dataset_documents(draw):
    """Valid dataset documents of every kind, a few features and sets each."""
    kind = draw(st.sampled_from(fileio.KINDS))
    dim = draw(_counts)
    d = int(dim)
    if kind == "belief":
        corners = [[float(i == j) for j in range(d)] for i in range(d)]
        vectors = st.sampled_from(corners + [[1.0 / d] * d])
    else:
        vectors = st.lists(_finite, min_size=d, max_size=d)
    names = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    features = {}
    for f in names:
        features[f] = {"outcome": draw(vectors)}
        if draw(st.booleans()):
            features[f]["weight"] = draw(_positive)
    doc = {"format_version": "1", "dimension": dim, "features": features}
    if kind != "generic" or draw(st.booleans()):
        doc["kind"] = kind
    unions = [c for r in range(2, len(names) + 1) for c in itertools.combinations(names, r)]
    if unions:
        sets = []
        for members in draw(st.lists(st.sampled_from(unions), max_size=3, unique=True)):
            entry = {"members": list(members), "outcome": draw(vectors)}
            if kind == "timed" and draw(st.booleans()):
                entry["timing"] = {m: draw(_counts) for m in members}
            sets.append(entry)
        doc["sets"] = sets
    if kind in ("profile", "sdeu") or draw(st.booleans()):
        doc["direction"] = draw(st.lists(_finite, min_size=d, max_size=d))
    if draw(st.booleans()):
        doc["weights"] = {f: draw(_positive) for f in draw(st.lists(st.sampled_from(names), unique=True))}
    return doc


def _places(value, path=()):
    """Every (path, key) of a dict key or list index inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _places(child, path + (key,))


# Objects with a fixed set of key names, by their path's shape.
_CLOSED = {(): fileio._TOP_KEYS, ("features", None): fileio._FEATURE_KEYS, ("sets", None): fileio._SET_KEYS}


def _closed_keys(path):
    return _CLOSED.get(path[:1] + (None,) * (len(path) - 1))


def _renamed_feature(doc, old, new):
    """``doc`` with feature ``old`` called ``new`` wherever it is named."""
    name = {old: new}
    doc["features"] = {name.get(f, f): v for f, v in doc["features"].items()}
    for entry in doc.get("sets", []):
        entry["members"] = [name.get(m, m) for m in entry["members"]]
        if "timing" in entry:
            entry["timing"] = {name.get(m, m): t for m, t in entry["timing"].items()}
    if "weights" in doc:
        doc["weights"] = {name.get(f, f): w for f, w in doc["weights"].items()}
    return doc


@st.composite
def mutated_documents(draw):
    """A valid document with one key of a closed object dropped or renamed,
    any one value replaced by a value of another JSON type, or one feature
    id changed to any other text wherever it is named."""
    doc = draw(dataset_documents())
    if draw(st.integers(0, 4)) == 0:
        old = draw(st.sampled_from(sorted(doc["features"])))
        new = draw(st.text(max_size=4).filter(lambda f: f not in doc["features"]))
        return _renamed_feature(doc, old, new)
    path, key = draw(st.sampled_from(list(_places(doc))))
    target = doc
    for step in path:
        target = target[step]
    closed = _closed_keys(path)
    change = draw(st.sampled_from(["drop", "rename", "retype"] if closed else ["retype"]))
    if change == "retype":
        old = _json_type(target[key])
        target[key] = draw(_json_values.filter(lambda v: _json_type(v) != old))
    else:
        value = target.pop(key)
        if change == "rename":
            target[draw(st.text(max_size=6).filter(lambda k: k not in closed))] = value
    return doc


def _loads(doc):
    try:
        parse(doc)
    except DatasetFormatError:
        return False
    return True


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

    @pytest.mark.parametrize("path", [(), ("features", "a"), ("sets", 0)], ids=["top", "feature", "set"])
    def test_one_grammar_table(self, validator, path):
        # The loader's closed key lists are the schema's closed objects,
        # and the keys it demands are their required lists.
        schema = validator.schema
        closed = {
            (): schema,
            ("features", "a"): schema["properties"]["features"]["additionalProperties"],
            ("sets", 0): schema["properties"]["sets"]["items"],
        }
        obj, keys = closed[path], _closed_keys(path)
        assert obj["additionalProperties"] is False
        assert sorted(obj["properties"]) == sorted(keys)
        # Every key present: a timed file with a feature weight, a weight
        # table and a direction; each key in turn is taken out.
        full = minimal(kind="timed", direction=[0.5], weights={"a": 1.0})
        full["features"]["a"]["weight"] = 2.0
        full["sets"][0]["timing"] = {"a": 1, "b": 1}
        demanded = set()
        for key in keys:
            doc = json.loads(json.dumps(full))
            target = doc
            for step in path:
                target = target[step]
            del target[key]
            if path == () and key == "kind":
                del doc["sets"][0]["timing"]  # timing needs the timed kind
            try:
                parse(doc)
            except DatasetFormatError as err:
                assert str(err).endswith(f"missing required key {key!r}")
                demanded.add(key)
        assert demanded == set(obj["required"])

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

    @settings(max_examples=200, deadline=None)
    @given(doc=dataset_documents())
    def test_generated_documents_accepted_by_both(self, validator, doc):
        assert validator.is_valid(doc)
        parse(doc)

    @settings(max_examples=400, deadline=None)
    @given(doc=mutated_documents())
    def test_one_key_mutations_judged_alike(self, validator, doc):
        assert validator.is_valid(doc) == _loads(doc)

    @pytest.mark.parametrize("big", [10**309, -(10**309), 2**1024])
    @pytest.mark.parametrize(
        "path, key",
        [(("features", "a", "outcome"), 0), (("sets", 0, "outcome"), 0),
         (("features", "a"), "weight"), (("weights",), "b")],
        ids=["feature-outcome", "set-outcome", "feature-weight", "weight-table"],
    )
    def test_numbers_beyond_float_range_rejected_by_both(self, validator, path, key, big):
        doc = _with(minimal(weights={"b": 1.0}), path, key, big)
        assert not validator.is_valid(doc)
        with pytest.raises(DatasetFormatError):
            parse(doc)

    def test_largest_float_accepted_by_both(self, validator):
        doc = _with(minimal(), ("features", "a", "outcome"), 0, sys.float_info.max)
        assert validator.is_valid(doc)
        parse(doc)

    def test_generated_dataset_accepted_by_both(self, validator, run_cli):
        code, out = run_cli("gen", "--seed", "5", "--features", "4")
        assert code == 0
        doc = json.loads(out)["result"]["dataset"]
        validator.validate(doc)
        parse(doc)


def null(x):
    """``x``, or None when it is a non-finite float."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def as_rows(doc):
    """``doc`` with each ``Records`` table replaced by its list of rows and
    each non-finite float, a key included, by None."""
    if isinstance(doc, fileio.Records):
        doc = doc.rows()
    if isinstance(doc, dict):
        return {null(k): as_rows(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_rows(v) for v in doc]
    return null(doc)


def reference_bytes(doc):
    """The canonical form by definition: the standard library's indent=2
    encoder, with each ``Records`` table written as its list of rows and
    each non-finite float as null."""
    return json.dumps(as_rows(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def dumped(doc):
    buf = io.StringIO()
    dump_json(doc, buf)
    return buf.getvalue()


def raised(write, doc):
    """(type, message) of the TypeError ``write(doc)`` raises."""
    with pytest.raises(TypeError) as err:
        write(doc)
    return type(err.value), str(err.value)


_TRICKY_TEXT = ["", "%", "%s", "a%%b", '"', "\\", "\n", "a\nb", "é", "€ ", "x%(y)s"]
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(2**63, 2**90),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1e16, 1e-7, 1, True, 0, False]),
    st.text(max_size=6),
    st.sampled_from(_TRICKY_TEXT),
)
_keys = st.text(max_size=4) | st.sampled_from(_TRICKY_TEXT + ["a", "b", "passed", "residual"])
_flat_lists = st.lists(_scalars, max_size=4) | st.tuples(_scalars, _scalars)
_fields = _scalars | _flat_lists
# The emitter's block size in the property tests: small, so that lists
# longer than a block stay cheap to generate and to shrink.
SMALL_BLOCK = 3


@st.composite
def record_lists(draw):
    """Report rows: one key set, each key drawing from a small pool of values
    (scalars, flat lists, or both), a few rows with another key set; or
    the same rows of one key set held as a ``Records`` table."""
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    pools = {k: draw(st.lists(_fields, min_size=1, max_size=4)) for k in keys}
    rnd = draw(st.randoms(use_true_random=False))
    rows = [
        {k: rnd.choice(pool) for k, pool in pools.items()}
        for _ in range(draw(st.integers(0, 3 * SMALL_BLOCK + 1)))
    ]
    if draw(st.booleans()):
        return fileio.Records(tuple(keys), tuple([row[k] for row in rows] for k in keys))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rnd.choice(rows)
        change = draw(st.sampled_from(["drop", "add", "rename"]))
        if change != "add":
            row.pop(rnd.choice(keys), None)
        if change != "drop":
            row[draw(_keys)] = draw(_fields)
    return rows if draw(st.booleans()) else tuple(rows)


@st.composite
def indexed_tables(draw):
    """A ``Records`` table with ``Indexed`` columns, and its rows built
    apart from it.  Codes repeat; two columns may share one values list
    (as a, b and union share the stored sets); some values are never
    referenced, a non-finite one among them; and a plain column may hold
    a non-finite float, which makes its block encode again with null."""
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(0, 3 * SMALL_BLOCK + 1))
    non_finite = st.sampled_from([math.nan, -math.inf])
    unused = st.lists(_fields | non_finite, max_size=2)
    shared = draw(st.lists(_fields, min_size=1, max_size=4)) + draw(unused)
    columns, cells = [], []
    for _ in keys:
        kind = draw(st.sampled_from(["shared", "own", "plain"]))
        if kind == "plain":
            column = draw(st.lists(_fields, min_size=count, max_size=count))
            if column and draw(st.integers(0, 4)) == 0:
                column[draw(st.integers(0, count - 1))] = draw(non_finite)
            columns.append(column)
            cells.append(column)
            continue
        values = shared if kind == "shared" else draw(st.lists(_fields, min_size=1, max_size=4)) + draw(unused)
        used = draw(st.integers(1, len(values)))  # codes reach only the first ``used`` values
        codes = draw(st.lists(st.integers(0, used - 1), min_size=count, max_size=count))
        columns.append(fileio.Indexed(codes, values))
        cells.append([values[c] for c in codes])
    rows = [dict(zip(keys, row)) for row in zip(*cells)]
    return fileio.Records(tuple(keys), tuple(columns)), rows


# Floats of array columns: a small pool per table, so cells repeat; both
# zeros, NaN of either sign, both infinities and the extremes among them.
_array_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.5, 1.0, math.inf, -math.inf, math.nan, -math.nan]
)


@st.composite
def array_tables(draw):
    """A ``Records`` table with float array columns, 1-d and 2-d (one list
    per row, maybe empty), beside plain and indexed ones; two keys may
    share one array, and rows may run past several blocks."""
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(0, 3 * SMALL_BLOCK + 1))
    pool = draw(st.lists(_array_floats, min_size=1, max_size=5))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["1-d", "2-d", "2-d", "same", "plain", "indexed"]))
        arrays = [c for c in columns if isinstance(c, np.ndarray)]
        if kind == "same" and arrays:
            columns.append(draw(st.sampled_from(arrays)))
        elif kind == "plain":
            columns.append(draw(st.lists(_fields, min_size=count, max_size=count)))
        elif kind == "indexed":
            values = draw(st.lists(_fields, min_size=1, max_size=3))
            codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=count, max_size=count))
            columns.append(fileio.Indexed(codes, values))
        else:
            shape = (count,) if kind != "2-d" else (count, draw(st.integers(0, 3)))
            cells = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape), max_size=math.prod(shape)))
            columns.append(np.array(cells, dtype=float).reshape(shape))
    return fileio.Records(tuple(keys), tuple(columns))


_documents = st.recursive(
    _scalars | _flat_lists | record_lists(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys, inner, max_size=4)
    | st.tuples(inner, inner),
    max_leaves=6,
)


class TestCanonicalEmitter:
    """dump_json writes exactly what the standard library's indent=2 encoder writes."""

    @pytest.mark.parametrize("block", [SMALL_BLOCK, fileio._BLOCK])
    @settings(max_examples=200, deadline=None)
    @given(doc=st.dictionaries(_keys, _documents, max_size=5))
    def test_report_shaped_documents(self, block, doc):
        with mock.patch.object(fileio, "_BLOCK", block):
            assert dumped(doc) == reference_bytes(doc)

    @pytest.mark.parametrize("block", [SMALL_BLOCK, fileio._BLOCK])
    @settings(max_examples=200, deadline=None)
    @given(indexed_tables())
    def test_indexed_columns_write_their_rows(self, block, table_and_rows):
        table, rows = table_and_rows
        assert table.rows() == rows
        doc = {"checks": table, "n": len(rows)}

        with mock.patch.object(fileio, "_BLOCK", block):
            assert dumped(doc) == reference_bytes({"checks": rows, "n": len(rows)})

    @pytest.mark.parametrize("block", [SMALL_BLOCK, fileio._BLOCK])
    @settings(max_examples=200, deadline=None)
    @given(array_tables())
    def test_array_columns_write_their_rows(self, block, table):
        # Records.rows() gives each array cell as a Python float or list,
        # so the reference writes them as the standard library does.
        doc = {"checks": table, "n": len(table)}
        with mock.patch.object(fileio, "_BLOCK", block):
            assert dumped(doc) == reference_bytes(doc)

    @pytest.mark.parametrize(
        "column, text",
        [
            (np.array([0.0, -0.0, 0.0, -0.0]), ["0.0", "-0.0", "0.0", "-0.0"]),
            (np.array([math.nan, -math.nan, math.inf, -math.inf, 1.0]), ["null"] * 4 + ["1.0"]),
            (np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]), ["[0.0, -0.0]", "[-0.0, 0.0]", "[0.0, -0.0]"]),
            (np.array([[1.0, math.nan], [1.0, math.inf], [5e-324, 1e16]]),
             ["[1.0, null]", "[1.0, null]", "[5e-324, 1e+16]"]),
            (np.zeros((2, 0)), ["[]", "[]"]),
        ],
        ids=["signed-zeros", "non-finite", "signed-zero-rows", "rows-with-null", "empty-rows"],
    )
    def test_array_cells_by_bit_pattern(self, column, text):
        # Coded by bit pattern, -0.0 and 0.0 stay apart, and a NaN or an
        # infinity is written as null wherever it stands.
        doc = {"t": fileio.Records(("x",), (column,))}
        written = dumped(doc)
        assert written == reference_bytes(doc)
        assert [json.dumps(row["x"]) for row in json.loads(written)["t"]] == text

    @settings(max_examples=100, deadline=None)
    @given(_documents)
    def test_any_top_level_value(self, doc):
        with mock.patch.object(fileio, "_BLOCK", SMALL_BLOCK):
            assert dumped(doc) == reference_bytes(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {1: "a", 2.5: "b", -3: "c"},
            {True: 1, False: 2, 0.5: 3},
            {None: [1]},
            [{"a": 1, "b": [1, None]}, {"b": [], "a": True}],
            [[{"a": 1}], [{"a": 2}]],
            [[1, [2]], [3]],
            [{"a": {"b": 1}}, {"a": {"b": 2}}],
            [{}, {}],
            [{"a": np.float64(0.5)}, {"a": 1.5}],
        ],
        ids=["number-keys", "constant-keys", "null-key", "row-key-order", "rows-in-rows",
             "nested-list", "dict-fields", "empty-rows", "float-subclass"],
    )
    def test_shapes_outside_the_record_path(self, doc):
        assert dumped(doc) == reference_bytes(doc)

    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: {"x": v},
            lambda v: [1.0, v],
            lambda v: [[1.0], [2.0, v]],
            lambda v: [{"a": 1.0, "b": [1.0]}, {"a": v, "b": [1.0]}],
            lambda v: [{"a": [1.0]}, {"a": [2.0, v]}],
            lambda v: [{"a": None}, {"a": [v]}],
            lambda v: {"w": {"x": 1, "y": v}},
            lambda v: fileio.Records(("b", "a"), ([[1.0]] * 5, [1.0] * 4 + [v])),
            lambda v: fileio.Records(("a",), ([[1.0]] * 4 + [[2.0, v]],)),
            lambda v: fileio.Records(("a",), ([None] * 4 + [[v]],)),
            # The first fault in row order is in the column written last.
            lambda v: fileio.Records(("a", "b"), ([1.0] * 4 + [v], [1.0] * 3 + [-math.inf, 1.0])),
            lambda v: fileio.Records(("a",), (fileio.Indexed([0, 0, 1, 0, 0], [[1.0], [2.0, v]]),)),
            # The indexed column's fault comes one row after the plain one's.
            lambda v: fileio.Records(
                ("a", "b"), ([1.0] * 3 + [v, 1.0], fileio.Indexed([0] * 4 + [1], [[1.0], [-math.inf]]))
            ),
        ],
        ids=["top", "envelope", "flat-list", "list-of-lists", "record-scalar",
             "record-list", "record-mixed", "dict-values", "table-scalar",
             "table-list", "table-mixed", "table-two-faults", "table-indexed",
             "table-indexed-two-faults"],
    )
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, {1}, np.int64(3)], ids=repr
    )
    @pytest.mark.parametrize("block", [SMALL_BLOCK, fileio._BLOCK])
    def test_errors_match_the_standard_library(self, place, bad, block):
        # A non-finite float is written as null; in the two-fault places the
        # other value is one too, so a non-JSON value raises its own error.
        doc = place(bad)
        with mock.patch.object(fileio, "_BLOCK", block):
            if isinstance(bad, float):
                assert dumped(doc) == reference_bytes(doc)
            else:
                assert raised(dumped, doc) == raised(reference_bytes, doc)

    @pytest.mark.parametrize("key", [math.nan, np.int64(1), (1, 2)], ids=repr)
    def test_key_errors_match_the_standard_library(self, key):
        doc = {"a": {key: 1}}
        if isinstance(key, float):
            assert dumped(doc) == reference_bytes(doc)
        else:
            assert raised(dumped, doc) == raised(reference_bytes, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {math.inf: 1, math.nan: 2},
            {math.nan: 1, None: 2},
            {np.float64("nan"): [1], "b": 2},
            {-math.inf: 1, 0.5: 2},
        ],
        ids=["two-non-finite", "non-finite-and-none", "with-a-string", "with-a-number"],
    )
    def test_non_finite_keys_sort_as_null(self, doc):
        doc = {"a": doc}
        try:
            expected = reference_bytes(doc)
        except TypeError:  # None does not sort against a number or a string
            assert raised(dumped, doc) == raised(reference_bytes, doc)
        else:
            assert dumped(doc) == expected

    @pytest.mark.parametrize("command, table", [("check", "checks"), ("recover", "verification")])
    def test_each_distinct_float_is_formatted_once(self, run_cli, tmp_path, monkeypatch, command, table):
        # Under rule (3) a two-class source repeats lambdas, residuals and
        # outcomes; the encoder sees each distinct float of a table column
        # once, however many rows hold it, besides the envelope's floats.
        from aggkit.testkit import GeneratorConfig, SubsetPolicy, gen_dataset, gen_representation

        rep = gen_representation(GeneratorConfig(seed=3, feature_count=12, dimension=2, rank_classes=2))
        path = tmp_path / "two-class.json"
        with path.open("w") as fh:
            dump_json(dataset_to_json(gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)), fh)
        encode, passed = fileio._encode_lines, []

        def floats(o):
            if isinstance(o, dict):
                return floats(list(o.values()))
            return sum(floats(v) for v in o) if type(o) in (list, tuple) else type(o) is float

        def counting(values):
            passed.append(floats(values))
            return encode(values)

        monkeypatch.setattr(fileio, "_encode_lines", counting)
        code, out = run_cli(command, str(path))
        assert code == 0
        report = json.loads(out)
        rows = report["result"].pop(table)
        keys = [k for k, v in rows[0].items() if type(v) is float or (type(v) is list and type(v[0]) is float)]
        assert {"lambda", "residual"} <= set(keys) or {"observed", "predicted", "residual"} <= set(keys)
        cells = sum(floats([row[k] for row in rows]) for k in keys)
        distinct = sum(floats(list({repr(row[k]): row[k] for row in rows}.values())) for k in keys)
        assert distinct < cells / 2  # the source repeats its floats
        assert sum(passed) <= distinct + floats(report)

    @pytest.mark.parametrize("table", [False, True], ids=["dicts", "records"])
    def test_long_lists_are_written_block_by_block(self, table):
        rows = [{"a": [i, i + 0.5], "b": f"r{i}", "c": i % 2 == 0} for i in range(4 * fileio._BLOCK)]
        if table:
            rows = fileio.Records(("a", "b", "c"), tuple([r[k] for r in rows] for k in "abc"))
        doc = {"checks": rows, "n": len(rows)}
        chunks = []

        class Stream:
            write = staticmethod(chunks.append)

        dump_json(doc, Stream())
        text = "".join(chunks)
        assert text == reference_bytes(doc)
        assert len(chunks) >= 4
        assert max(map(len, chunks)) < len(text) / 3
