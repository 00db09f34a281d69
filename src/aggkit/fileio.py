"""Reading and writing the JSON dataset and report formats.

A dataset file carries a feature table (singleton outcomes), a list of
set records, and kind-specific extras (agreement direction, per-feature
weights, timings).  Reports are plain JSON dictionaries; serialization
is canonical so identical inputs produce byte-identical files: keys are
sorted, set members are sorted lexicographically, sets are ordered by
size then lexicographically, and floats use the shortest round-trip
decimal form (non-finite values become null).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Mapping, Sequence

import numpy as np

from .belief import TimedQuery, as_belief
from .errors import DatasetFormatError, NotABelief
from .geometry import DEFAULT_TOL, Tolerance, Vector
from .model import DatasetSource, FeatureSet, set_sort_key, validate_feature_id

__all__ = [
    "DatasetDocument",
    "load_dataset",
    "dataset_to_json",
    "dump_json",
]

FORMAT_VERSION = "1"

KINDS = ("generic", "belief", "menu", "profile", "sdeu", "timed")

# Keys of the closed objects in schemas/dataset.schema.json.
_TOP_KEYS = ("format_version", "kind", "dimension", "features", "sets", "direction", "weights")
_FEATURE_KEYS = ("outcome", "weight")
_SET_KEYS = ("members", "outcome", "timing")


@dataclass
class DatasetDocument:
    """Parsed and validated dataset file."""

    kind: str
    dimension: int
    source: DatasetSource
    direction: Vector | None = None
    weight_table: dict[str, float] | None = None
    feature_weights: dict[str, float] = field(default_factory=dict)
    timed: list[tuple[TimedQuery, Vector]] = field(default_factory=list)


def _need(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise DatasetFormatError(where, f"missing required key {key!r}")
    return obj[key]


def _closed(obj: Mapping[str, Any], keys: tuple[str, ...], where: str) -> None:
    unknown = sorted(k for k in obj if k not in keys)
    if unknown:
        raise DatasetFormatError(where, f"unknown key {unknown[0]!r}, expected keys among {keys}")


def _as_vector(value: Any, dim: int, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise DatasetFormatError(where, "expected an array of numbers")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DatasetFormatError(f"{where}[{i}]", f"expected a number, got {x!r}")
        if not math.isfinite(float(x)):
            raise DatasetFormatError(f"{where}[{i}]", f"non-finite value {x!r}")
        out.append(float(x))
    if len(out) != dim:
        raise DatasetFormatError(where, f"length {len(out)} does not match dimension {dim}")
    return out


def load_dataset(
    stream: IO[str], tol: Tolerance = DEFAULT_TOL, name: str = "<input>"
) -> DatasetDocument:
    """Parse and validate a dataset file.

    All structural problems raise DatasetFormatError pointing at the
    offending element.
    """
    try:
        raw = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(name, f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DatasetFormatError(name, "top level must be an object")
    _closed(raw, _TOP_KEYS, name)

    version = _need(raw, "format_version", name)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(
            "format_version", f"unsupported version {version!r}, expected {FORMAT_VERSION!r}"
        )
    kind = raw.get("kind", "generic")
    if kind not in KINDS:
        raise DatasetFormatError("kind", f"unknown kind {kind!r}, expected one of {KINDS}")
    dimension = _need(raw, "dimension", name)
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise DatasetFormatError("dimension", f"expected a positive integer, got {dimension!r}")

    features = _need(raw, "features", name)
    if not isinstance(features, dict) or not features:
        raise DatasetFormatError("features", "expected a non-empty object")
    table: dict[FeatureSet, list[float]] = {}
    feature_weights: dict[str, float] = {}
    for fid in sorted(features):
        where = f"features[{fid!r}]"
        entry = features[fid]
        try:
            validate_feature_id(fid)
        except ValueError:
            raise DatasetFormatError(where, "feature ids are non-empty strings without spaces or commas") from None
        if not isinstance(entry, dict):
            raise DatasetFormatError(where, "expected an object")
        _closed(entry, _FEATURE_KEYS, where)
        outcome = _as_vector(_need(entry, "outcome", where), dimension, f"{where}.outcome")
        table[frozenset([fid])] = outcome
        if "weight" in entry:
            w = entry["weight"]
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not float(w) > 0:
                raise DatasetFormatError(f"{where}.weight", f"expected a positive number, got {w!r}")
            feature_weights[fid] = float(w)

    sets_raw = raw.get("sets", [])
    if not isinstance(sets_raw, list):
        raise DatasetFormatError("sets", "expected an array")
    timed: list[tuple[TimedQuery, Vector]] = []
    for idx, entry in enumerate(sets_raw):
        where = f"sets[{idx}]"
        if not isinstance(entry, dict):
            raise DatasetFormatError(where, "expected an object")
        _closed(entry, _SET_KEYS, where)
        members = _need(entry, "members", where)
        if not isinstance(members, list) or not members:
            raise DatasetFormatError(f"{where}.members", "expected a non-empty array of feature ids")
        for m in members:
            if not isinstance(m, str) or m not in features:
                raise DatasetFormatError(f"{where}.members", f"undeclared feature {m!r}")
        if len(set(members)) != len(members):
            raise DatasetFormatError(f"{where}.members", "duplicate members")
        outcome = _as_vector(_need(entry, "outcome", where), dimension, f"{where}.outcome")
        if "timing" in entry:
            if kind != "timed":
                raise DatasetFormatError(f"{where}.timing", "timing is only allowed in timed datasets")
            timing = entry["timing"]
            if not isinstance(timing, dict):
                raise DatasetFormatError(f"{where}.timing", "expected an object")
            times: dict[str, int] = {}
            for m in members:
                t = timing.get(m)
                if isinstance(t, bool) or not isinstance(t, int) or t < 1:
                    raise DatasetFormatError(
                        f"{where}.timing[{m!r}]", f"expected a positive integer, got {t!r}"
                    )
                times[m] = t
            extra = set(timing) - set(members)
            if extra:
                raise DatasetFormatError(f"{where}.timing", f"times for non-members {sorted(extra)}")
            timed.append((TimedQuery(members, times), np.asarray(outcome)))
            if all(t == 1 for t in times.values()):
                table[frozenset(members)] = outcome
            continue
        if kind == "timed":
            # No timing field means everything at time one.
            timed.append(
                (TimedQuery(members, {m: 1 for m in members}), np.asarray(outcome))
            )
        fs = frozenset(members)
        if fs in table and len(fs) > 1:
            raise DatasetFormatError(f"{where}.members", f"duplicate set {sorted(fs)}")
        if len(fs) == 1 and table.get(fs) != outcome:
            if fs in table:
                raise DatasetFormatError(
                    f"{where}.outcome", "singleton disagrees with its feature entry"
                )
        table[fs] = outcome

    if kind == "belief":
        for fs in sorted(table, key=set_sort_key):
            try:
                as_belief(np.asarray(table[fs]), tol)
            except NotABelief as exc:
                label = ",".join(sorted(fs))
                raise DatasetFormatError(f"outcome of {{{label}}}", str(exc)) from None

    direction = None
    if kind in ("profile", "sdeu"):
        direction = np.asarray(
            _as_vector(_need(raw, "direction", name), dimension, "direction")
        )
    elif "direction" in raw:
        direction = np.asarray(_as_vector(raw["direction"], dimension, "direction"))

    weight_table = None
    if "weights" in raw:
        wt = raw["weights"]
        if not isinstance(wt, dict):
            raise DatasetFormatError("weights", "expected an object")
        weight_table = {}
        for fid in sorted(wt):
            if fid not in features:
                raise DatasetFormatError(f"weights[{fid!r}]", "undeclared feature")
            w = wt[fid]
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not float(w) > 0:
                raise DatasetFormatError(f"weights[{fid!r}]", f"expected a positive number, got {w!r}")
            weight_table[fid] = float(w)

    source = DatasetSource(dimension, table)
    return DatasetDocument(
        kind=kind,
        dimension=dimension,
        source=source,
        direction=direction,
        weight_table=weight_table,
        feature_weights=feature_weights,
        timed=timed,
    )


def jnum(x: float) -> float | None:
    """JSON-safe float: non-finite values become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def jvec(v: Iterable[float]) -> list[float | None]:
    return [jnum(x) for x in v]


def dataset_to_json(
    source: DatasetSource,
    kind: str = "generic",
    direction: Sequence[float] | None = None,
    feature_weights: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """Serialize a dataset source back into the file format."""
    features: dict[str, Any] = {}
    for f in source.features():
        entry: dict[str, Any] = {"outcome": jvec(source.outcome([f]))}
        if feature_weights and f in feature_weights:
            entry["weight"] = jnum(feature_weights[f])
        features[f] = entry
    sets = []
    for fs in source.sets():
        if len(fs) == 1:
            continue
        sets.append({"members": sorted(fs), "outcome": jvec(source.outcome(fs))})
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dimension": source.dimension,
        "features": features,
        "sets": sets,
    }
    if direction is not None:
        doc["direction"] = jvec(direction)
    return doc


def dump_json(doc: Mapping[str, Any], stream: IO[str]) -> None:
    """Canonical JSON output: sorted keys, two-space indent, newline at end."""
    json.dump(doc, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")
