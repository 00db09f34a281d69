"""Reading and writing the JSON dataset and report formats.

A dataset file carries a feature table (singleton outcomes), a list of
set records, and kind-specific extras (agreement direction, per-feature
weights, timings).  Reports are plain JSON dictionaries; serialization
is canonical so identical inputs produce byte-identical files: keys are
sorted, set members are sorted lexicographically, sets are ordered by
size then lexicographically, and floats use the shortest round-trip
decimal form.  JSON has no NaN or Infinity, so ``dump_json`` writes every
non-finite float as null, wherever it stands.

``load_dataset`` validates a file once, at the boundary: one
``json.load``, then each check of the set records is one batch test over
all of them, whose columns go straight to ``DatasetSource._from_columns``.
Only a timed file, or one that fails a test, is read record by record,
which names the first fault with the location and message it always had.

``dump_json`` writes exactly the bytes of ``json.dump(doc, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline, with each ``Records``
table in ``doc`` written as its list of objects, one per row, and each
non-finite float as None.  It lets the standard library's C encoder,
which only runs without ``indent``, do the formatting.  A list is taken
in blocks of ``_BLOCK`` items.  A block of scalars and flat lists of
scalars is one encoder call with a newline as the item separator; ASCII
escaping leaves no newline inside a string, so splitting on newlines
gives every value, and the indentation is put back with string
replacements.  Only a block the encoder refuses for a non-finite float
is encoded again, with None in its place.  A block of a ``Records``
table (the rows of ``check`` and ``recover``) is formatted column by
column in the same way, and its keys and values are joined row by row
in one ``str.join``; no row object is built.  An ``Indexed`` column's
values are formatted once per table, and so is each distinct bit
pattern of a float array column, which is coded as an ``Indexed``
column first (dictionary encoding).  Anything else, such as the report
envelope or a list of dicts, goes through a small recursive writer.
Each block of a long list is written to the stream before the next one
is formatted, so a report is never held whole.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, IO, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import DatasetFormatError, NotABelief
from .geometry import DEFAULT_TOL, Tolerance, Vector
from .model import DatasetSource, FeatureSet, validate_feature_id

if TYPE_CHECKING:  # belief loads only for the timed and belief kinds
    from .belief import TimedQuery

__all__ = [
    "DatasetDocument",
    "load_dataset",
    "dataset_to_json",
    "Indexed",
    "Records",
    "dump_json",
]

FORMAT_VERSION = "1"

KINDS = ("generic", "belief", "menu", "profile", "sdeu", "timed")

# Keys of the closed objects in schemas/dataset.schema.json.
_TOP_KEYS = ("format_version", "kind", "dimension", "features", "sets", "direction", "weights")
_FEATURE_KEYS = ("outcome", "weight")
_SET_KEYS = ("members", "outcome", "timing")
# The types json.load gives a number, booleans aside.
_NUMBER_TYPES = frozenset({int, float})
# The largest finite float; the schema bounds every number by it.
_FLOAT_MAX = sys.float_info.max


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
        if not abs(x) <= _FLOAT_MAX:  # NaN, infinities and integers beyond float range
            raise DatasetFormatError(f"{where}[{i}]", f"non-finite value {x!r}")
        out.append(float(x))
    if len(out) != dim:
        raise DatasetFormatError(where, f"length {len(out)} does not match dimension {dim}")
    return out


def _member_set(members: Any, features: Mapping[str, Any], where: str) -> FeatureSet:
    """The members of a set record, refusing anything but a non-empty
    array of distinct declared feature ids."""
    if not isinstance(members, list) or not members:
        raise DatasetFormatError(where, "expected a non-empty array of feature ids")
    for m in members:
        if not isinstance(m, str) or m not in features:
            raise DatasetFormatError(where, f"undeclared feature {m!r}")
    if len(set(members)) != len(members):
        raise DatasetFormatError(where, "duplicate members")
    return frozenset(members)


def _positive_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= _FLOAT_MAX:
        raise DatasetFormatError(where, f"expected a positive number, got {value!r}")
    return float(value)


def _positive_integer(value: Any, where: str) -> int:
    """A JSON integer of at least one; as in JSON Schema, 2.0 is the integer 2."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, bool) or not isinstance(number, int) or number < 1:
        raise DatasetFormatError(where, f"expected a positive integer, got {value!r}")
    return number


def _set_columns(dimension: int, ids: tuple[str, ...], table: dict, sets_raw: list) -> DatasetSource | None:
    """The source of the feature ``table`` (rows in ``ids`` order) and the set
    records, tested in batch; None when a test fails.  Values are type-tested
    before ``np.array``, which would read "1.5" and true as numbers; the
    largest float, and an integer rounding to it, are left to the record walk."""
    code = dict(zip(ids, range(len(ids)))).__getitem__
    try:  # anything but an object, an array or a declared id raises here
        members = list(map(itemgetter("members"), sets_raw))
        outcomes = list(map(itemgetter("outcome"), sets_raw))
        values = list(chain.from_iterable(outcomes))
        # Two keys each (members and outcome), arrays of members, outcomes of numbers only.
        if not ({2} >= set(map(len, sets_raw)) and {list} >= set(map(type, members))
                and {dimension} >= set(map(len, outcomes)) and _NUMBER_TYPES.issuperset(map(type, values))):
            return None
        codes = np.fromiter(map(code, chain.from_iterable(members)), np.intp)
        points = np.array(values, dtype=float).reshape(-1, dimension)
    except (KeyError, TypeError, OverflowError):
        return None
    lengths = np.fromiter(map(len, members), np.intp, len(members))
    singletons, single = np.array(list(table.values())), lengths == 1
    if not lengths.all() or not (np.abs(points) < _FLOAT_MAX).all():
        return None
    if points[single].tobytes() != singletons[codes[np.cumsum(lengths)[single] - 1]].tobytes():
        return None  # a singleton record must repeat its feature entry bit for bit
    try:  # a repeated member or a set given twice raises ValueError
        return DatasetSource._from_columns(
            dimension, ids, np.concatenate([np.arange(len(ids)), codes[np.repeat(~single, lengths)]]),
            np.concatenate([np.ones(len(ids), dtype=np.intp), lengths[~single]]),
            np.vstack([singletons, points[~single]]),
        )
    except ValueError:
        return None


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
    except (ValueError, RecursionError) as exc:
        # Undecodable bytes, an integer beyond the digit limit, or nesting
        # deeper than the parser's recursion limit.
        raise DatasetFormatError(name, f"cannot parse: {exc}") from None
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
    dimension = _positive_integer(_need(raw, "dimension", name), "dimension")

    features = _need(raw, "features", name)
    if not isinstance(features, dict) or not features:
        raise DatasetFormatError("features", "expected a non-empty object")
    ids = tuple(sorted(features))
    table: dict[FeatureSet, list[float]] = {}
    feature_weights: dict[str, float] = {}
    for fid in ids:
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
            feature_weights[fid] = _positive_number(entry["weight"], f"{where}.weight")

    sets_raw = raw.get("sets", [])
    if not isinstance(sets_raw, list):
        raise DatasetFormatError("sets", "expected an array")
    timed: list[tuple[TimedQuery, Vector]] = []
    timed_keys: set[tuple[tuple[str, int], ...]] = set()
    source = None if kind == "timed" else _set_columns(dimension, ids, table, sets_raw)
    if source is None:  # one record at a time, to name the first fault
        if kind == "timed":
            from .belief import TimedQuery
        for idx, entry in enumerate(sets_raw):
            where = f"sets[{idx}]"
            if not isinstance(entry, dict):
                raise DatasetFormatError(where, "expected an object")
            _closed(entry, _SET_KEYS, where)
            members = _need(entry, "members", where)
            fs = _member_set(members, features, f"{where}.members")
            outcome = _as_vector(_need(entry, "outcome", where), dimension, f"{where}.outcome")
            if "timing" in entry:
                if kind != "timed":
                    raise DatasetFormatError(f"{where}.timing", "timing is only allowed in timed datasets")
                timing = entry["timing"]
                if not isinstance(timing, dict):
                    raise DatasetFormatError(f"{where}.timing", "expected an object")
                times: dict[str, int] = {}
                for m in members:
                    times[m] = _positive_integer(timing.get(m), f"{where}.timing[{m!r}]")
                extra = timing.keys() - fs
                if extra:
                    raise DatasetFormatError(f"{where}.timing", f"times for non-members {sorted(extra)}")
                query = TimedQuery(members, times)
                timed.append((query, np.asarray(outcome)))
                if any(t != 1 for t in times.values()):  # else a plain set outcome, refused below if repeated
                    if query.key() in timed_keys:
                        label = [f"{f}@{t}" for f, t in query.key()]
                        raise DatasetFormatError(f"{where}.timing", f"duplicate timed query {label}")
                    timed_keys.add(query.key())
                    continue
            elif kind == "timed":
                # No timing field means everything at time one.
                timed.append((TimedQuery(members, {m: 1 for m in members}), np.asarray(outcome)))
            if fs in table and len(fs) > 1:
                raise DatasetFormatError(f"{where}.members", f"duplicate set {sorted(fs)}")
            if len(fs) == 1 and table[fs] != outcome:
                raise DatasetFormatError(f"{where}.outcome", "singleton disagrees with its feature entry")
            table[fs] = outcome
        source = DatasetSource(dimension, table)
    if kind == "belief":
        from .belief import _belief_faults, as_belief
        for row in _belief_faults(source._points, tol):
            try:
                as_belief(source._points[row], tol)
            except NotABelief as exc:
                label = ",".join(source._members[row])
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
            weight_table[fid] = _positive_number(wt[fid], f"weights[{fid!r}]")

    return DatasetDocument(
        kind=kind,
        dimension=dimension,
        source=source,
        direction=direction,
        weight_table=weight_table,
        feature_weights=feature_weights,
        timed=timed,
    )


@dataclass(frozen=True)
class Indexed:
    """A dictionary-encoded :class:`Records` column: row i holds
    ``values[codes[i]]``, and each referenced value is formatted once per table.
    ``dump_json`` codes a float array column into one of these by bit pattern."""

    codes: Sequence[int]
    values: Sequence[Any]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> Indexed:
        return Indexed(self.codes[rows], self.values)

    def __iter__(self) -> Iterator[Any]:
        return map(self.values.__getitem__, self.codes)


@dataclass(frozen=True)
class Records:
    """A table of JSON objects held as columns, for :func:`dump_json`.

    ``columns[i]`` holds the value of ``keys[i]`` (distinct strings) in
    every row, in row order, as a sequence, an :class:`Indexed` column or
    a float ``ndarray`` (1-d, or 2-d with one list per row), and all
    columns have one length; a value is a JSON scalar or a flat list of
    scalars.  ``dump_json`` writes the table as its list of rows, one
    object per row, straight from the columns, and formats each distinct
    bit pattern of an array column once.
    """

    keys: tuple[str, ...]
    columns: tuple[Sequence[Any] | Indexed | np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, rows: slice) -> Records:
        return Records(self.keys, tuple(column[rows] for column in self.columns))

    def rows(self) -> list[dict[str, Any]]:
        """The table as a list of dicts, one per row, codes expanded and
        array cells as Python floats and lists."""
        columns = (c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)
        return [dict(zip(self.keys, values)) for values in zip(*columns)]


def dataset_to_json(
    source: DatasetSource,
    kind: str = "generic",
    direction: Sequence[float] | None = None,
) -> dict[str, Any]:
    """Serialize a dataset source back into the file format, row by row (singletons first)."""
    n = len(source.features())
    points = source._points.tolist()
    features = {f: {"outcome": outcome} for f, outcome in zip(source.features(), points)}
    sets = [{"members": list(m), "outcome": o} for m, o in zip(source._members[n:], points[n:])]
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dimension": source.dimension,
        "features": features,
        "sets": sets,
    }
    if direction is not None:
        doc["direction"] = np.asarray(direction, dtype=float).tolist()
    return doc


def dump_json(doc: Mapping[str, Any], stream: IO[str]) -> None:
    """Canonical JSON output: sorted keys, two-space indent, newline at end.

    The bytes are those of ``json.dump(doc, stream, indent=2,
    sort_keys=True, allow_nan=False)`` followed by ``"\\n"``, errors
    included, where ``doc`` has each ``Records`` table replaced by its
    list of rows (``Records.rows()``) and each non-finite float, a key
    included, replaced by None: JSON has no NaN or Infinity, so they are
    written as null.  Lists are written to ``stream`` block by block,
    and an ``Indexed`` column's values, or a float array column's
    distinct bit patterns, once per table.
    """
    parts: list[str] = []
    _value(doc, 0, parts, stream.write)
    parts.append("\n")
    stream.write("".join(parts))


# --------------------------------------------------------------------------
# the canonical emitter behind dump_json

# Rows per block of a long list: each block is formatted in one piece and
# written out before the next one starts.
_BLOCK = 256

_SCALARS = frozenset({str, int, float, bool, type(None)})
_LISTS = frozenset({list, tuple})

# The C encoder (``indent`` is None), one value per line: ensure_ascii
# escapes every newline inside a string, so "\n" splits it into values.
_encode_lines = json.JSONEncoder(separators=("\n", ": "), allow_nan=False).encode
_string = encode_basestring_ascii


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _refuse(o: Any) -> NoReturn:
    """Raise the error of the pure-Python encoder (``indent`` set) on ``o``."""
    json.JSONEncoder(indent=0, allow_nan=False).encode(o)
    raise AssertionError(f"{o!r} was expected to be refused")


def _null(x: Any) -> Any:
    """``x``, or None when it is a non-finite float."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _scalar(o: Any) -> str | None:
    """``o`` as the reference encoder writes a scalar, or None for a container."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else "null"
    if isinstance(o, (list, tuple, dict, Records)):
        return None
    _refuse(o)


def _key(k: Any) -> str:
    if isinstance(k, str):
        pass
    elif isinstance(k, float):  # finite: _dict writes the others as None
        k = float.__repr__(k)
    elif k is True:
        k = "true"
    elif k is False:
        k = "false"
    elif k is None:
        k = "null"
    elif isinstance(k, int):
        k = int.__repr__(k)
    else:
        _refuse({k: None})
    return _string(k)


def _encode(values: Sequence) -> str:
    """Scalars and flat lists of scalars, one per line."""
    try:
        return _encode_lines(values)
    except ValueError:  # a non-finite float: encode again with None in its place
        return _encode_lines([list(map(_null, v)) if type(v) in _LISTS else _null(v) for v in values])


def _tokens(scalars: Sequence) -> list[str]:
    """Each of a list of plain scalars, formatted."""
    if not scalars:
        return []
    return _encode(scalars)[1:-1].split("\n")


def _lists(values: Sequence, level: int) -> list[str] | None:
    """Each of a list of lists formatted at ``level``, or None unless every
    item of every list is a plain scalar."""
    if not set(map(type, chain.from_iterable(values))) <= _SCALARS:
        return None
    if not values:
        return []
    inner, close = _indent(level + 1), _indent(level) + "]"
    # "[[a\nb]\n[c]]": no scalar ends in "]" or starts with "[", so lists
    # end at "]\n[" and their items are split at the other newlines.
    text = _encode(values)[2:-2]
    text = text.replace("]\n[", "\0").replace("\n", "," + inner)
    text = "[" + inner + text.replace("\0", close + "\0[" + inner) + close
    rows = text.split("\0")
    if not all(values):
        rows = [row if v else "[]" for row, v in zip(rows, values)]
    return rows


def _column(values: Sequence, level: int) -> list[str] | None:
    """Each value formatted at ``level``, or None unless every value is a
    plain scalar or a flat list of plain scalars."""
    types = set(map(type, values))
    if types <= _SCALARS:
        return _tokens(values)
    if types <= _LISTS:
        return _lists(values, level)
    if not types <= _SCALARS | _LISTS:
        return None
    is_list = [type(v) in _LISTS for v in values]
    lists = _lists([v for v, listed in zip(values, is_list) if listed], level)
    if lists is None:
        return None
    scalars = iter(_tokens([v for v, listed in zip(values, is_list) if not listed]))
    lists_it = iter(lists)
    return [next(lists_it) if listed else next(scalars) for listed in is_list]


def _by_bits(column: np.ndarray) -> Indexed | list:
    """A float array column coded by bit pattern, so ``-0.0`` and ``0.0``
    stay apart: ``np.unique`` over the int64 view of a 1-d column, one
    ``lexsort`` over the int64 words of a 2-d column's rows.  Any other
    array is its ``tolist()``."""
    if column.dtype != np.float64 or column.ndim not in (1, 2):
        return column.tolist()
    bits = np.ascontiguousarray(column).view(np.int64)
    if bits.ndim == 1:
        keys, codes = np.unique(bits, return_inverse=True)
        return Indexed(codes.tolist(), keys.view(np.float64).tolist())
    order = np.lexsort(bits.T[::-1]) if bits.shape[1] else np.arange(len(bits))
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)  # each distinct row where it first appears in ``order``
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    codes = np.empty(len(bits), dtype=np.intp)
    codes[order] = np.cumsum(first) - 1
    return Indexed(codes.tolist(), column[order[first]].tolist())


def _dictionaries(table: Records, level: int) -> tuple[Records, dict[int, Any] | None]:
    """``table`` with its array columns coded by :func:`_by_bits`, and the
    text at ``level`` of each value its ``Indexed`` columns reference, by
    ``id(values)`` and code; the texts are None unless ``_column`` takes all."""
    columns = tuple(_by_bits(c) if isinstance(c, np.ndarray) else c for c in table.columns)
    texts: dict[int, Any] = {}
    used: dict[int, tuple[Sequence[Any], set[int]]] = {}
    for column, given in zip(columns, table.columns):
        if type(column) is not Indexed:
            continue
        if column is not given:  # coded from an array: every value is referenced
            texts[id(column.values)] = _column(column.values, level)
        else:
            used.setdefault(id(column.values), (column.values, set()))[1].update(column.codes)
    for key, (values, codes) in used.items():
        lines = _column([values[c] for c in codes], level)
        if lines is None:
            return table, None
        texts[key] = dict(zip(codes, lines))
    return Records(table.keys, columns), texts


def _record_block(table: Records, level: int, texts: dict[int, Any] | None) -> str | None:
    """The rows of a table in a list at ``level``, each formatted as one
    object, joined as list items; None unless ``_column`` takes every
    column (``texts``: ``_dictionaries``)."""
    if texts is None:
        return None
    keys, columns = zip(*sorted(zip(table.keys, table.columns), key=lambda kc: kc[0]))
    columns = [
        list(map(texts[id(c.values)].__getitem__, c.codes)) if type(c) is Indexed else _column(c, level + 2)
        for c in columns
    ]
    if any(column is None for column in columns):
        return None
    inner, close, rows = _indent(level + 2), _indent(level + 1) + "}", len(table)
    fields = [repeat(head + inner + _string(k) + ": ", rows) for head, k in zip(chain("{", repeat(",")), keys)]
    ends = chain(repeat(close + "," + _indent(level + 1), rows - 1), (close,))
    # Label, value, label, value, ..., end, row after row, in one join.
    return "".join(chain.from_iterable(zip(*chain.from_iterable(zip(fields, columns)), ends)))


def _value(o: Any, level: int, parts: list[str], write: Callable[[str], Any]) -> None:
    """Append ``o`` at ``level`` to ``parts``; long lists flush ``parts``
    to ``write`` after each block."""
    text = _scalar(o)
    if text is not None:
        parts.append(text)
    elif isinstance(o, dict):
        _dict(o, level, parts, write)
    elif not o:
        parts.append("[]")
    else:
        table = type(o) is Records
        if table:
            o, texts = _dictionaries(o, level + 2)
        inner = _indent(level + 1)
        sep = "," + inner
        parts.append("[" + inner)
        for start in range(0, len(o), _BLOCK):
            block = o[start : start + _BLOCK]
            if start:
                parts.append(sep)
            if table:
                text = _record_block(block, level, texts)
            else:
                lines = _column(block, level + 1)
                text = None if lines is None else sep.join(lines)
            if text is not None:
                parts.append(text)
            else:
                for i, item in enumerate(block.rows() if table else block):
                    if i:
                        parts.append(sep)
                    _value(item, level + 1, parts, write)
            if len(o) > _BLOCK:
                write("".join(parts))
                parts.clear()
        parts.append(_indent(level) + "]")


def _dict(o: dict, level: int, parts: list[str], write: Callable[[str], Any]) -> None:
    if not o:
        parts.append("{}")
        return
    if any(isinstance(k, float) for k in o):  # a non-finite key sorts and is written as None
        o = {_null(k): v for k, v in o.items()}
    items = sorted(o.items())
    inner = _indent(level + 1)
    sep = "," + inner
    keys = [_key(k) + ": " for k, _ in items]
    values = _column([v for _, v in items], level + 1)
    if values is not None:
        parts.append("{" + inner + sep.join(map(str.__add__, keys, values)))
    else:
        parts.append("{")
        for i, (key, (_, v)) in enumerate(zip(keys, items)):
            parts.append((sep if i else inner) + key)
            _value(v, level + 1, parts, write)
    parts.append(_indent(level) + "}")
