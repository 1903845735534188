"""Input files: the one reader of every JSON file the program reads, and
test-vector files.

A JSON file (a scenario, a column mapping, a report to diff) is read by
``read_json``, which rejects a key given twice, and a scenario or mapping
is checked against its key table by ``read_keys``; every error is a
SchemaError naming the file once, then the JSON path at fault.

The native vector schema is a comma-separated file with a header row
``wn,tow,prn,page_index,page_hex``: one row per page, fifteen rows per
(wn, tow, prn) group, pages as 30 lowercase hex bytes.  Files coming from
other tools are adapted through a small JSON mapping that renames columns
and fixes the page-index base.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

from .gst import Gst, SECONDS_PER_WEEK, to_millis
from .navdata import PRN_BITS, WN_BITS
from .pages import PAGE_BYTES, SLOTS_PER_SUBFRAME, Subframe, check_raws

HEADER = ["wn", "tow", "prn", "page_index", "page_hex"]
_HEX = frozenset("0123456789abcdef")

# what a subframe's nav data can carry, and its pages' 1-based index
_RANGES = {"wn": (0, (1 << WN_BITS) - 1), "tow": (0, SECONDS_PER_WEEK - 1),
          "prn": (1, (1 << PRN_BITS) - 1),
          "page_index": (1, SLOTS_PER_SUBFRAME)}


class SchemaError(ValueError):
    """Malformed input; names a vector file's offending row and column, or
    its pages that fail CRC."""

    def __init__(self, message, row=None, column=None):
        where = f" (row {row}" + (f", column {column!r})" if column else ")") \
            if row is not None else ""
        super().__init__(f"{message}{where}")


def _unique_keys(pairs) -> dict:
    """A JSON object's key-value pairs as a dict, for json.load's
    object_pairs_hook; a key given twice raises SchemaError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path, read):
    """The JSON value in the file at path, passed through read.  Bad JSON,
    JSON nested past the recursion limit, a key given twice or a ValueError
    of read raises SchemaError, its text prefixed with the path."""
    with open(path) as fh:
        try:
            return read(json.load(fh, object_pairs_hook=_unique_keys))
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: {exc}") from None


NUMBER, SECONDS = (int, float), (int, float, str)    # seconds are read into ms
# a seconds string: ASCII decimal digits, a leading minus and a fraction at
# most, where Decimal would also take "2_9.5", "+29.5", "29.5e0" or "٢٩.٥"
_SECONDS_TEXT = re.compile(r" *-?[0-9]+(\.[0-9]+)? *")


def read_keys(block, keys: dict, path: str) -> dict:
    """Check a JSON object against its key table and fill in defaults.

    ``keys`` maps each key to ``(kind, default)`` or ``(kind, default, low,
    high)``; kind is a type, a tuple of types (booleans are never numbers)
    or a nested key table, and a None high leaves the range open.  Numbers
    must be finite, a seconds string is an ASCII decimal, and seconds are
    compared in ms.  A None default marks a value that another key
    supplies.  Values keep the declared key order."""
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object, got {block!r}")
    for key in block:
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown key")
    out = {}
    for key, (kind, default, *bounds) in keys.items():
        where, value = f"{path}.{key}", block.get(key, default)
        if isinstance(kind, dict):
            out[key] = read_keys(value, kind, where)
            continue
        if value is None and key not in block:
            out[key] = None
            continue
        if isinstance(value, bool) != (kind is bool) \
                or not isinstance(value, kind):
            names = getattr(kind, "__name__", None) or " or ".join(
                t.__name__ for t in kind)
            raise SchemaError(f"{where}: expected {names}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"{where}: {value!r} is not a finite number")
        if kind is SECONDS and isinstance(value, str) \
                and not _SECONDS_TEXT.fullmatch(value):
            raise SchemaError(f"{where}: {value!r} is not a number of seconds")
        try:
            out[key] = to_millis(value) if kind is SECONDS else value
        except ValueError as exc:           # digits below the millisecond
            raise SchemaError(f"{where}: {exc}") from None
        if bounds:
            low, high = bounds
            if not (low <= out[key] and (high is None or out[key] <= high)):
                bound = f"outside {low}..{high}" if high is not None \
                    else f"below {low}"
                raise SchemaError(f"{where}: {value!r} is {bound}")
    return out


def read_typed(block: dict, table: dict, path: str):
    """Read a block whose ``type`` (by default the first) selects its entry."""
    kind = block.get("type", next(iter(table)))
    if not isinstance(kind, str) or kind not in table:
        raise SchemaError(f"{path}.type: unknown type {kind!r}, "
                          f"expected one of {', '.join(table)}")
    keys, then = table[kind]
    rest = {k: v for k, v in block.items() if k != "type"}
    return then, read_keys(rest, keys, path)


_MAPPING_KEYS = {"columns": ({name: (str, name) for name in HEADER}, {}),
                "page_index_base": (int, 1)}


def _read_mapping(mapping) -> tuple:
    """Column names and page-index base of a JSON mapping object."""
    values = read_keys(mapping, _MAPPING_KEYS, "$")
    fields: dict = {}           # CSV column -> the first field read from it
    for name, column in values["columns"].items():
        if column in fields:
            raise SchemaError(f"$.columns.{name}: mapping sends "
                              f"{fields[column]!r} and {name!r} to one "
                              f"column {column!r}")
        fields[column] = name
    return values["columns"], values["page_index_base"]


@dataclass
class TestVectorSet:
    """Sealed subframes by PRN, in PRN order, each PRN's in GST order; a
    destroyed slot raises ValueError.

    Hex exists only in the CSV file: load decodes each row's page once,
    and save formats the rows from the subframes.
    """

    __test__ = False            # "Test" prefix is domain naming, not pytest's

    by_prn: dict = field(default_factory=dict)     # prn -> [Subframe]

    def __post_init__(self):
        if not all(sf.complete for sfs in self.by_prn.values() for sf in sfs):
            raise ValueError("vector sets store intact pages only")

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER)
            writer.writerows((sf.gst.wn, sf.gst.tow, prn, idx, raw.hex())
                             for prn, sfs in self.by_prn.items()
                             for sf in sfs
                             for idx, raw in enumerate(sf.raws, start=1))

    @classmethod
    def load(cls, path, mapping_path=None) -> "TestVectorSet":
        """Check that the header names each mapped column once and
        schema-check every row, then check that each (wn, tow, prn) has
        its 15 pages once, then check every page's flags and CRC in one
        kernel call.  A SchemaError names the row (and column) at fault:
        a duplicate page's second row, an incomplete subframe's first; or
        the (wn, tow, prn, page_index) of the first five pages that fail."""
        columns, index_base = _read_mapping({}) if mapping_path is None \
            else read_json(mapping_path, _read_mapping)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames is None:
                    raise SchemaError("empty file")
                missing = [columns[c] for c in HEADER
                           if columns[c] not in reader.fieldnames]
                if missing:
                    raise SchemaError(f"missing columns {missing}")
                repeated = [columns[c] for c in HEADER
                            if reader.fieldnames.count(columns[c]) > 1]
                if repeated:        # DictReader would read the last one
                    raise SchemaError("repeated column", row=1,
                                      column=repeated[0])
                rows = [cls._parse_row(row, columns, index_base, lineno)
                        for lineno, row in enumerate(reader, start=2)]
            except csv.Error as exc:    # e.g. a field past csv's size limit
                line = reader.reader.line_num   # DictReader's lags behind
                raise SchemaError(str(exc), row=line) from None
        groups: dict = {}           # (wn, tow, prn) -> {page_index: page}
        first_row: dict = {}        # (wn, tow, prn) -> row of its first page
        for lineno, (wn, tow, prn, idx, raw) in enumerate(rows, start=2):
            key = (wn, tow, prn)
            pages = groups.setdefault(key, {})
            first_row.setdefault(key, lineno)
            if idx in pages:
                raise SchemaError(f"duplicate page {idx} in {key}",
                                  row=lineno, column="page_index")
            pages[idx] = raw
        bad = sorted(key for key, pages in groups.items()
                     if len(pages) != SLOTS_PER_SUBFRAME)
        if bad:
            raise SchemaError(f"incomplete subframes: {bad[:5]}",
                              row=first_row[bad[0]])
        oks = check_raws([row[4] for row in rows])
        failed = [row[:4] for row, ok in zip(rows, oks) if not ok]
        if failed:
            raise SchemaError(f"{len(failed)} page(s) fail CRC: {failed[:5]}")
        by_prn: dict = {}
        for wn, tow, prn in sorted(groups, key=lambda k: (k[2], k[0], k[1])):
            raws = tuple(raw for _, raw in sorted(groups[wn, tow, prn].items()))
            by_prn.setdefault(prn, []).append(Subframe(Gst(wn, tow), prn, raws))
        return cls(by_prn)

    @staticmethod
    def _parse_row(row, columns, index_base, lineno):
        """(wn, tow, prn, page_index, page bytes) of one row, the index made
        1-based; a bad value raises SchemaError naming its row and column."""
        out = []
        for name in _RANGES:
            raw = row.get(columns[name])
            if raw is None:
                raise SchemaError("missing value", row=lineno, column=name)
            digits = raw.strip().removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise SchemaError(f"not an integer: {raw!r}",
                                  row=lineno, column=name)
            out.append(int(raw))
        for (name, (low, high)), value in zip(_RANGES.items(), out):
            shift = index_base - 1 if name == "page_index" else 0
            if not low + shift <= value <= high + shift:
                raise SchemaError(f"{name} {value} is outside {low + shift}.."
                                  f"{high + shift}", row=lineno, column=name)
        out[3] -= index_base - 1
        page_hex = (row.get(columns["page_hex"]) or "").strip().lower()
        if len(page_hex) != 2 * PAGE_BYTES:
            raise SchemaError(f"page_hex must be {2 * PAGE_BYTES} hex chars",
                              row=lineno, column="page_hex")
        if not _HEX.issuperset(page_hex):
            raise SchemaError("page_hex is not hex",
                              row=lineno, column="page_hex")
        return (*out, bytes.fromhex(page_hex))

    def subframes(self) -> dict:
        """Fresh per-satellite subframe lists, in PRN order, each ordered
        by GST."""
        return {prn: list(sfs) for prn, sfs in self.by_prn.items()}
