"""Test-vector file handling.

The native schema is a comma-separated file with a header row
``wn,tow,prn,page_index,page_hex``: one row per page, fifteen rows per
(wn, tow, prn) group, pages as 30 lowercase hex bytes.  Files coming from
other tools are adapted through a small JSON mapping that renames columns
and fixes the page-index base.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from .gst import Gst, SECONDS_PER_WEEK
from .navdata import PRN_BITS, WN_BITS
from .pages import PAGE_BYTES, SLOTS_PER_SUBFRAME, Subframe, check_raws

HEADER = ["wn", "tow", "prn", "page_index", "page_hex"]
_HEX = frozenset("0123456789abcdef")

# the values a subframe's navigation data can carry
_RANGES = {"wn": (0, (1 << WN_BITS) - 1), "tow": (0, SECONDS_PER_WEEK - 1),
          "prn": (1, (1 << PRN_BITS) - 1)}


class SchemaError(ValueError):
    """Malformed vector file; carries the offending row and column."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = f" (row {row}" + (f", column {column!r})" if column else ")") \
            if row is not None else ""
        super().__init__(f"{message}{where}")


class CrcError(ValueError):
    """Pages whose checksum does not verify."""

    def __init__(self, pages):
        self.pages = pages
        super().__init__(f"{len(pages)} page(s) fail CRC: {pages[:5]}")


def _read_mapping(path) -> tuple:
    """Column names and page-index base, adapted by a JSON mapping file."""
    mapping = {}
    if path is not None:
        with open(path) as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise SchemaError(f"mapping must be a JSON object, got {mapping!r}")
    for key in mapping:
        if key not in ("columns", "page_index_base"):
            raise SchemaError(f"unknown mapping key {key!r}")
    renames = mapping.get("columns", {})
    if not isinstance(renames, dict):
        raise SchemaError(f"mapping key 'columns' must be an object, "
                          f"got {renames!r}")
    for name in renames:
        if name not in HEADER:
            raise SchemaError(f"mapping key 'columns' names unknown column "
                              f"{name!r}, expected one of {HEADER}")
    base = mapping.get("page_index_base", 1)
    if isinstance(base, bool) or not isinstance(base, int):
        raise SchemaError(f"mapping key 'page_index_base' must be an integer, "
                          f"got {base!r}")
    return {**{name: name for name in HEADER}, **renames}, base


@dataclass
class TestVectorSet:
    """Ordered page rows, grouped 15 to a subframe."""

    __test__ = False            # "Test" prefix is domain naming, not pytest's

    rows: list = field(default_factory=list)   # (wn, tow, prn, page_index, hex)

    def add_subframe(self, sf: Subframe) -> None:
        for idx, raw in enumerate(sf.raws, start=1):
            if raw is None:
                raise ValueError("vector sets store intact pages only")
            self.rows.append((sf.gst.wn, sf.gst.tow, sf.prn, idx, raw.hex()))

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER)
            writer.writerows(self.rows)

    @classmethod
    def load(cls, path, mapping_path=None) -> "TestVectorSet":
        columns, index_base = _read_mapping(mapping_path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError("empty file")
            missing = [columns[c] for c in HEADER
                       if columns[c] not in reader.fieldnames]
            if missing:
                raise SchemaError(f"missing columns {missing}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                rows.append(cls._parse_row(row, columns, index_base, lineno))
        vectors = cls(rows=rows)
        vectors.validate()
        return vectors

    @staticmethod
    def _parse_row(row, columns, index_base, lineno):
        out = []
        for name in ("wn", "tow", "prn", "page_index"):
            raw = row.get(columns[name])
            if raw is None:
                raise SchemaError("missing value", row=lineno, column=name)
            try:
                out.append(int(raw))
            except ValueError:
                raise SchemaError(f"not an integer: {raw!r}",
                                  row=lineno, column=name) from None
        for (name, (low, high)), value in zip(_RANGES.items(), out):
            if not low <= value <= high:
                raise SchemaError(f"{name} {value} is outside {low}..{high}",
                                  row=lineno, column=name)
        out[3] = out[3] - index_base + 1
        page_hex = (row.get(columns["page_hex"]) or "").strip().lower()
        if len(page_hex) != 2 * PAGE_BYTES:
            raise SchemaError(f"page_hex must be {2 * PAGE_BYTES} hex chars",
                              row=lineno, column="page_hex")
        if not _HEX.issuperset(page_hex):
            raise SchemaError("page_hex is not hex",
                              row=lineno, column="page_hex")
        return (*out, page_hex)

    def validate(self) -> None:
        """Schema and CRC validation over all rows; the only place a row's
        page is checked, all rows in one kernel call."""
        groups: dict = {}
        for wn, tow, prn, idx, page_hex in self.rows:
            if not 1 <= idx <= SLOTS_PER_SUBFRAME:
                raise SchemaError(f"page_index {idx} out of range")
            key = (wn, tow, prn)
            seen = groups.setdefault(key, set())
            if idx in seen:
                raise SchemaError(f"duplicate page {idx} in {key}")
            seen.add(idx)
        bad = [key for key, seen in groups.items()
               if len(seen) != SLOTS_PER_SUBFRAME]
        if bad:
            raise SchemaError(f"incomplete subframes: {sorted(bad)[:5]}")
        oks = check_raws([bytes.fromhex(row[4]) for row in self.rows])
        failed = [(wn, tow, prn, idx)
                  for (wn, tow, prn, idx, _), ok in zip(self.rows, oks)
                  if not ok]
        if failed:
            raise CrcError(failed)

    def subframes(self) -> dict:
        """Group into per-satellite subframe lists ordered by GST.

        Pages are not checked again: ``load`` validates every row, and
        ``from_subframes`` takes the sealed pages of subframes."""
        grouped: dict = {}
        for wn, tow, prn, idx, page_hex in self.rows:
            grouped.setdefault((prn, Gst(wn, tow)), {})[idx] = \
                bytes.fromhex(page_hex)
        out: dict = {}
        for (prn, gst) in sorted(grouped, key=lambda k: (k[0], k[1].total_seconds())):
            raws = grouped[(prn, gst)]
            sf = Subframe(gst=gst, prn=prn,
                          raws=tuple(raws[i] for i in range(1, 16)))
            out.setdefault(prn, []).append(sf)
        return out

    @classmethod
    def from_subframes(cls, subframes_by_prn: dict) -> "TestVectorSet":
        vectors = cls()
        for prn in sorted(subframes_by_prn):
            for sf in subframes_by_prn[prn]:
                vectors.add_subframe(sf)
        return vectors
