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
    """Sealed subframes by PRN, in PRN order, each PRN's in GST order.

    Hex exists only in the CSV file: load decodes each row's page once,
    and save formats the rows from the subframes.
    """

    __test__ = False            # "Test" prefix is domain naming, not pytest's

    by_prn: dict = field(default_factory=dict)     # prn -> [Subframe]

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
        """Schema-check every row, then check that each (wn, tow, prn) has
        its 15 pages once, then check every page's flags and CRC in one
        kernel call."""
        columns, index_base = _read_mapping(mapping_path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError("empty file")
            missing = [columns[c] for c in HEADER
                       if columns[c] not in reader.fieldnames]
            if missing:
                raise SchemaError(f"missing columns {missing}")
            rows = [cls._parse_row(row, columns, index_base, lineno)
                    for lineno, row in enumerate(reader, start=2)]
        groups: dict = {}
        for wn, tow, prn, idx, raw in rows:
            if not 1 <= idx <= SLOTS_PER_SUBFRAME:
                raise SchemaError(f"page_index {idx} out of range")
            key = (wn, tow, prn)
            pages = groups.setdefault(key, {})
            if idx in pages:
                raise SchemaError(f"duplicate page {idx} in {key}")
            pages[idx] = raw
        bad = [key for key, pages in groups.items()
               if len(pages) != SLOTS_PER_SUBFRAME]
        if bad:
            raise SchemaError(f"incomplete subframes: {sorted(bad)[:5]}")
        oks = check_raws([row[4] for row in rows])
        failed = [row[:4] for row, ok in zip(rows, oks) if not ok]
        if failed:
            raise CrcError(failed)
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
        return (*out, bytes.fromhex(page_hex))

    def subframes(self) -> dict:
        """Fresh per-satellite subframe lists, in PRN order, each ordered
        by GST."""
        return {prn: list(sfs) for prn, sfs in self.by_prn.items()}

    @classmethod
    def from_subframes(cls, subframes_by_prn: dict) -> "TestVectorSet":
        """The subframes by PRN, each PRN's given in GST order; a
        destroyed slot raises ValueError."""
        if not all(sf.complete for sfs in subframes_by_prn.values()
                   for sf in sfs):
            raise ValueError("vector sets store intact pages only")
        return cls({prn: list(subframes_by_prn[prn])
                    for prn in sorted(subframes_by_prn)})
