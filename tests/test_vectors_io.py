import csv
import json

import pytest

import osnmasim.vectors
from osnmasim.pages import Subframe
from osnmasim.vectors import CrcError, SchemaError, TestVectorSet

# an intact capture page, CRC-consistent, usable as a drop-in page 13
REFERENCE_PAGE = "054bc11429a07f9fc009c6875d2a80aaaab21d69f9a18e29635cf8ec0100"


def _bundle_subframes(bundle) -> dict:
    return {prn: list(sfs) for prn, sfs in sorted(bundle.subframes.items())}


def test_save_load_round_trip(small_bundle, tmp_path):
    """Load gives back the saved subframes, and saving them again writes
    the same bytes."""
    path, again = tmp_path / "vectors.csv", tmp_path / "again.csv"
    small_bundle.vectors.save(path)
    loaded = TestVectorSet.load(path)
    assert loaded.subframes() == _bundle_subframes(small_bundle)
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_subframes_round_trip(small_bundle):
    rebuilt = TestVectorSet.from_subframes(small_bundle.vectors.subframes())
    assert rebuilt.subframes() == _bundle_subframes(small_bundle)
    assert list(rebuilt.subframes()) == sorted(small_bundle.subframes)


def test_subframes_are_fresh_lists(small_bundle):
    vectors = small_bundle.vectors
    vectors.subframes()[1].clear()
    assert vectors.subframes() == _bundle_subframes(small_bundle)


def test_from_subframes_rejects_a_destroyed_slot(small_bundle):
    sf = small_bundle.subframes[1][0]
    broken = Subframe(gst=sf.gst, prn=sf.prn, raws=(None,) + sf.raws[1:])
    with pytest.raises(ValueError, match="intact pages only"):
        TestVectorSet.from_subframes({1: [sf, broken]})


def test_rows_out_of_order_load_in_gst_order(small_bundle, tmp_path):
    """Rows in any order group into each satellite's subframes by GST, and
    save writes them back in PRN, GST and page order."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    header, *rows = path.read_text().splitlines()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + rows[::-1]) + "\n")
    loaded = TestVectorSet.load(shuffled)
    assert loaded.subframes() == _bundle_subframes(small_bundle)
    loaded.save(shuffled)
    assert shuffled.read_bytes() == path.read_bytes()


def test_truncated_file_schema_error(small_bundle, tmp_path):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:8]) + "\n")
    with pytest.raises(SchemaError):
        TestVectorSet.load(path)


def test_bad_hex_schema_error(small_bundle, tmp_path):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    text = path.read_text().splitlines()
    wn, tow, prn, idx, page_hex = text[1].split(",")
    text[1] = ",".join([wn, tow, prn, idx, "zz" + page_hex[2:]])
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert err.value.row == 2
    assert err.value.column == "page_hex"


def test_spaced_hex_schema_error(small_bundle, tmp_path):
    """Hex with spaces between bytes is rejected at its row, though
    ``bytes.fromhex`` would read it as 29 bytes."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    text = path.read_text().splitlines()
    wn, tow, prn, idx, page_hex = text[1].split(",")
    text[1] = ",".join([wn, tow, prn, idx,
                        page_hex[:2] + "  " + page_hex[4:]])
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert (err.value.row, err.value.column) == (2, "page_hex")


def test_each_page_is_decoded_once(small_bundle, tmp_path, monkeypatch):
    """Loading a file checks each row's page once, all rows in one batch:
    the pages parsed from the rows, in file order."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    calls = []

    def counted(raws):
        calls.append(list(raws))
        return check_raws(raws)

    check_raws = osnmasim.vectors.check_raws
    monkeypatch.setattr(osnmasim.vectors, "check_raws", counted)
    subframes = TestVectorSet.load(path).subframes()
    assert len(calls) == 1
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert calls[0] == [bytes.fromhex(row["page_hex"]) for row in rows]
    assert len(calls[0]) == 15 * sum(map(len, subframes.values()))


def test_corrupted_page_crc_error(small_bundle, tmp_path):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    text = path.read_text().splitlines()
    wn, tow, prn, idx, page_hex = text[3].split(",")
    flipped = f"{int(page_hex[10], 16) ^ 8:x}"
    text[3] = ",".join([wn, tow, prn, idx,
                        page_hex[:10] + flipped + page_hex[11:]])
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(CrcError) as err:
        TestVectorSet.load(path)
    assert (int(wn), int(tow), int(prn), int(idx)) in err.value.pages


def test_reference_page_loads_crc_valid(small_bundle, tmp_path):
    """A vector file embedding the intact reference page validates."""
    sf = small_bundle.subframes[1][0]
    raws = sf.raws[:12] + (bytes.fromhex(REFERENCE_PAGE),) + sf.raws[13:]
    path = tmp_path / "embed.csv"
    TestVectorSet.from_subframes(
        {1: [Subframe(gst=sf.gst, prn=1, raws=raws)]}).save(path)
    loaded = TestVectorSet.load(path)
    assert loaded.subframes()[1][0].raws[12].hex() == REFERENCE_PAGE


def test_missing_column_schema_error(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("week,second,sat,idx,hex\n")
    with pytest.raises(SchemaError):
        TestVectorSet.load(path)


def test_foreign_format_adapter(small_bundle, tmp_path):
    """Column renames and a zero-based page index map through the
    documented adapter file."""
    native = tmp_path / "native.csv"
    small_bundle.vectors.save(native)
    foreign = tmp_path / "foreign.csv"
    with open(native) as src, open(foreign, "w", newline="") as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst)
        next(reader)
        writer.writerow(["WEEK", "TOW_S", "SVID", "PAGE0", "HEXDATA"])
        for wn, tow, prn, idx, page_hex in reader:
            writer.writerow([wn, tow, prn, int(idx) - 1, page_hex])
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({
        "columns": {"wn": "WEEK", "tow": "TOW_S", "prn": "SVID",
                    "page_index": "PAGE0", "page_hex": "HEXDATA"},
        "page_index_base": 0,
    }))
    loaded = TestVectorSet.load(foreign, mapping_path=mapping)
    assert loaded.subframes() == _bundle_subframes(small_bundle)


def test_duplicate_page_rejected(small_bundle, tmp_path):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(SchemaError, match=r"duplicate page 1 in \(1251, "
                                          r"277200, 1\)"):
        TestVectorSet.load(path)


@pytest.mark.parametrize("mapping,key", [
    ({"colums": {"wn": "WEEK"}}, "'colums'"),
    ({"columns": {"week": "WEEK"}}, "'week'"),
    ({"columns": ["wn", "WEEK"]}, "'columns'"),
    ({"page_index_base": "0"}, "'page_index_base'"),
    ({"page_index_base": True}, "'page_index_base'"),
    ([{"page_index_base": 0}], "JSON object"),
])
def test_bad_mapping_schema_error(small_bundle, tmp_path, mapping, key):
    """A mapping that would be misread is rejected with its key named."""
    native = tmp_path / "native.csv"
    small_bundle.vectors.save(native)
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(mapping))
    with pytest.raises(SchemaError, match=key):
        TestVectorSet.load(native, mapping_path=path)


def _with_column(path, column, value, rows):
    """Rewrite one column in the given data rows (1-based) of a CSV."""
    lines = path.read_text().splitlines()
    index = lines[0].split(",").index(column)
    for r in rows:
        cells = lines[r].split(",")
        cells[index] = str(value)
        lines[r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column,value", [
    ("wn", -1), ("wn", 4096), ("tow", -1), ("tow", 604800), ("tow", 700000),
    ("prn", 0), ("prn", 256), ("prn", 300)])
def test_out_of_range_value_schema_error(small_bundle, tmp_path, column,
                                         value):
    """A value no subframe can carry is rejected at load, its row and
    column named, before grouping or CRC checks."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_column(path, column, value, range(16, 31))
    with pytest.raises(SchemaError, match=f"{column} {value} is outside") \
            as err:
        TestVectorSet.load(path)
    assert (err.value.row, err.value.column) == (17, column)


@pytest.mark.parametrize("column,value", [
    ("wn", 0), ("wn", 4095), ("tow", 0), ("tow", 604799), ("prn", 1),
    ("prn", 255)])
def test_range_limits_load(small_bundle, tmp_path, column, value):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_column(path, column, value, range(1, 16))
    loaded = TestVectorSet.load(path).subframes()
    assert sum(map(len, loaded.values())) == \
        sum(map(len, small_bundle.subframes.values()))
