import csv
import json

import pytest

import osnmasim.vectors
from osnmasim.pages import Subframe
from osnmasim.vectors import SchemaError, TestVectorSet

# an intact capture page, CRC-consistent, usable as a drop-in page 13
REFERENCE_PAGE = "054bc11429a07f9fc009c6875d2a80aaaab21d69f9a18e29635cf8ec0100"


def _bundle_subframes(bundle) -> dict:
    return {prn: stream.subframes()
            for prn, stream in sorted(bundle.streams.items())}


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
    rebuilt = TestVectorSet(small_bundle.vectors.subframes())
    assert rebuilt.subframes() == _bundle_subframes(small_bundle)
    assert list(rebuilt.subframes()) == sorted(small_bundle.streams)


def test_subframes_are_fresh_lists(small_bundle):
    vectors = small_bundle.vectors
    vectors.subframes()[1].clear()
    assert vectors.subframes() == _bundle_subframes(small_bundle)


def test_from_subframes_rejects_a_destroyed_slot(small_bundle):
    sf = small_bundle.streams[1].subframes()[0]
    broken = Subframe(gst=sf.gst, prn=sf.prn, raws=(None,) + sf.raws[1:])
    with pytest.raises(ValueError, match="intact pages only"):
        TestVectorSet({1: [sf, broken]})


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
    assert str(err.value) == "page_hex is not hex (row 2, column 'page_hex')"


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
    assert str(err.value) == "page_hex is not hex (row 2, column 'page_hex')"


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
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == \
        f"1 page(s) fail CRC: [({wn}, {tow}, {prn}, {idx})]"


def test_reference_page_loads_crc_valid(small_bundle, tmp_path):
    """A vector file embedding the intact reference page validates."""
    sf = small_bundle.streams[1].subframes()[0]
    raws = sf.raws[:12] + (bytes.fromhex(REFERENCE_PAGE),) + sf.raws[13:]
    path = tmp_path / "embed.csv"
    TestVectorSet({1: [Subframe(gst=sf.gst, prn=1, raws=raws)]}).save(path)
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
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == ("duplicate page 1 in (1251, 277200, 1) "
                              f"(row {len(lines) + 1}, column 'page_index')")


def test_incomplete_subframe_names_its_first_row(small_bundle, tmp_path):
    """A subframe short of a page is named by the row of its first page;
    no column is at fault."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    lines = path.read_text().splitlines()
    del lines[20]                        # page 5 of the second subframe
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == \
        "incomplete subframes: [(1251, 277230, 1)] (row 17)"


# the ids are pinned so that each case keeps its name when its message
# changes
@pytest.mark.parametrize("mapping,message", [
    pytest.param({"colums": {"wn": "WEEK"}}, "$.colums: unknown key",
                 id="mapping0-'colums'"),
    pytest.param({"columns": {"week": "WEEK"}}, "$.columns.week: unknown key",
                 id="mapping1-'week'"),
    pytest.param({"columns": ["wn", "WEEK"]},
                 "$.columns: expected an object, got ['wn', 'WEEK']",
                 id="mapping2-'columns'"),
    pytest.param({"page_index_base": "0"},
                 "$.page_index_base: expected int, got '0'",
                 id="mapping3-'page_index_base'"),
    pytest.param({"page_index_base": True},
                 "$.page_index_base: expected int, got True",
                 id="mapping4-'page_index_base'"),
    pytest.param([{"page_index_base": 0}],
                 "$: expected an object, got [{'page_index_base': 0}]",
                 id="mapping5-JSON object"),
    pytest.param({"columns": {"tow": 2}}, "$.columns.tow: expected str, got 2",
                 id="mapping6-'columns' maps 'tow' to 2"),
    pytest.param({"columns": {"tow": "wn"}},
                 "$.columns.tow: mapping sends 'wn' and 'tow' to one column "
                 "'wn'",
                 id="mapping7-^mapping sends 'wn' and 'tow' to one column "
                    "'wn'$"),
    pytest.param({"columns": {"wn": "WEEK", "prn": "WEEK"}},
                 "$.columns.prn: mapping sends 'wn' and 'prn' to one column "
                 "'WEEK'",
                 id="mapping8-^mapping sends 'wn' and 'prn' to one column "
                    "'WEEK'$"),
])
def test_bad_mapping_schema_error(small_bundle, tmp_path, mapping, message):
    """A mapping that would be misread is rejected with the file and the
    JSON path named once, and the key, or the fields and the column it
    would misread, named."""
    native = tmp_path / "native.csv"
    small_bundle.vectors.save(native)
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(mapping))
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(native, mapping_path=path)
    assert str(err.value) == f"{path}: {message}"


def test_mapping_that_swaps_two_columns_loads(small_bundle, tmp_path):
    """Fields may trade columns: a file whose wn and tow columns are
    swapped in its header loads as the native file does."""
    native = tmp_path / "native.csv"
    small_bundle.vectors.save(native)
    swapped = tmp_path / "swapped.csv"
    lines = native.read_text().splitlines()
    lines[0] = lines[0].replace("wn,tow", "tow,wn")
    swapped.write_text("\n".join(lines) + "\n")
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({"columns": {"wn": "tow", "tow": "wn"}}))
    loaded = TestVectorSet.load(swapped, mapping_path=path)
    assert loaded.subframes() == _bundle_subframes(small_bundle)


@pytest.mark.parametrize("text,key", [
    ('{"page_index_base": 0, "page_index_base": 1}', "page_index_base"),
    ('{"columns": {"wn": "WEEK", "wn": "wn"}}', "wn"),
])
def test_mapping_with_a_repeated_key_schema_error(small_bundle, tmp_path,
                                                  text, key):
    """A key given twice is rejected by name, at any depth, not read as its
    last value."""
    native = tmp_path / "native.csv"
    small_bundle.vectors.save(native)
    path = tmp_path / "mapping.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(native, mapping_path=path)
    assert str(err.value) == f"{path}: repeated key '{key}'"


def _with_a_first_column(path, name, value):
    """Prepend a column headed name, holding value in every data row."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join([f"{name},{lines[0]}"] + [
        f"{value},{line}" for line in lines[1:]]) + "\n")


@pytest.mark.parametrize("mapping,column", [
    (None, "wn"),
    ({"columns": {"wn": "WEEK"}}, "WEEK"),
])
def test_a_repeated_mapped_column_schema_error(small_bundle, tmp_path,
                                               mapping, column):
    """A header that names a mapped column twice is rejected by name: the
    csv module would read only the last of the two, so the week below
    would load from the second column."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    if mapping is not None:
        path.write_text(path.read_text().replace("wn,", f"{column},", 1))
        (tmp_path / "mapping.json").write_text(json.dumps(mapping))
        mapping = tmp_path / "mapping.json"
    _with_a_first_column(path, column, 99999)
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path, mapping_path=mapping)
    assert str(err.value) == f"repeated column (row 1, column {column!r})"


def test_a_repeated_unmapped_column_loads(small_bundle, tmp_path):
    """Columns no field reads may repeat: they are never read."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_a_first_column(path, "note", "x")
    _with_a_first_column(path, "note", "y")
    assert TestVectorSet.load(path).subframes() == \
        _bundle_subframes(small_bundle)


def _with_column(path, column, value, rows):
    """Rewrite one column in the given data rows (1-based) of a CSV."""
    lines = path.read_text().splitlines()
    index = lines[0].split(",").index(column)
    for r in rows:
        cells = lines[r].split(",")
        cells[index] = str(value)
        lines[r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# each column's range as the error text gives it, the page index 1-based
_BOUNDS = {"wn": "0..4095", "tow": "0..604799", "prn": "1..255",
           "page_index": "1..15"}


@pytest.mark.parametrize("column,value", [
    ("wn", -1), ("wn", 4096), ("tow", -1), ("tow", 604800), ("tow", 700000),
    ("prn", 0), ("prn", 256), ("prn", 300), ("page_index", 16),
    ("page_index", 0)])
def test_out_of_range_value_schema_error(small_bundle, tmp_path, column,
                                         value):
    """A value no subframe can carry is rejected at load, its row and
    column named, before grouping or CRC checks."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_column(path, column, value, range(16, 31))
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == (f"{column} {value} is outside {_BOUNDS[column]}"
                              f" (row 17, column {column!r})")


@pytest.mark.parametrize("base, message", [
    (0, "page_index 15 is outside 0..14 (row 16, column 'page_index')"),
    (2, "page_index 1 is outside 2..16 (row 2, column 'page_index')")])
def test_page_index_range_follows_the_mapping_base(small_bundle, tmp_path,
                                                   base, message):
    """A 1-based file read with another base fails at its first page index
    outside that base's range, the range named as the file writes it."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"page_index_base": base}))
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path, mapping_path=mapping)
    assert str(err.value) == message


@pytest.mark.parametrize("column,value", [
    ("wn", 0), ("wn", 4095), ("tow", 0), ("tow", 604799), ("prn", 1),
    ("prn", 255)])
def test_range_limits_load(small_bundle, tmp_path, column, value):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_column(path, column, value, range(1, 16))
    loaded = TestVectorSet.load(path).subframes()
    assert sum(map(len, loaded.values())) == \
        sum(map(len, small_bundle.streams.values()))


@pytest.mark.parametrize("column,value", [
    ("wn", "1_251"), ("tow", "\u0662\u0667\u0667\u0662\u0660\u0660"),
    ("prn", "+1"), ("prn", "\uff11"), ("page_index", "0x1"), ("wn", "1251.0"),
    ("tow", "-"), ("prn", "")])
def test_non_decimal_integer_schema_error(small_bundle, tmp_path, column,
                                          value):
    """An integer cell holds ASCII decimal digits, a minus sign allowed in
    front: underscores, a plus sign and other scripts' digits, all of which
    int() takes, are rejected with their row and column named."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    _with_column(path, column, value, range(16, 31))
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == \
        f"not an integer: {value!r} (row 17, column {column!r})"


def test_integers_padded_with_spaces_load(small_bundle, tmp_path):
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    for column in ("wn", "tow", "prn", "page_index"):
        lines = path.read_text().splitlines()
        index = lines[0].split(",").index(column)
        _with_column(path, column, f" {lines[1].split(',')[index]} ", [1])
    assert TestVectorSet.load(path).subframes() == \
        small_bundle.vectors.subframes()
