import pytest
from hypothesis import example, given, strategies as st

from osnmasim.navdata import build_nav_data, parse_nav_data
from osnmasim.scenario import Scenario
from osnmasim.vectors import SchemaError
from page_reference import ref_getbits, ref_getbitu, ref_setbitu

SAT = (15_600_000.123, -7_540_000.5, 20_140_000.0)


def test_nav_fields_round_trip():
    nav = parse_nav_data(build_nav_data(1251, 277200, 255, SAT,
                                        clock_bias_m=-12.345, iono_a0=2047))
    assert (nav.wn, nav.tow, nav.prn, nav.iono_a0) == (1251, 277200, 255, 2047)
    assert nav.sat_ecef_m == SAT
    assert nav.clock_bias_m == -12.345


@pytest.mark.parametrize("field, kwargs", [
    ("iono_a0", {"iono_a0": 2048}),
    ("iono_a0", {"iono_a0": -1}),
    ("iono_a0", {"iono_a0": 7.5}),
    ("prn", {"prn": 256}),
    ("wn", {"wn": 4096}),
    ("tow", {"tow": -1}),
    ("clock_bias_m", {"clock_bias_m": 2.2e6}),
    ("sat_ecef_m", {"sat_ecef_m": (1.5e11, 0.0, 0.0)}),
    ("clock_bias_m", {"clock_bias_m": -((1 << 31) + 1) / 1000}),
    ("clock_bias_m", {"clock_bias_m": (1 << 31) / 1000}),
    ("sat_ecef_m", {"sat_ecef_m": (0.0, -((1 << 47) + 1) / 1000, 0.0)}),
    ("sat_ecef_m", {"sat_ecef_m": (0.0, 0.0, (1 << 47) / 1000)}),
    ("sat_ecef_m", {"sat_ecef_m": (1.0, 2.0)}),
])
def test_out_of_range_field_is_named(field, kwargs):
    args = dict(wn=1251, tow=277200, prn=3, sat_ecef_m=SAT)
    args.update(kwargs)
    with pytest.raises(ValueError, match=field):
        build_nav_data(**args)


def test_tsf_scenario_rejects_out_of_range_iono_a0():
    """Rejected when the scenario is read, before any nav data is built."""
    with pytest.raises(SchemaError, match=r"^\$\.attack\.iono_a0: 3000"):
        Scenario.from_dict({
            "seed": 7, "constellation": {"sats": 4, "subframes": 6},
            "attack": {"type": "tsf", "iono_a0": 3000}})


# -- byte-slice reference: each field read and written through the bytes
#    that hold it (page_reference)


def ref_build_nav_data(wn, tow, prn, ecef_mm, clock_mm, iono_a0):
    buf = bytearray(240)
    ref_setbitu(buf, 6, 12, wn)
    ref_setbitu(buf, 18, 20, tow)
    ref_setbitu(buf, 38, 8, prn)
    for axis, mm in enumerate(ecef_mm):
        ref_setbitu(buf, 128 + 48 * axis, 48, mm)
    ref_setbitu(buf, 272, 32, clock_mm)
    ref_setbitu(buf, 1542, 11, iono_a0)
    return bytes(buf)


MM48 = st.integers(-(1 << 47), (1 << 47) - 1)
MM32 = st.integers(-(1 << 31), (1 << 31) - 1)


@given(st.integers(0, 4095), st.integers(0, (1 << 20) - 1), st.integers(0, 255),
       st.tuples(MM48, MM48, MM48), MM32, st.integers(0, 2047))
@example(4095, (1 << 20) - 1, 255, (-(1 << 47), (1 << 47) - 1, -1),
         -(1 << 31), 2047)
@example(0, 0, 0, ((1 << 47) - 1, -(1 << 47), 0), (1 << 31) - 1, 0)
def test_nav_data_matches_byte_slice_reference(wn, tow, prn, ecef_mm, clock_mm,
                                               iono_a0):
    """The one-int builder writes the bytes the byte-slice builder writes,
    and the one-int parser reads every field back, signed extremes too."""
    ecef_m = tuple(mm / 1000 for mm in ecef_mm)
    blob = build_nav_data(wn, tow, prn, ecef_m, clock_mm / 1000, iono_a0)
    assert blob == ref_build_nav_data(wn, tow, prn, ecef_mm, clock_mm, iono_a0)
    nav = parse_nav_data(blob)
    assert (nav.wn, nav.tow, nav.prn, nav.iono_a0) == (wn, tow, prn, iono_a0)
    assert nav.sat_ecef_m == ecef_m
    assert nav.clock_bias_m == clock_mm / 1000


@given(st.binary(min_size=240, max_size=240))
def test_parse_nav_data_matches_byte_slice_reference(blob):
    nav = parse_nav_data(blob)
    assert (nav.wn, nav.tow, nav.prn, nav.iono_a0) == (
        ref_getbitu(blob, 6, 12), ref_getbitu(blob, 18, 20),
        ref_getbitu(blob, 38, 8), ref_getbitu(blob, 1542, 11))
    assert nav.sat_ecef_m == tuple(ref_getbits(blob, 128 + 48 * axis, 48) / 1000
                                   for axis in range(3))
    assert nav.clock_bias_m == ref_getbits(blob, 272, 32) / 1000
