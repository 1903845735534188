import pytest

from osnmasim.navdata import build_nav_data, parse_nav_data
from osnmasim.scenario import Scenario, ScenarioError

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
])
def test_out_of_range_field_is_named(field, kwargs):
    args = dict(wn=1251, tow=277200, prn=3, sat_ecef_m=SAT)
    args.update(kwargs)
    with pytest.raises(ValueError, match=field):
        build_nav_data(**args)


def test_tsf_scenario_rejects_out_of_range_iono_a0():
    """Rejected when the scenario is read, before any nav data is built."""
    with pytest.raises(ScenarioError, match=r"^\$\.attack\.iono_a0: 3000"):
        Scenario.from_dict({
            "seed": 7, "constellation": {"sats": 4, "subframes": 6},
            "attack": {"type": "tsf", "iono_a0": 3000}})
