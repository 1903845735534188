import ast
import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from functools import partial
from pathlib import Path

import pytest

import osnmasim.attacks
import osnmasim.pages
import osnmasim.positioning
import osnmasim.receiver
import osnmasim.scenario
from osnmasim.navdata import build_nav_data, parse_nav_data
from osnmasim.pages import SUBFRAME_BYTES
from osnmasim.receiver import Outcome
from osnmasim.scenario import (
    ATTACKS,
    POLICIES,
    SCENARIO_KEYS,
    Scenario,
    diff_reports,
    generate_synthetic_constellation,
    run_scenario,
    simulate,
    write_report,
)
from osnmasim.vectors import SchemaError, TestVectorSet
from page_reference import page_events
from report_text import report_to_json

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def _scenario(attack, sats=8, subframes=14, **extra):
    cfg = {
        "name": "test",
        "seed": 7,
        "constellation": {"sats": sats, "subframes": subframes},
        "attack": attack,
    }
    cfg.update(extra)
    return Scenario.from_dict(cfg)


def _outcomes(report):
    return [v["outcome"] for v in report["receiver"]["verdicts"]]


def test_reports_are_deterministic():
    sc = _scenario({"type": "tsr_realtime", "delay_s": "29.5"})
    a = report_to_json(run_scenario(sc))
    b = report_to_json(run_scenario(sc))
    assert a == b


def test_baseline_soundness():
    report = run_scenario(_scenario({"type": "none"}))
    outcomes = set(_outcomes(report))
    assert outcomes == {"authentic"}
    assert report["exit_code"] == 0
    assert report["receiver"]["status"] == "authenticating"


def test_minimal_constellation_baseline():
    report = run_scenario(_scenario({"type": "none"}, sats=4, subframes=10))
    assert set(_outcomes(report)) == {"authentic"}


def test_baseline_fix_matches_site():
    report = run_scenario(_scenario({"type": "none"}))
    assert report["auth_fixes"]
    for fix in report["auth_fixes"].values():
        geo = fix["geodetic"]
        assert geo["lat_deg"] == pytest.approx(45.0, abs=1e-7)
        assert geo["lon_deg"] == pytest.approx(7.6, abs=1e-7)
        assert geo["height_m"] == pytest.approx(240.0, abs=1e-3)


@pytest.mark.parametrize("lat_deg", [90, -90])
def test_baseline_fix_on_a_pole_reports_the_site_height(lat_deg):
    """On a pole, where every fix lies a fraction of a micrometre off the
    polar axis, every raw and authenticated fix reports the pole's latitude
    and the site's height; longitude is undefined there."""
    site = {"lat_deg": lat_deg, "lon_deg": 7.6, "height_m": 240.0}
    report = run_scenario(Scenario.from_dict({
        "seed": 1, "constellation": {"receiver": site}}))
    assert report["receiver"]["status"] == "authenticating"
    assert report["auth_fixes"]
    for fix in report["raw_fixes"] + list(report["auth_fixes"].values()):
        assert fix["geodetic"]["lat_deg"] == lat_deg
        assert fix["geodetic"]["height_m"] == pytest.approx(240.0, abs=1e-3)


def test_tampered_vector_bit_caught(small_bundle, tmp_path):
    """Any post-generation bit flip surfaces in validation."""
    path = tmp_path / "vectors.csv"
    small_bundle.vectors.save(path)
    lines = path.read_text().splitlines()
    wn, tow, prn, idx, page_hex = lines[38].split(",")
    flipped = f"{int(page_hex[20], 16) ^ 1:x}"
    lines[38] = ",".join([wn, tow, prn, idx,
                          page_hex[:20] + flipped + page_hex[21:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        TestVectorSet.load(path)
    assert str(err.value) == \
        f"1 page(s) fail CRC: [({wn}, {tow}, {prn}, {idx})]"


def test_exit_code_two_on_failure_verdicts():
    report = run_scenario(_scenario(
        {"type": "tsf", "target": {"lat_deg": 4, "lon_deg": 50,
                                   "height_m": 100},
         "forge_tags": False}))
    assert report["exit_code"] == 2
    assert "tag_mismatch" in _outcomes(report)


def test_scenario_duration_beyond_subframes_rejected():
    with pytest.raises(SchemaError, match=r"\$\.duration_rounds"):
        _scenario({"type": "none"}, subframes=8, duration_rounds=99)


def _with(path: str, value):
    """A valid scenario with one value set at a dotted path; the path "$"
    sets several top-level keys at once."""
    cfg = {"seed": 7, "constellation": {"sats": 4, "subframes": 12},
           "receiver": {"policy": {"type": "alternate"}},
           "attack": {"type": "cr"}, "duration_rounds": 12}
    if path == "$":
        return {**cfg, **value}
    *parents, leaf = path.split(".")
    block = cfg
    for name in parents:
        block = block.setdefault(name, {})
    block[leaf] = value
    return cfg


BAD_CONFIGS = [
    # (dotted path, value, JSON path the error must name)
    ("attack", {"type": "tsr_realtime", "delay": "30.5"}, "$.attack.delay"),
    ("attack", {"type": "tsr_replay"}, "$.attack.type"),
    ("attack", {"type": ["cr"]}, "$.attack.type"),
    ("receiver.policy", {"type": "lenient"}, "$.receiver.policy.type"),
    ("receiver.policy", {"type": "alternate", "t_l": 30},
     "$.receiver.policy.t_l"),
    ("receiver.policy", {"type": "symmetric", "b_s": True},
     "$.receiver.policy.b_s"),
    ("receiver.policy", {"type": "alternate", "t_l_s": -1},
     "$.receiver.policy.t_l_s"),
    ("receiver.policy", {"type": "symmetric", "b_s": "-0.5"},
     "$.receiver.policy.b_s"),
    ("receiver.lrt_offset_s", True, "$.receiver.lrt_offset_s"),
    ("receiver.lrt_error_bound_s", "abc", "$.receiver.lrt_error_bound_s"),
    ("attack", {"type": "cr", "replay_delay_s": None},
     "$.attack.replay_delay_s"),
    ("attack", {"type": "cr", "onset_round": 12}, "$.attack.onset_round"),
    ("attack", {"type": "cr", "onset_round": -1}, "$.attack.onset_round"),
    ("attack", {"type": "tsf", "target": {"lat": 4}}, "$.attack.target.lat"),
    ("attack", {"type": "tsf", "forge_tags": "yes"}, "$.attack.forge_tags"),
    ("attack", "cr", "$.attack"),
    ("duration_rounds", 0, "$.duration_rounds"),
    ("duration_rounds", 12.0, "$.duration_rounds"),
    ("duration_rounds", 13, "$.duration_rounds"),
    ("seed", True, "$.seed"),
    ("constellation.receiver.lat", 45.0, "$.constellation.receiver.lat"),
    ("constellation.sats", "8", "$.constellation.sats"),
    ("durations_rounds", 12, "$.durations_rounds"),
    ("constellation.sats", 3, "$.constellation.sats"),
    ("constellation.wn", -1, "$.constellation.wn"),
    ("constellation.tow", 700000, "$.constellation.tow"),
    ("constellation.tow", -1, "$.constellation.tow"),
    ("receiver.lrt_error_bound_s", -1, "$.receiver.lrt_error_bound_s"),
    ("receiver.lrt_error_bound_s", "-0.5", "$.receiver.lrt_error_bound_s"),
    ("receiver.seg_count", 0, "$.receiver.seg_count"),
    ("receiver.seg_count", 9, "$.receiver.seg_count"),
    ("attack", {"type": "tsf", "iono_a0": 2048}, "$.attack.iono_a0"),
    ("attack", {"type": "tsf", "iono_a0": -1}, "$.attack.iono_a0"),
    ("attack", {"type": "tsr_realtime", "delay_s": "-0.5"}, "$.attack.delay_s"),
    # Decimal reads each of these as 29.5; a seconds string is ASCII digits
    ("attack", {"type": "tsr_realtime", "delay_s": "2_9.5"}, "$.attack.delay_s"),
    ("attack", {"type": "tsr_realtime", "delay_s": "\u0662\u0669.\u0665"},
     "$.attack.delay_s"),
    ("attack", {"type": "tsr_realtime", "delay_s": "+29.5"}, "$.attack.delay_s"),
    ("attack", {"type": "tsr_realtime", "delay_s": "29.5e0"}, "$.attack.delay_s"),
    ("receiver.lrt_offset_s", "29.5004", "$.receiver.lrt_offset_s"),
    ("attack", {"type": "tsr_recorded", "staleness_s": -32},
     "$.attack.staleness_s"),
    ("attack", {"type": "tsf", "mitm_delay_s": -1}, "$.attack.mitm_delay_s"),
    ("attack", {"type": "cr", "t_acq_s": -1}, "$.attack.t_acq_s"),
    ("constellation.wn", 4096, "$.constellation.wn"),
    ("constellation.sats", 256, "$.constellation.sats"),
    ("constellation", {"sats": 4, "subframes": 12, "wn": 0, "tow": 29},
     "$.constellation.tow"),
    ("constellation", {"sats": 4, "subframes": 12, "wn": 4095, "tow": 604470},
     "$.constellation.subframes"),
    ("$", {"constellation": {"sats": 4, "subframes": 2},
           "attack": {"type": "tsf"}, "duration_rounds": 2},
     "$.constellation.subframes"),
    ("attack", {"type": "tsf", "target": {"lat_deg": -120, "lon_deg": 400}},
     "$.attack.target.lat_deg"),
    ("attack", {"type": "tsf", "target": {"lat_deg": 90.5}},
     "$.attack.target.lat_deg"),
    ("attack", {"type": "tsf", "target": {"lon_deg": 400}},
     "$.attack.target.lon_deg"),
    ("attack", {"type": "tsf", "target": {"lon_deg": -180.5}},
     "$.attack.target.lon_deg"),
    ("constellation.receiver", {"lat_deg": 95}, "$.constellation.receiver.lat_deg"),
    ("constellation.receiver", {"lat_deg": -90.5},
     "$.constellation.receiver.lat_deg"),
    ("constellation.receiver", {"lon_deg": 181},
     "$.constellation.receiver.lon_deg"),
    ("constellation.receiver", {"lon_deg": -400},
     "$.constellation.receiver.lon_deg"),
    ("constellation.subframes", 0, "$.constellation.subframes"),
    ("receiver.key_reject_threshold", 0, "$.receiver.key_reject_threshold"),
    ("receiver.key_reject_threshold", -5, "$.receiver.key_reject_threshold"),
    ("attack", {"type": "tsf", "clock_bias_m": 3e6}, "$.attack.clock_bias_m"),
    ("attack", {"type": "tsf", "clock_bias_m": -2147483.649},
     "$.attack.clock_bias_m"),
    ("attack", {"type": "tsf", "clock_bias_m": float("inf")},
     "$.attack.clock_bias_m"),
    ("attack", {"type": "tsf", "clock_offset_s": float("nan")},
     "$.attack.clock_offset_s"),
    ("constellation.receiver", {"height_m": float("nan")},
     "$.constellation.receiver.height_m"),
    ("constellation.receiver", {"lat_deg": float("nan")},
     "$.constellation.receiver.lat_deg"),
    ("constellation.receiver", {"lon_deg": float("inf")},
     "$.constellation.receiver.lon_deg"),
    ("constellation.receiver", {"height_m": 1e12},
     "$.constellation.receiver.height_m"),
    ("constellation.receiver", {"height_m": -140704088762},
     "$.constellation.receiver.height_m"),
    ("constellation.receiver", {"height_m": 2000000.5},
     "$.constellation.receiver.height_m"),
    # a drawn site whose genuine auth fixes all read "satellite geometry is
    # degenerate" (seed 0, 4 satellites, 7 subframes, wn 0, tow 30)
    ("constellation.receiver", {"height_m": 19835357.0},
     "$.constellation.receiver.height_m"),
    ("attack", {"type": "tsr_realtime", "delay_s": "29.5004"},
     "$.attack.delay_s"),
    ("attack", {"type": "tsf", "clock_offset_s": 1e300},
     "$.attack.clock_offset_s"),
    ("attack", {"type": "tsf", "clock_offset_s": -3600.001},
     "$.attack.clock_offset_s"),
    ("attack", {"type": "tsf", "target": {"height_m": 1e9}},
     "$.attack.target.height_m"),
    ("attack", {"type": "tsf", "target": {"height_m": -1e7}},
     "$.attack.target.height_m"),
    ("attack", {"type": "cr", "t_acq_s": 0.0005}, "$.attack.t_acq_s"),
]


def test_out_of_range_geodetic_error_quotes_the_written_value():
    with pytest.raises(SchemaError, match=r"^\$\.attack\.target\.lat_deg: "
                       r"-120 is outside -90\.\.90$"):
        Scenario.from_dict(_with("attack", {
            "type": "tsf", "target": {"lat_deg": -120, "lon_deg": 400}}))


def test_bad_config_table_starts_from_a_valid_config():
    assert Scenario.from_dict(_with("seed", 7)).duration_rounds == 12


@pytest.mark.parametrize("path,value", [
    ("constellation.wn", 0), ("constellation.tow", 604799),
    ("receiver.seg_count", 1), ("receiver.seg_count", 8),
    ("attack", {"type": "tsf", "iono_a0": 2047}),
    ("constellation.wn", 4095), ("constellation.sats", 255),
    ("constellation", {"sats": 4, "subframes": 12, "wn": 0, "tow": 30}),
    ("constellation", {"sats": 4, "subframes": 12, "wn": 4095, "tow": 604469}),
    ("$", {"constellation": {"sats": 4, "subframes": 3},
           "attack": {"type": "tsf"}, "duration_rounds": 3}),
    ("attack", {"type": "tsf", "target": {"lat_deg": -90, "lon_deg": 180}}),
    ("attack", {"type": "tsf", "target": {"lat_deg": 90, "lon_deg": -180}}),
    ("constellation.receiver", {"lat_deg": -90, "lon_deg": -180}),
    ("constellation.receiver", {"lat_deg": 90.0, "lon_deg": 180.0}),
    ("$", {"constellation": {"sats": 4, "subframes": 1},
           "attack": {"type": "none"}, "duration_rounds": 1}),
    ("receiver.key_reject_threshold", 1),
    ("attack", {"type": "tsf", "clock_bias_m": -2147483.648}),
    ("attack", {"type": "tsf", "clock_bias_m": 2147483.647}),
    ("constellation.receiver", {"lat_deg": 90, "height_m": 2000000}),
    ("attack", {"type": "tsr_realtime", "delay_s": "29.500"}),
])
def test_range_bounds_load(path, value):
    Scenario.from_dict(_with(path, value))


def test_clock_bias_bounds_are_the_broadcast_field_edges():
    """Both clock-bias bounds fit the signed mm field and read back as
    written; one mm beyond either does not fit."""
    _, _, low, high = ATTACKS["tsf"][0]["clock_bias_m"]
    for edge, beyond in ((low, low - 0.001), (high, high + 0.001)):
        blob = build_nav_data(1251, 277200, 1, (0.0, 0.0, 0.0), edge)
        assert parse_nav_data(blob).clock_bias_m == edge
        with pytest.raises(ValueError, match="clock_bias_m"):
            build_nav_data(1251, 277200, 1, (0.0, 0.0, 0.0), beyond)


@pytest.mark.parametrize("lat_deg,lon_deg", [(90, 0), (-90, 180), (0, 0),
                                             (45, 7.6)])
def test_every_site_height_that_loads_generates(lat_deg, lon_deg):
    """At either height bound, on the poles and the equator, every
    satellite position fits the broadcast ephemeris field."""
    _, _, low, high = SCENARIO_KEYS["constellation"][0]["receiver"][0]["height_m"]
    for height in (low, high):
        site = {"lat_deg": lat_deg, "lon_deg": lon_deg, "height_m": height}
        sc = Scenario.from_dict(_with("constellation.receiver", site))
        generate_synthetic_constellation(sc.seed, 4, 1, sc.gst0, sc.site)


# (key, bound, sats, seed): each bound on the default constellation, and
# the clock offset's bounds on 4 to 8 satellites over seeds 2, 5 and 18.
# Forged with the whole offset in the ranges, 10 of those 24 cases miss
# the target by more than 1 mm or do not converge: an hour's range of
# about 1e12 m has a float spacing of about 1e-4 m, which a 4 to 6
# satellite geometry amplifies.
TSF_BOUND_CASES = [
    *(pytest.param(key, end, 8, 7, id=f"{key}-{end}")
      for key in ("clock_offset_s", "height_m") for end in (0, 1)),
    *(pytest.param("clock_offset_s", end, sats, seed,
                   id=f"clock_offset_s-{end}-{sats}sats-seed{seed}")
      for sats in (4, 5, 6, 8) for seed in (2, 5, 18) for end in (0, 1)),
]


@pytest.mark.parametrize("key,end,sats,seed", TSF_BOUND_CASES)
def test_tsf_bounds_keep_every_auth_fix_on_target(key, end, sats, seed):
    """At either bound of the clock offset and the target height, every
    authenticated fix lands within 1 mm of the target and reports the
    forged clock offset."""
    keys = ATTACKS["tsf"][0]
    bound = (keys[key] if key == "clock_offset_s"
             else keys["target"][0][key])[2 + end]
    target = {"lat_deg": 4.0, "lon_deg": 50.0, "height_m": 100.0}
    attack = {"type": "tsf", "target": target, "clock_offset_s": 0.0}
    (attack if key == "clock_offset_s" else target)[key] = bound
    report = run_scenario(_scenario(attack, sats=sats, seed=seed))
    want = osnmasim.positioning.geodetic_to_ecef(*target.values())
    assert len(report["auth_fixes"]) >= 8
    for fix in report["auth_fixes"].values():
        assert math.dist(fix["ecef_m"], want) < 1e-3, fix
        assert fix["clock_offset_s"] == pytest.approx(
            attack["clock_offset_s"], abs=1e-9)


# Two 4-satellite forgeries, pinned by name.  Seed 13 at a 10 s offset
# gave "no convergence in 50 iterations" for all 8 auth fixes while its
# forged ranges carried the whole offset.  Seed 59's 8 fixes landed
# 3,184,003 m from the target, on the other zero-residual root of the range
# equations, at a height of -1,493,868 m, while the solve started at the
# Earth's centre alone.
FEW_SATELLITE_CASES = [
    pytest.param(13, {"type": "tsf", "clock_offset_s": 10},
                 id="seed13_clock_offset_10s"),
    pytest.param(59, {"type": "tsf", "target": {"lat_deg": 53.5,
                                                "lon_deg": 113.9,
                                                "height_m": 100}},
                 id="seed59_target_53.5N_113.9E"),
]


@pytest.mark.parametrize("seed,attack", FEW_SATELLITE_CASES)
def test_four_satellite_tsf_lands_every_auth_fix_on_target(seed, attack):
    """With 4 satellites, every authenticated fix of the forgery lands
    within 1 mm of the target and reports the forged clock offset."""
    target = {"lat_deg": 4.0, "lon_deg": 50.0, "height_m": 100.0,
              **attack.get("target", {})}
    report = run_scenario(_scenario(attack, sats=4, seed=seed))
    want = osnmasim.positioning.geodetic_to_ecef(*target.values())
    assert len(report["auth_fixes"]) >= 8
    for fix in report["auth_fixes"].values():
        assert "error" not in fix, fix
        assert math.dist(fix["ecef_m"], want) < 1e-3, fix
        assert fix["clock_offset_s"] == pytest.approx(
            attack.get("clock_offset_s", 0.0), abs=1e-9)


def test_four_satellite_baseline_lands_every_auth_fix_on_the_site():
    """Seed 3207's 4-satellite baseline: every authenticated fix lies within
    1 mm of the site.  Solved from the Earth's centre alone, its one fix
    landed 6,258 km away, at a height of -3,775,477 m."""
    sc = Scenario.from_dict({
        "seed": 3207, "constellation": {"sats": 4, "subframes": 7, "wn": 0,
                                        "tow": 30},
        "duration_rounds": 7})
    report = run_scenario(sc)
    site = osnmasim.positioning.geodetic_to_ecef(*sc.site)
    assert report["auth_fixes"]
    for fix in report["auth_fixes"].values():
        assert "error" not in fix, fix
        assert math.dist(fix["ecef_m"], site) < 1e-3, fix


def test_non_finite_json_number_names_its_path(tmp_path):
    """Python's json reads NaN and Infinity; a scenario file rejects them."""
    path = tmp_path / "inf.json"
    path.write_text('{"attack": {"type": "tsf", "clock_bias_m": Infinity}}')
    with pytest.raises(SchemaError, match=r"inf\.json: \$\.attack\."
                       r"clock_bias_m: inf is not a finite number$"):
        Scenario.load(path)


@pytest.mark.parametrize("path,value,where", BAD_CONFIGS,
                         ids=[f"{p}={v!r}" for p, v, _ in BAD_CONFIGS])
def test_bad_config_names_json_path(monkeypatch, path, value, where):
    def no_build(*args, **kwargs):
        raise AssertionError("a constellation was built for a bad config")

    monkeypatch.setattr(osnmasim.scenario, "generate_synthetic_constellation",
                        no_build)
    with pytest.raises(SchemaError) as info:
        Scenario.from_dict(_with(path, value))
    assert str(info.value).startswith(where + ":"), str(info.value)


@pytest.mark.parametrize("text", ["2_9.5", "29.", ".5", "29 .5", "\t29.5"])
def test_seconds_string_must_be_an_ascii_decimal(text):
    with pytest.raises(SchemaError) as info:
        _scenario({"type": "tsr_realtime", "delay_s": text})
    assert str(info.value) == \
        f"$.attack.delay_s: {text!r} is not a number of seconds"


@pytest.mark.parametrize("text,ms", [("29.5", 29500), (" 29.500 ", 29500),
                                     ("-0.771", -771), ("30", 30000)])
def test_seconds_strings_read_to_ms(text, ms):
    sc = Scenario.from_dict({"receiver": {"lrt_offset_s": text}})
    assert sc.lrt.offset_ms == ms


def test_load_error_names_file_and_json_path(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(_with("attack.delay", "30.5")))
    with pytest.raises(SchemaError, match=r"typo\.json: \$\.attack\.delay"):
        Scenario.load(path)


@pytest.mark.parametrize("text,key", [
    ('{"seed": 1, "seed": 7}', "seed"),
    ('{"attack": {"type": "none", "type": "tsr_realtime"}}', "type"),
])
def test_load_rejects_a_repeated_key(tmp_path, text, key):
    """A key given twice is rejected by name, at any depth, not read as its
    last value."""
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(SchemaError,
                       match=rf"twice\.json: repeated key '{key}'$"):
        Scenario.load(path)


def test_defaults_fill_unset_keys():
    sc = Scenario.from_dict({})
    assert (sc.name, sc.seed, sc.n_sats, sc.n_subframes) == ("unnamed", 0, 8, 14)
    assert sc.duration_rounds == 14
    assert sc.attack == {"type": "none"}
    assert sc.policy.t_l_ms == 30000
    assert (sc.lrt.offset_ms, sc.lrt.error_bound_ms) == (0, 0)


def test_tsf_mitm_delay_defaults_to_staleness():
    tsf = {"type": "tsf", "staleness_s": 90}
    implicit = run_scenario(_scenario(tsf, sats=4, subframes=6))
    explicit = run_scenario(_scenario({**tsf, "mitm_delay_s": 90},
                                      sats=4, subframes=6))
    without = run_scenario(_scenario({**tsf, "mitm_delay_s": 0},
                                     sats=4, subframes=6))
    assert implicit["receiver"] == explicit["receiver"]
    assert implicit["receiver"]["status"] != "ts_failed"
    assert without["receiver"]["status"] == "ts_failed"
    assert implicit["scenario"]["attack"] == tsf      # the block as written


def _readme_scenario_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]


def test_readme_scenario_blocks_load():
    """Every JSON block in README's scenario section passes the schema; a
    block with a ``type`` is an attack block."""
    decoder = json.JSONDecoder()
    blocks = re.findall(r"```json\n(.*?)```", _readme_scenario_section(),
                        re.S)
    loaded = 0
    for block in blocks:
        pos = 0
        while block[pos:].strip():
            pos += len(block[pos:]) - len(block[pos:].lstrip())
            obj, pos = decoder.raw_decode(block, pos)
            Scenario.from_dict({"attack": obj} if "type" in obj else obj)
            loaded += 1
    assert loaded >= 1 + len(ATTACKS)


def _declared_keys(keys: dict):
    for key, (kind, *_) in keys.items():
        yield key
        if isinstance(kind, dict):
            yield from _declared_keys(kind)


def test_readme_lists_every_scenario_key():
    section = _readme_scenario_section()
    tables = [SCENARIO_KEYS] + [keys for keys, _ in POLICIES.values()] \
        + [keys for keys, _ in ATTACKS.values()]
    names = {k for table in tables for k in _declared_keys(table)}
    names |= set(POLICIES) | set(ATTACKS)
    missing = sorted(n for n in names if f"`{n}`" not in section)
    assert not missing


def _bounded_keys(keys: dict, block: str, row=None):
    """(README block, row key, key, low, high) for each bounded key; a key
    nested below a block's key is listed in that key's row."""
    for key, (kind, _, *bounds) in keys.items():
        if isinstance(kind, dict):
            yield from _bounded_keys(kind, *(
                (key, None) if block == "top level" else (block, row or key)))
        elif bounds:
            yield (block, row or key, key, *bounds)


def test_readme_states_every_declared_bound():
    """Each bound in a key table appears in its key's README table row:
    ``low..high`` or ``>= low``, after the key's name when the row is its
    parent's.  Seconds bounds are in ms, which reads the same at 0."""
    rows, block = {}, None
    for line in _readme_scenario_section().splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 4:
            block = cells[0] or block
            rows[(block, cells[1])] = line
    tables = [(SCENARIO_KEYS, "top level")] \
        + [(keys, name) for name, (keys, _) in POLICIES.items()] \
        + [(keys, name) for name, (keys, _) in ATTACKS.items()]
    bounded = [b for keys, name in tables for b in _bounded_keys(keys, name)]
    assert len(bounded) >= 20
    for block, row, key, low, high in bounded:
        text = f"{low}..{high}" if high is not None else f">= {low}"
        if row != key:
            text = f"`{key}` ({text})"
        assert text in rows[(block, row)], (block, key, text)


def test_diff_reports_flags_paths():
    a = run_scenario(_scenario({"type": "none"}))
    b = run_scenario(_scenario({"type": "tsr_realtime", "delay_s": "29.5"}))
    assert diff_reports(a, a) == []
    diffs = diff_reports(a, b)
    assert any("delta" in d or "scenario" in d for d in diffs)


@pytest.mark.parametrize("a, b", [
    (1, 1.0), (1, True), (1.0, True), (0, False), (-0.0, 0.0), (0, 0.0)])
def test_diff_reports_flags_scalar_type_and_sign(a, b):
    assert diff_reports({"x": a}, {"x": b}) == ["x"]
    assert diff_reports({"x": b}, {"x": a}) == ["x"]
    assert diff_reports([a], [a]) == []


SHIPPED = {
    "baseline.json": ("authenticating", 0, {"authentic"}),
    "tsr_realtime_29_5.json": ("authenticating", 0, {"authentic"}),
    "tsr_realtime_30_5.json": ("ts_failed", 0, set()),
    "tsr_recorded_32_no_mitm.json": ("ts_failed", 0, set()),
    "tsr_recorded_32_mitm.json": ("authenticating", 0, {"authentic"}),
    "tsf_full.json": ("authenticating", 0, {"authentic"}),
    "tsf_nav_only.json": ("authenticating", 2,
                          {"tag_mismatch"}),
    "cr_delay_1_4.json": ("authenticating", 0,
                          {"authentic", "discarded_incomplete"}),
    "cr_delay_1_5.json": ("spoof_detected", 2,
                          {"authentic", "discarded_incomplete",
                           "key_rejected"}),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenarios(name):
    """Each in-scope experiment ships as one runnable scenario file."""
    status, exit_code, outcomes = SHIPPED[name]
    report = run_scenario(Scenario.load(SCENARIO_DIR / name))
    assert report["receiver"]["status"] == status
    assert report["exit_code"] == exit_code
    assert set(_outcomes(report)) == outcomes


# sha256 of `osnmasim run scenarios/*.json` reports; the same values are
# pinned in perfbench/workloads.py, which a test below checks
REPORT_DIGESTS = {
    "baseline": "ff4ee49091737ff927cf0c5391cc14df0987f3fd678aa89fe727dc01c09ea819",
    "cr_delay_1_4": "d517cfe9688b85bede4135c1831bdb29d1fa4cb73a8bc4c38ff8a4d7969ae789",
    "cr_delay_1_5": "0f53a5e6046f568f115077e8c253424c684aa3c40729cc652e7250cdea9cca1f",
    "tsf_full": "342f9e5bd329f352fcd5fda4182e8db2de5325a0a65214e2e83080993ec3bcc3",
    "tsf_nav_only": "194f7d62d8a6e3c27686928cc2228ce3048dbb33920f0d24e6a3b6b667c435c4",
    "tsr_realtime_29_5": "cd732cce5377140dff05eaafc97bd81419501d6415afb6778d2814b88f24d793",
    "tsr_realtime_30_5": "92cba294ac708a1a24ca895372bc17cba8162ff5e6068ecdffda445589b7e8c8",
    "tsr_recorded_32_mitm": "c13dab28633c4e575af3904127eb3754f6ce47de7ae436999ab60d49838c6a91",
    "tsr_recorded_32_no_mitm": "559f7f863eacbb2be9704e2af2504d884db4086319ea5d4e94d6f68315b8563e",
}


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded read-only."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def test_report_digests_match_the_benchmark_pins(monkeypatch):
    """The nine paper entries of the benchmark's digest table are these."""
    workloads = _benchmark_workloads(monkeypatch)
    assert set(workloads.PAPER_SCENARIOS) == set(REPORT_DIGESTS)
    assert {stem: workloads.DIGESTS[stem]
            for stem in workloads.PAPER_SCENARIOS} == REPORT_DIGESTS


@pytest.mark.parametrize("name", ["long_clean", "long_forgery"])
def test_long_workload_reports_pass_the_benchmark_check(monkeypatch, tmp_path,
                                                        name):
    """The benchmark's long runs, in process at its default seed: each
    report passes the benchmark's check, pinned digest included."""
    workloads = _benchmark_workloads(monkeypatch)
    (path,) = workloads.WORKLOADS[name].write_scenarios(
        SCENARIO_DIR, workloads.DEFAULT_SEED, tmp_path)
    text = report_to_json(run_scenario(Scenario.load(path))).encode()
    assert workloads.check_report(name, text, workloads.DEFAULT_SEED) is None


def test_benchmark_probe_imports_resolve():
    """Every name perfbench/probes.py imports from osnmasim exists."""
    tree = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "osnmasim"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_shipped_reports_are_byte_identical():
    """Every shipped scenario's report keeps its pinned bytes."""
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert {p.stem for p in paths} == set(REPORT_DIGESTS)
    for path in paths:
        text = report_to_json(run_scenario(Scenario.load(path)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_DIGESTS[path.stem], path.name


def test_each_distinct_fix_is_solved_once(monkeypatch):
    """Equal solver inputs are solved once per run: each shipped scenario
    solves each of its distinct inputs once, 16 over the nine, and the
    static sky of baseline gives every fix the same inputs."""
    calls = {}
    solve = osnmasim.scenario.solve_position

    def counting(sats, rhos):
        calls.setdefault(stem, []).append((tuple(sats), tuple(rhos)))
        return solve(sats, rhos)

    monkeypatch.setattr(osnmasim.scenario, "solve_position", counting)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        stem = path.stem
        text = report_to_json(run_scenario(Scenario.load(path)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_DIGESTS[stem], stem
    assert all(len(set(inputs)) == len(inputs) for inputs in calls.values())
    assert sum(map(len, calls.values())) == 16
    assert len(calls["baseline"]) == 1


def _cr_scenario(onset_round, replay_delay_s):
    """The shipped 1.4-s concatenating replay, moved to another onset and
    delay."""
    cfg = json.loads((SCENARIO_DIR / "cr_delay_1_4.json").read_text())
    cfg["attack"].update(onset_round=onset_round,
                         replay_delay_s=replay_delay_s)
    return Scenario.from_dict(cfg)


@pytest.mark.parametrize("delay, status, authentic, fixes", [
    ("1.4", "authenticating", 72, 9),       # takeover at the first page's end
    ("1.5", "awaiting_root_key", 0, 0),     # 0.1 s later: a one-page shift
])
def test_cr_onset_zero_windows_sit_on_the_subframe_grid(delay, status,
                                                        authentic, fixes):
    """A takeover at onset 0 sends no page in slot 0, so round 0 is lost on
    every satellite, and the windows stay on the subframe grid: no GST-LRT
    delta."""
    report = run_scenario(_cr_scenario(0, delay))
    receiver = report["receiver"]
    outcomes = _outcomes(report)
    assert receiver["status"] == status
    assert outcomes.count("authentic") == authentic
    assert outcomes.count("discarded_incomplete") == 8
    assert len(outcomes) == authentic + 8
    assert len(report["auth_fixes"]) == fixes
    assert set(receiver["gst_lrt_delta_ms"]) == {0}


def _losing_a_page(path, prn, lost_round):
    """A shipped scenario in which one satellite's first page of one round
    is lost, so that round discards it while the others authenticate."""
    sc = Scenario.load(path)
    generator = sc.attack_events

    def losing(scenario, bundle):
        (t0, round_events), *rest = generator(scenario, bundle)

        def events(r):
            by_prn = round_events(r)
            if r == lost_round:
                by_prn[prn] = page_events(by_prn[prn])[1:]
            return by_prn

        return ((t0, events), *rest)

    return dataclasses.replace(sc, attack_events=losing)


def test_verdicts_name_the_data_subframe_two_rounds_back(monkeypatch):
    """Each PRN's window holds three consecutive complete rounds, so every
    verdict of round r but a discard names that PRN's complete subframe of
    round r - 2; and the authenticated fixes are keyed by exactly the GSTs
    with four or more authentic verdicts.  Checked over the shipped
    scenarios, concatenating replays at onsets 0, 2 and 8, and a baseline
    in which PRN 1 alone loses a page of round 10."""
    rounds = []
    ingest = osnmasim.receiver.Receiver.ingest_round

    def recording(self, events_by_prn):
        result = ingest(self, events_by_prn)
        rounds.append(result)
        return result

    monkeypatch.setattr(osnmasim.receiver.Receiver, "ingest_round", recording)
    runs = [(path.stem, partial(Scenario.load, path))
            for path in sorted(SCENARIO_DIR.glob("*.json"))]
    runs += [((onset, delay), partial(_cr_scenario, onset, delay))
             for onset in (0, 2, 8)
             for delay in ("0", "1.4", "1.5", *map(str, range(3, 46, 3)))]
    runs.append(("lost page", partial(_losing_a_page,
                                      SCENARIO_DIR / "baseline.json", 1, 10)))
    seen = set()
    for name, load in runs:
        rounds.clear()
        report = run_scenario(load())
        authentic = {}
        for r, result in enumerate(rounds):
            for v in result.verdicts:
                seen.add(v.outcome)
                if v.outcome is Outcome.DISCARDED_INCOMPLETE:
                    continue
                assert r >= 2, (name, r)
                data = rounds[r - 2]
                assert v.prn in data.navs and v.gst == data.gst, (name, r)
                if v.outcome is Outcome.AUTHENTIC:
                    key = str(v.gst.total_seconds())
                    authentic[key] = authentic.get(key, 0) + 1
        assert set(report["auth_fixes"]) == {
            key for key, count in authentic.items() if count >= 4}, name
    assert seen == set(Outcome)


def test_tag_mismatches_are_never_authenticated(monkeypatch):
    """On tsf_nav_only, whose forged nav data keeps the genuine tags, no
    round names nav data as authenticated for a PRN with a tag_mismatch
    verdict, and no authenticated fix is reported."""
    rounds = []
    ingest = osnmasim.receiver.Receiver.ingest_round

    def recording(self, events_by_prn):
        rounds.append(ingest(self, events_by_prn))
        return rounds[-1]

    monkeypatch.setattr(osnmasim.receiver.Receiver, "ingest_round", recording)
    report = run_scenario(Scenario.load(SCENARIO_DIR / "tsf_nav_only.json"))
    mismatched = [{v.prn for v in result.verdicts
                   if v.outcome is Outcome.TAG_MISMATCH} for result in rounds]
    assert any(mismatched) and report["auth_fixes"] == {}
    for prns, result in zip(mismatched, rounds):
        assert not prns & result.authenticated.keys()


def test_each_authenticated_fix_is_solved_from_its_data_round(monkeypatch):
    """With a receiver clock that drifts 3 cm a round, every round's inputs
    differ; on baseline, where all eight satellites authenticate, the fix
    keyed by GST g is the raw fix of the round that received GST g."""
    inputs = osnmasim.scenario._solver_inputs

    def drifting(gst, navs, obs):
        return tuple((sat, rho + 1e-3 * gst.tow)
                     for sat, rho in inputs(gst, navs, obs))

    monkeypatch.setattr(osnmasim.scenario, "_solver_inputs", drifting)
    sc = Scenario.load(SCENARIO_DIR / "baseline.json")
    report = run_scenario(sc)
    raw = report["raw_fixes"]
    assert len({json.dumps(fix) for fix in raw}) == len(raw)
    assert report["auth_fixes"]
    for gst_s, fix in report["auth_fixes"].items():
        assert fix == raw[(int(gst_s) - sc.gst0.total_seconds()) // 30]


def test_each_event_is_assembled_once_per_round(monkeypatch):
    """A round's events come split by PRN: the events handed to
    assemble_rounds for a round's PRNs add up to the round's event count."""
    rounds = []
    assemble = osnmasim.receiver.assemble_rounds
    ingest = osnmasim.receiver.Receiver.ingest_round

    def counting(events_by_prn, prns, *args):
        rounds[-1][1] += sum(len(events_by_prn.get(prn, ())) for prn in prns)
        return assemble(events_by_prn, prns, *args)

    def recording(self, events_by_prn):
        rounds.append([sum(map(len, events_by_prn.values())), 0])
        return ingest(self, events_by_prn)

    monkeypatch.setattr(osnmasim.receiver, "assemble_rounds", counting)
    monkeypatch.setattr(osnmasim.receiver.Receiver, "ingest_round", recording)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        text = report_to_json(run_scenario(Scenario.load(path)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_DIGESTS[path.stem], path.stem
    assert rounds and all(handed == count for count, handed in rounds)


def test_each_subframe_is_concatenated_once(monkeypatch):
    """A subframe's nav data and OSNMA blobs are read once however many
    read them (the observations, the receiver's tag and key checks, each
    fix): on a run of long_clean's size, reception checks each round's
    pages, 120 of them, in one kernel call and unpacks that same buffer,
    the one bytes object, in one call; the observations unpack each
    satellite's bundle stream in one call and forge its ranges in one, and
    each distinct fix is solved and put in report form once.  No Subframe
    is built: a round hands the receiver blobs alone."""
    unpacked, checked = [], []
    unpack, kernel = osnmasim.pages._unpack, osnmasim.pages._crc_columns

    def counting(joined):
        unpacked.append(joined)
        return unpack(joined)

    def checking(joined, lanes):
        checked.append(joined)
        return kernel(joined, lanes)

    def tallying(module, name, tally):
        fn = getattr(module, name)

        def counted(*args):
            tally.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    received, forges, solves, reports, built = [], [], [], [], []
    tallying(osnmasim.scenario, "forge_pseudoranges", forges)
    tallying(osnmasim.scenario, "solve_position", solves)
    tallying(osnmasim.positioning.Fix, "as_dict", reports)
    tallying(osnmasim.pages.Subframe, "__post_init__", built)
    assemble = osnmasim.receiver.assemble_rounds

    def recording(events_by_prn, prns, *args):
        blobs = assemble(events_by_prn, prns, *args)
        received.append((list(prns), list(blobs)))
        return blobs

    monkeypatch.setattr(osnmasim.pages, "_unpack", counting)
    monkeypatch.setattr(osnmasim.pages, "_crc_columns", checking)
    monkeypatch.setattr(osnmasim.receiver, "assemble_rounds", recording)
    osnmasim.scenario._constellation.cache_clear()
    sc = _scenario({"type": "none"}, subframes=128)
    report = run_scenario(sc)
    assert report["receiver"]["status"] == "authenticating"
    assert received == [([*range(1, 9)], [*range(1, 9)])] * 128
    assert built == []
    # generation seals and the observations unpack 128 subframes a
    # satellite; each round checks and unpacks 8
    for buffers in (unpacked, checked):
        assert [len(b) // SUBFRAME_BYTES for b in buffers] == \
            [128] * 8 + [8] * 128
    assert all(u is c for u, c in zip(unpacked[8:], checked[8:]))
    assert [len(sats) for _, _, sats in forges] == [128] * 8
    assert 0 < len(solves) == len(reports) < 8


def _bundle_of(sc):
    return osnmasim.scenario._constellation(
        sc.seed, sc.n_sats, sc.n_subframes, sc.gst0, sc.site, sc.seg_count)


def test_shipped_scenarios_leave_the_bundle_subframes_bare():
    """The bundle is read-only: after the nine shipped scenarios (replays,
    forgeries and splices of its streams) in one process, each bundle
    stream holds only its GST, PRN and bytes, those of a fresh build."""
    osnmasim.scenario._constellation.cache_clear()
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    for path in paths:
        run_scenario(Scenario.load(path))
    sc = Scenario.load(paths[-1])
    streams = _bundle_of(sc).streams
    fresh = generate_synthetic_constellation(
        sc.seed, sc.n_sats, sc.n_subframes, sc.gst0, sc.site, sc.seg_count)
    assert streams == fresh.streams
    for stream in streams.values():
        assert set(vars(stream)) == {"gst", "prn", "pages"}
        assert len(stream) == sc.n_subframes


def _reachable(root) -> list:
    """Every object reachable from root by reference, not followed into
    classes, modules or functions."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_a_bundle_holds_each_satellite_stream_as_one_buffer():
    """An 8x128 bundle, its observations read, holds each satellite's
    sealed pages in one bytes object, 450 bytes a subframe: no per-page
    bytes and no Subframe are kept anywhere in it."""
    osnmasim.scenario._constellation.cache_clear()
    sc = _scenario({"type": "none"}, subframes=128)
    run_scenario(sc)
    bundle = _bundle_of(sc)
    assert [len(stream.pages) for stream in bundle.streams.values()] == \
        [128 * SUBFRAME_BYTES] * 8
    held = _reachable(bundle)
    assert all(type(stream.pages) is bytes
               and any(obj is stream.pages for obj in held)
               for stream in bundle.streams.values())
    assert not any(isinstance(obj, osnmasim.pages.Subframe) for obj in held)
    assert not any(isinstance(obj, bytes)
                   and len(obj) == osnmasim.pages.PAGE_BYTES for obj in held)


def _recording_receivers(monkeypatch) -> list:
    """The receiver of each Receiver.ingest_round call, in call order."""
    receivers = []
    ingest = osnmasim.receiver.Receiver.ingest_round

    def recording(self, events_by_prn):
        receivers.append(self)
        return ingest(self, events_by_prn)

    monkeypatch.setattr(osnmasim.receiver.Receiver, "ingest_round", recording)
    return receivers


def test_simulate_is_lazy(monkeypatch):
    """Taking the first record of an 8x128 baseline ingests one round, and
    a run yields one record per round of its duration_rounds."""
    receivers = _recording_receivers(monkeypatch)
    records = simulate(_scenario({"type": "none"}, subframes=128))
    next(records)
    assert len(receivers) == 1
    records.close()
    receivers.clear()
    sc = _scenario({"type": "none"}, subframes=14, duration_rounds=9)
    assert sum(1 for _ in simulate(sc)) == len(receivers) == 9


def test_receiver_state_does_not_grow_with_rounds(monkeypatch):
    """On an 8x128 baseline, every sized attribute of the receiver has the
    same length after round 16 as after round 128: what the report lists
    round by round leaves in the round records."""
    receivers = _recording_receivers(monkeypatch)
    sizes = {}
    for r, _ in enumerate(simulate(_scenario({"type": "none"},
                                             subframes=128)), 1):
        if r in (16, 128):
            sizes[r] = {name: len(value)
                        for name, value in vars(receivers[-1]).items()
                        if hasattr(value, "__len__")}
    assert sizes[16]["pending"] == 8
    assert sizes[16] == sizes[128]


def _traced_peak(subframes: int) -> int:
    """Traced peak bytes of an 8-satellite baseline run over an emptied
    constellation memo, its report written to a file as the CLI writes it."""
    osnmasim.scenario._constellation.cache_clear()
    sc = _scenario({"type": "none"}, subframes=subframes)
    tracemalloc.start()
    try:
        report = run_scenario(sc)
        with open(os.devnull, "w") as fh:
            write_report(report, fh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_per_subframe_is_bounded():
    """Page events are made one round at a time, so a longer run holds
    more of only what grows with it: sealed pages, verdicts and the
    report.  From 8x32 to 8x128 the traced peak grows by at most
    1.8 KB per added subframe (whole-run event lists took about 6.5 KB,
    and 15 page objects and a Subframe per generated subframe about
    2.2 KB).
    An untraced warm-up run first loads what any run loads once (numpy is
    imported at the first solve), whichever tests ran before."""
    run_scenario(_scenario({"type": "none"}, subframes=4))
    growth = (_traced_peak(128) - _traced_peak(32)) / (8 * 96)
    assert growth <= 1800, growth


def test_pages_are_sealed_a_satellite_and_checked_a_round_at_a_time(
        monkeypatch):
    """On an 8x128 baseline, generation seals each satellite's pages, its
    whole stream, in exactly one kernel call, and the receiver checks each
    round's pages, all satellites together, in exactly one; no page takes
    the one-page path (decode_page, reseal_raw)."""
    calls = []
    kernel = osnmasim.pages._crc_columns

    def counting(joined, lanes):
        calls.append(len(joined) // osnmasim.pages.PAGE_BYTES)
        return kernel(joined, lanes)

    def one_page(*args):
        raise AssertionError("a lone page went through the kernel")

    monkeypatch.setattr(osnmasim.pages, "_crc_columns", counting)
    for name in ("decode_page", "reseal_raw"):
        monkeypatch.setattr(osnmasim.pages, name, one_page)
    osnmasim.scenario._constellation.cache_clear()
    sc = _scenario({"type": "none"}, subframes=128)
    osnmasim.scenario._constellation(sc.seed, sc.n_sats, sc.n_subframes,
                                     sc.gst0, sc.site, sc.seg_count)
    assert calls == [128 * 15] * 8
    calls.clear()
    report = run_scenario(sc)
    assert report["receiver"]["rounds"] == 128
    assert calls == [8 * 15] * 128


def test_forgery_encodes_only_the_forged_stream(monkeypatch):
    """A tsf run never replays the authentic stream: its one replay is of
    the forged streams."""
    replayed = []
    replay = osnmasim.attacks.replay_realtime

    def recording(streams, delay_ms):
        replayed.append(streams)
        return replay(streams, delay_ms)

    monkeypatch.setattr(osnmasim.attacks, "replay_realtime", recording)
    osnmasim.scenario._constellation.cache_clear()
    sc = _scenario({"type": "tsf"}, sats=4, subframes=10)
    report = run_scenario(sc)
    assert report["auth_fixes"]
    bundle = osnmasim.scenario._constellation(sc.seed, sc.n_sats,
                                              sc.n_subframes, sc.gst0,
                                              sc.site, sc.seg_count)
    assert len(replayed) == 1 and len(replayed[0]) == 4
    assert all(replayed[0][prn].pages[:SUBFRAME_BYTES]
               != stream.pages[:SUBFRAME_BYTES]
               for prn, stream in bundle.streams.items())


def test_shared_constellation_does_not_leak_between_scenarios(tmp_path):
    """Reports are the same whatever ran before in the process: the nine
    shipped scenarios in reverse order, with another seed in between, run
    over an emptied constellation memo and again over the one that run
    left."""
    odd = json.loads((SCENARIO_DIR / "tsf_full.json").read_text())
    odd["seed"] = 4242
    odd_path = tmp_path / "odd.json"
    odd_path.write_text(json.dumps(odd))
    paths = sorted(SCENARIO_DIR.glob("*.json"), reverse=True)
    paths.insert(4, odd_path)
    for warm in (False, True):
        if not warm:
            osnmasim.scenario._constellation.cache_clear()
        reports = {p.stem: run_scenario(Scenario.load(p)) for p in paths}
        for stem, digest in REPORT_DIGESTS.items():
            text = report_to_json(reports[stem])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, \
                (stem, warm)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run(
        [sys.executable, "-m", "osnmasim.cli", "run", str(odd_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert report_to_json(reports["odd"]) == fresh


def test_consecutive_equal_constellations_build_once(monkeypatch):
    builds = []
    build = osnmasim.scenario.generate_synthetic_constellation

    def counting(*inputs):
        builds.append(inputs[0])
        return build(*inputs)

    monkeypatch.setattr(osnmasim.scenario, "generate_synthetic_constellation",
                        counting)
    osnmasim.scenario._constellation.cache_clear()
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        run_scenario(Scenario.load(path))
    assert builds == [20230816]

    builds.clear()
    a = _scenario({"type": "none"}, sats=4, subframes=6)
    b = dataclasses.replace(a, seed=8)
    for sc in (a, b, a):
        run_scenario(sc)
    assert builds == [7, 8, 7]


def test_bundle_is_read_only(small_bundle):
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_bundle.gst0 = small_bundle.gst0
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_bundle.streams[1].pages = small_bundle.streams[2].pages
    with pytest.raises(TypeError):
        small_bundle.streams[1] = small_bundle.streams[2]
    with pytest.raises(TypeError):
        small_bundle.observations[next(iter(small_bundle.observations))] = 0.0
