"""Whole scenarios drawn from the declared key tables.

The strategy reads SCENARIO_KEYS, POLICIES and ATTACKS alone: each key is
left out, for its default, or drawn from its declared kind and range, so a
new attack or key is drawn with no edit here.  Numbers fall inside their
(low, high), seconds are ASCII strings of whole milliseconds, a nested
table is a fixed dictionary, and sizes and open ranges are capped for
speed.  The cross-field rules Scenario.from_dict enforces are drawn so that
they hold, not filtered: a tsf forgery's subframe minimum, a root slot
before the first subframe, a last subframe within the last week number,
duration_rounds within the constellation and onset_round before
duration_rounds.  Tier-1 draws 40 scenarios; `--hypothesis-profile=long`
draws the long profile's count.
"""

import math

from hypothesis import given, settings, strategies as st

from osnmasim.attacks import TSF_MIN_SUBFRAMES
from osnmasim.gst import SECONDS_PER_WEEK, SUBFRAME_SECONDS
from osnmasim.navdata import WN_BITS
from osnmasim.positioning import geodetic_to_ecef
from osnmasim.scenario import (
    ATTACKS,
    NUMBER,
    POLICIES,
    SCENARIO_KEYS,
    SECONDS,
    Scenario,
    run_scenario,
)
from report_text import report_to_json

MAX_SATS, MAX_SUBFRAMES = 8, 14
OPEN_INT, OPEN_MS = 8, 120_000      # the width drawn above an open low bound
GENUINE = {"none", "tsr_realtime", "tsr_recorded", "cr"}
FAILURES = {"key_rejected", "tag_mismatch"}

_LONG = settings.get_profile("long")
EXAMPLES = _LONG.max_examples \
    if settings().max_examples == _LONG.max_examples else 40


def _seconds_text(ms: int) -> str:
    sign = "-" if ms < 0 else ""
    return f"{sign}{abs(ms) // 1000}.{abs(ms) % 1000:03d}"


def _value(kind, bounds):
    """A strategy for one declared value of kind within its bounds."""
    low, high = bounds or (None, None)
    if isinstance(kind, dict):
        return _table(kind)
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.text(max_size=8)
    if kind is int:
        if low is None:
            return st.integers()
        return st.integers(low, low + OPEN_INT if high is None else high)
    if kind is NUMBER:
        return st.floats(low, high, allow_nan=False, allow_infinity=False)
    if kind is SECONDS:
        low_ms = -OPEN_MS if low is None else low * 1000
        high_ms = low_ms + OPEN_MS if high is None else high * 1000
        return st.integers(low_ms, high_ms).map(_seconds_text)
    raise TypeError(f"no strategy for kind {kind!r}")


def _table(keys: dict, fixed=None):
    """A JSON object of a key table: the keys of fixed drawn from its
    strategies, every other key left out or drawn as declared."""
    fixed = fixed or {}
    return st.fixed_dictionaries(fixed, optional={
        key: _value(kind, bounds)
        for key, (kind, _, *bounds) in keys.items() if key not in fixed})


def _typed(table: dict, kind: str, fixed: dict):
    """A typed block of type kind; fixed keys the block lacks are dropped."""
    keys = table[kind][0]
    return _table(keys, {"type": st.just(kind),
                         **{k: v for k, v in fixed.items() if k in keys}})


@st.composite
def scenario_dicts(draw):
    attack = draw(st.sampled_from(list(ATTACKS)))
    subframes = draw(st.integers(
        TSF_MIN_SUBFRAMES if attack == "tsf" else 1, MAX_SUBFRAMES))
    # a full-length run half the time: root acquisition alone takes the
    # DSM cycle's 7 rounds
    rounds = draw(st.one_of(st.just(subframes), st.integers(1, subframes)))
    last_wn = (1 << WN_BITS) - 1
    wn = draw(st.integers(0, last_wn))
    # the root slot needs 30 s before the first subframe, and the last
    # subframe may start no later than the last week's end
    tow = draw(st.integers(
        SUBFRAME_SECONDS if wn == 0 else 0,
        SECONDS_PER_WEEK - 1 - (SUBFRAME_SECONDS * (subframes - 1)
                                if wn == last_wn else 0)))
    con, rcv = SCENARIO_KEYS["constellation"][0], SCENARIO_KEYS["receiver"][0]
    return draw(_table(SCENARIO_KEYS, {
        "constellation": _table(con, {
            "sats": st.integers(con["sats"][2], MAX_SATS),
            "subframes": st.just(subframes), "wn": st.just(wn),
            "tow": st.just(tow)}),
        "receiver": _table(rcv, {"policy": st.sampled_from(list(POLICIES))
                                 .flatmap(lambda p: _typed(POLICIES, p, {}))}),
        "attack": _typed(ATTACKS, attack,
                         {"onset_round": st.integers(0, rounds - 1)}),
        "duration_rounds": st.just(rounds)}))


@settings(max_examples=EXAMPLES, deadline=None)
@given(scenario_dicts())
def test_drawn_scenarios_run_deterministically_and_genuine_fixes_hold(cfg):
    """Every draw loads and runs twice to the same bytes; the exit code is 2
    exactly when a verdict failed; every auth fix of an attack that
    delivers genuine data lies within 1 mm of the site; and every auth fix
    of a tsf forgery lies within 1 mm of its target and reports its clock
    offset."""
    sc = Scenario.from_dict(cfg)
    report = run_scenario(sc)
    assert report_to_json(run_scenario(sc)) == report_to_json(report)
    outcomes = {v["outcome"] for v in report["receiver"]["verdicts"]}
    assert (report["exit_code"] == 2) == bool(outcomes & FAILURES)
    assert report["exit_code"] in (0, 2)
    if sc.attack["type"] in GENUINE:
        site = geodetic_to_ecef(*sc.site)
        for fix in report["auth_fixes"].values():
            assert "error" not in fix, fix
            assert math.dist(fix["ecef_m"], site) < 1e-3, fix
    if sc.attack["type"] == "tsf":
        keys = ATTACKS["tsf"][0]
        target = geodetic_to_ecef(*{
            **{key: default for key, (_, default, *_) in
               keys["target"][0].items()},
            **sc.attack.get("target", {})}.values())
        offset = sc.attack.get("clock_offset_s", keys["clock_offset_s"][1])
        for fix in report["auth_fixes"].values():
            assert "error" not in fix, fix
            assert math.dist(fix["ecef_m"], target) < 1e-3, fix
            assert abs(fix["clock_offset_s"] - offset) < 1e-9, fix
