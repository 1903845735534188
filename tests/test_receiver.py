import pytest
from hypothesis import example, given, settings, strategies as st

from osnmasim.attacks import shifted_stream
from osnmasim.gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SymmetricBound,
)
from osnmasim.mack import pack_mack, unpack_mack
from osnmasim.navdata import subframe_nav_data
from osnmasim.pages import (
    PAGE_BITS,
    PAGE_MS,
    SLOTS_PER_SUBFRAME,
    SUBFRAME_MS,
    build_subframes,
    flip_page_bit,
    reseal_raw,
)
from osnmasim.receiver import Outcome, Receiver, ReceiverConfig, Status
from osnmasim.scenario import live_events
from osnmasim.tesla import DSM_BLOCKS
from stream_reference import by_prn

GST0 = Gst(1251, 277200)


def _receiver(bundle, policy=None, lrt=None, **cfg_kw):
    config = ReceiverConfig(policy=policy or AlternateThreshold(30000),
                            pubkey_pem=bundle.pubkey_pem, **cfg_kw)
    return Receiver(config, lrt or LrtSource())


def _drive(receiver, events, rounds, t0=None):
    t0 = min(e.t_ms for e in events) if t0 is None else t0
    receiver.power_on(GST0, true_ms=t0)
    results = []
    for r in range(rounds):
        w0 = t0 + r * SUBFRAME_MS
        window = [e for e in events if w0 <= e.t_ms < w0 + SUBFRAME_MS]
        results.append(receiver.ingest_round(by_prn(window), w0))
    return results


def _with_mack(sf, mack):
    """sf rebuilt with its nav data and HKROOT and the given MACK blob."""
    return build_subframes([(sf.gst, sf.prn, subframe_nav_data(sf),
                             sf.osnma[0], mack)])[0]


def _drop(events, prn, round_idx, slot):
    kill = GST0.total_millis() + round_idx * SUBFRAME_MS + slot * PAGE_MS
    return [e for e in events if not (e.prn == prn and e.t_ms == kill)]


def test_power_on_sub_second_delta_starts_osnma(small_bundle):
    rx = _receiver(small_bundle, lrt=LrtSource(offset_ms=771))
    assert rx.power_on(GST0, GST0.total_millis()) is Status.AWAITING_ROOT_KEY


def test_power_on_30_5_fails(small_bundle):
    rx = _receiver(small_bundle, lrt=LrtSource(offset_ms=30500))
    assert rx.power_on(GST0, GST0.total_millis()) is Status.TS_FAILED


def test_power_on_untrusted_bound_stays_cold(small_bundle):
    rx = _receiver(small_bundle, policy=SymmetricBound(15000),
                   lrt=LrtSource(error_bound_ms=20000))
    assert rx.power_on(GST0, GST0.total_millis()) is Status.COLD_START


def test_cold_start_trace(small_bundle):
    """Root key completes after one HKROOT block cycle, then the rolling
    window authenticates data two subframes behind the disclosed key."""
    rx = _receiver(small_bundle)
    events = live_events(small_bundle.vectors.subframes())
    results = _drive(rx, events, 12)

    acquisition_rounds = results[:DSM_BLOCKS - 1]
    assert all(not r.verdicts for r in acquisition_rounds)
    first = results[DSM_BLOCKS - 1]
    assert rx.status is Status.AUTHENTICATING
    assert {v.outcome for v in first.verdicts} == {Outcome.AUTHENTIC}
    # at the round of the first verdict, the data subframe sits two rounds
    # behind the key subframe
    expect_gst = GST0.add_seconds(30 * (DSM_BLOCKS - 3))
    assert {v.gst for v in first.verdicts} == {expect_gst}
    assert {v.prn for v in first.verdicts} == set(small_bundle.sat_states)
    # every later round emits one authentic verdict per satellite
    for r in results[DSM_BLOCKS:]:
        assert {v.outcome for v in r.verdicts} == {Outcome.AUTHENTIC}


def test_no_verdicts_before_osnma_start(small_bundle):
    rx = _receiver(small_bundle, lrt=LrtSource(offset_ms=31000))
    events = live_events(small_bundle.vectors.subframes())
    results = _drive(rx, events, 10)
    assert rx.status is Status.TS_FAILED
    assert all(not r.verdicts for r in results)
    # nav data still parsed for the position pipeline
    assert any(sf.complete for r in results for sf in r.subframes.values())


def test_fresh_report_is_empty(small_bundle):
    rx = _receiver(small_bundle)
    rep = rx.report()
    assert rep["verdicts"] == []
    assert rep["status"] == "cold_start"


def test_ts_failed_recorded_in_timeline(small_bundle):
    rx = _receiver(small_bundle, lrt=LrtSource(offset_ms=32000))
    rx.power_on(GST0, GST0.total_millis())
    rep = rx.report()
    assert rep["status"] == "ts_failed"
    assert rep["timeline"][-1]["status"] == "ts_failed"


def test_destroyed_round_suspends_then_recovers(small_bundle):
    """One destroyed page discards the round; three fresh complete
    subframes bring authentication back without a new root key."""
    events = _drop(live_events(small_bundle.vectors.subframes()),
                   prn=2, round_idx=8, slot=4)
    rx = _receiver(small_bundle)
    results = _drive(rx, events, 12)

    round8 = results[8]
    assert any(v.outcome is Outcome.DISCARDED_INCOMPLETE and v.prn == 2
               for v in round8.verdicts)
    assert rx.status is Status.AUTHENTICATING          # recovered by round 11
    statuses = [s.value for _, s in rx.timeline]
    assert "suspended" in statuses
    # resume verdict: three complete subframes after the gap authenticate
    # the first of them
    resume = [v for v in results[11].verdicts if v.prn == 2]
    assert [v.outcome for v in resume] == [Outcome.AUTHENTIC]
    assert resume[0].gst == GST0.add_seconds(30 * 9)


def test_silent_pending_satellite_gets_a_destroyed_round(small_bundle):
    """A satellite with buffered subframes that sends nothing in a round
    still gets that round: every slot destroyed, the window discarded."""
    events = [e for e in live_events(small_bundle.vectors.subframes())
              if not (e.prn == 2 and GST0.total_millis() + 8 * SUBFRAME_MS
                      <= e.t_ms < GST0.total_millis() + 9 * SUBFRAME_MS)]
    rx = _receiver(small_bundle)
    results = _drive(rx, events, 10)
    assert results[8].subframes[2].destroyed_slots == tuple(range(15))
    assert [v.outcome for v in results[8].verdicts if v.prn == 2] == \
        [Outcome.DISCARDED_INCOMPLETE]
    assert sorted(results[8].subframes) == sorted(results[7].subframes)
    assert results[9].subframes[2].complete


def test_tampered_tag_region_localizes_to_tag_mismatch(small_bundle):
    """Tags for subframe i live in subframe i+1: corrupting that region
    flags subframe i only."""
    sfs = {prn: list(lst) for prn, lst in small_bundle.vectors.subframes().items()}
    target_prn = 1
    sf5 = sfs[target_prn][5]
    _, mack = sf5.osnma
    tags, key = unpack_mack(mack, n_tags=6)
    tags[0] = bytes(5)
    sfs[target_prn][5] = _with_mack(sf5, pack_mack(tags, key))
    rx = _receiver(small_bundle)
    results = _drive(rx, live_events(sfs), 9)

    flagged = [v for r in results for v in r.verdicts
               if v.outcome is Outcome.TAG_MISMATCH]
    assert [(v.prn, v.gst) for v in flagged] == \
        [(target_prn, GST0.add_seconds(30 * 4))]
    # other satellites and other subframes of the same satellite are clean
    authentic = [v for r in results for v in r.verdicts
                 if v.outcome is Outcome.AUTHENTIC]
    assert {v.prn for v in authentic} == set(small_bundle.sat_states)


def test_tampered_key_bits_reject_key(small_bundle):
    """The key for subframe i is disclosed in subframe i+2: corrupting it
    yields a key rejection, never an authentic verdict."""
    sfs = {prn: list(lst) for prn, lst in small_bundle.vectors.subframes().items()}
    target_prn = 3
    sf6 = sfs[target_prn][6]
    _, mack = sf6.osnma
    tags, _ = unpack_mack(mack, n_tags=6)
    sfs[target_prn][6] = _with_mack(sf6, pack_mack(tags, bytes(16)))
    rx = _receiver(small_bundle, key_reject_threshold=10)
    results = _drive(rx, live_events(sfs), 9)

    rejected = [v for r in results for v in r.verdicts
                if v.outcome is Outcome.KEY_REJECTED]
    assert [(v.prn, v.gst) for v in rejected] == \
        [(target_prn, GST0.add_seconds(30 * 4))]
    assert not any(v.outcome is Outcome.AUTHENTIC and v.prn == target_prn
                   and v.gst == GST0.add_seconds(30 * 4)
                   for r in results for v in r.verdicts)


def test_key_reject_threshold_latches_spoof_detected(small_bundle):
    sfs = {prn: list(lst) for prn, lst in small_bundle.vectors.subframes().items()}
    sf6 = sfs[1][6]
    _, mack = sf6.osnma
    tags, _ = unpack_mack(mack, n_tags=6)
    sfs[1][6] = _with_mack(sf6, pack_mack(tags, bytes(16)))
    rx = _receiver(small_bundle)            # threshold 1
    _drive(rx, live_events(sfs), 9)
    assert rx.status is Status.SPOOF_DETECTED
    # once flagged, no further verdicts of any kind
    tail = [v for v in rx.verdicts
            if v.gst.total_seconds() > GST0.total_seconds() + 30 * 4]
    assert tail == []


def test_report_shape(small_bundle):
    rx = _receiver(small_bundle)
    _drive(rx, live_events(small_bundle.vectors.subframes()), 10)
    rep = rx.report()
    assert rep["rounds"] == 10
    assert len(rep["gst_lrt_delta_ms"]) == 10
    assert all(d == 0 for d in rep["gst_lrt_delta_ms"])
    assert all(set(v) == {"gst", "prn", "outcome"} for v in rep["verdicts"])


# (round, satellite, page, kind, bit, shift): rounds and satellites are
# taken modulo the bundle's, pages modulo the round's events
_MOVE = st.tuples(
    st.integers(0, 63), st.integers(0, 63),
    st.integers(0, SLOTS_PER_SUBFRAME - 1),
    st.sampled_from(("drop", "duplicate", "shift", "flip", "flip_reseal")),
    st.integers(0, PAGE_BITS - 1),
    st.sampled_from((1, -1, 999, -999, PAGE_MS, -PAGE_MS)))


def _moved(events, move):
    """One satellite's page events of a round with one move applied."""
    _, _, page, kind, bit, shift = move
    if not events:
        return events
    i = page % len(events)
    event = events[i]
    if kind == "drop":
        return events[:i] + events[i + 1:]
    if kind == "duplicate":
        return events + [event]
    if kind == "shift":
        event = event._replace(t_ms=event.t_ms + shift)
    else:
        raw = flip_page_bit(event.raw, bit)
        event = event._replace(
            raw=reseal_raw(raw) if kind == "flip_reseal" else raw)
    return events[:i] + [event] + events[i + 1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(_MOVE, max_size=12))
@example([])
def test_moved_pages_give_no_unsound_verdict(small_bundle, moves):
    """Pages dropped, duplicated, shifted by 1 ms, 999 ms or 2 s, or with a
    bit flipped, resealed or not, round by round: nothing escapes
    ingest_round, and every authentic verdict names a received subframe
    whose nav data is the one broadcast at its GST and PRN."""
    broadcast = small_bundle.subframes
    rounds = len(broadcast[1])
    t0, round_events = shifted_stream(broadcast)
    rx = _receiver(small_bundle)
    rx.power_on(GST0, true_ms=t0)
    received = {}
    for r in range(rounds):
        events = round_events(r)
        prns = sorted(events)
        for move in moves:
            if move[0] % rounds == r:
                prn = prns[move[1] % len(prns)]
                events[prn] = _moved(events[prn], move)
        result = rx.ingest_round(events, t0 + r * SUBFRAME_MS)
        received.update(((sf.gst, prn), sf)
                        for prn, sf in result.subframes.items())
    authentic = [v for v in rx.verdicts if v.outcome is Outcome.AUTHENTIC]
    for v in authentic:
        r = (v.gst.total_seconds() - GST0.total_seconds()) // 30
        assert received[(v.gst, v.prn)].nav_data == \
            broadcast[v.prn][r].nav_data
    if not moves:
        assert authentic and len(authentic) == len(rx.verdicts)
