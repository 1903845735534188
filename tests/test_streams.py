"""Per-round attack streams against the whole-run reference.

Each attack generator gives its first window start and round r's page events
by PRN, at most one per leg, each a run of pages.  Cut into rounds, the
reference whole-run stream (every page of the run one event in one sorted
list, replayed or merged, then bucketed by window) must give the same
start and, round by round, the same pages per PRN in the same order.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

import stream_reference as ref
from osnmasim.gst import Gst, LrtSource
from osnmasim.pages import PAGE_BYTES, SLOTS_PER_SUBFRAME, Stream, Subframe
from osnmasim.scenario import ATTACKS, live_events
from page_reference import page_events

GST0 = Gst(1251, 277200)


def _subframes(sats: int, n_subframes: int) -> dict:
    """Consecutive subframes whose pages are told apart by their bytes."""
    return {prn: tuple(
        Subframe(GST0.add_seconds(30 * j), prn, tuple(
            bytes([prn, j, k]).ljust(PAGE_BYTES, b"\0")
            for k in range(SLOTS_PER_SUBFRAME)))
        for j in range(n_subframes)) for prn in range(1, sats + 1)}


def _stream(attack: str, values: dict, subframes: dict) -> tuple:
    streams = {prn: Stream.of(sfs) for prn, sfs in subframes.items()}
    bundle = SimpleNamespace(streams=streams, gst0=GST0, observations={})
    (t0, round_events), *_ = ATTACKS[attack][1](
        values, SimpleNamespace(lrt=LrtSource()), bundle)
    return t0, round_events


def _assert_rounds_match(stream, events, n_rounds, legs, t0=None):
    """Round by round, the stream's events by PRN, at most one a leg, are
    the reference's once split into pages."""
    t0, round_events = stream
    ref_t0, ref_rounds = ref.rounds(events, n_rounds, t0)
    assert t0 == ref_t0
    for r, expected in enumerate(ref_rounds):
        got = round_events(r)
        assert all(len(evs) <= legs for evs in got.values()), r
        assert {prn: page_events(evs) for prn, evs in got.items()} == \
            expected, r


runs = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.integers(1, 5), st.just(n), st.integers(1, n)))     # sats, subframes, rounds


@settings(max_examples=60, deadline=None)
@given(runs, st.integers(0, 70_000))
@example((2, 3, 3), 0)
@example((3, 4, 2), 29_500)
@example((3, 4, 4), 30_500)
def test_replays_match_the_whole_run_reference(run, delay_ms):
    sats, n_subframes, n_rounds = run
    sfs = _subframes(sats, n_subframes)
    live = ref.live_events(sfs)
    _assert_rounds_match(_stream("none", {}, sfs), live, n_rounds, 1)
    replayed = ref.replay_realtime(live, delay_ms)
    _assert_rounds_match(_stream("tsr_realtime", {"delay_s": delay_ms}, sfs),
                         replayed, n_rounds, 1)
    _assert_rounds_match(
        _stream("tsr_recorded", {"staleness_s": delay_ms, "mitm_delay_s": 0},
                sfs), replayed, n_rounds, 1)


@settings(max_examples=150, deadline=None)
@given(runs, st.data(), st.integers(0, 70_000), st.integers(0, 70_000))
@example((2, 10, 10), None, 1400, 600)      # takeover at the first page's end
@example((2, 10, 10), None, 1500, 600)      # 0.1 s later: a one-page shift
@example((2, 3, 3), None, 1400, 600)
@example((2, 3, 3), None, 0, 0)
def test_cr_matches_the_whole_run_reference(run, data, delay_ms, t_acq_ms):
    sats, n_subframes, n_rounds = run
    onset = 8 if data is None else data.draw(st.integers(0, n_rounds - 1))
    sfs = _subframes(sats, n_subframes)
    live = ref.live_events(sfs)
    merged = ref.cr_compose(live, delay_ms, t_acq_ms, onset)
    stream = _stream("cr", {"replay_delay_s": delay_ms, "t_acq_s": t_acq_ms,
                            "onset_round": onset}, sfs)
    # the windows sit on the subframe grid, though an onset-0 takeover may
    # send no page before a later slot
    _assert_rounds_match(stream, merged, n_rounds, 2, live[0].t_ms)


@given(runs)
def test_live_events_are_the_rounds_concatenated(run):
    sats, n_subframes, _ = run
    sfs = _subframes(sats, n_subframes)
    events = live_events(sfs)
    assert sorted(events, key=lambda e: (e.t_ms, e.prn)) == ref.live_events(sfs)
    assert [e.t_ms // 30_000 for e in events] == \
        sorted(e.t_ms // 30_000 for e in events)
