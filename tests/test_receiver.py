import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from osnmasim.attacks import shifted_stream
from osnmasim.gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SUBFRAME_SECONDS,
    SymmetricBound,
    check_time_sync,
)
from osnmasim.mack import (
    DEFAULT_SEG_COUNT,
    disclosed_key,
    generate_subframe_tags,
    pack_mack,
    unpack_mack,
)
from osnmasim.navdata import (
    NAV_BITS,
    PAGE_DATA_BITS,
    NavFields,
    parse_nav_data,
    subframe_nav_data,
)
from osnmasim.pages import (
    MACK_BYTES,
    NAV_BYTES,
    PAGE_BITS,
    PAGE_BYTES,
    PAGE_MS,
    SLOTS_PER_SUBFRAME,
    SUBFRAME_MS,
    Stream,
    assemble_round,
    reseal_raw,
    seal_pages,
)
import osnmasim.receiver
from osnmasim import tesla
from osnmasim.receiver import Outcome, Receiver, Status
from osnmasim.scenario import (
    Scenario,
    generate_synthetic_constellation,
    live_events,
    run_scenario,
)
from osnmasim.tesla import (
    DSM_BLOCKS,
    DSM_BODY_BYTES,
    DSM_PAYLOAD_BYTES,
    NMA_HEADER,
    build_root_message,
    dsm_hkroot_blocks,
    generate_keypair,
    public_key_point,
    sign_root,
)
import receiver_reference
import stream_reference
from conftest import small_constellation
from page_reference import flip_page_bit, osnma, page_events

GST0 = Gst(1251, 277200)


def _receiver(bundle, true_ms, policy=None, lrt=None, pubkey=None,
              first_gst=GST0, **kw):
    """A receiver powered on at (first_gst, true_ms)."""
    return Receiver(policy or AlternateThreshold(30000), lrt or LrtSource(),
                    pubkey or bundle.pubkey, first_gst, true_ms, **kw)


def _drive(bundle, events, n_rounds, t0=None, **kw):
    """A receiver powered on at the first window of the events, and the
    results of its rounds."""
    t0, windows = stream_reference.rounds(events, n_rounds, t0)
    rx = _receiver(bundle, t0, **kw)
    return rx, [rx.ingest_round(window) for window in windows]


def _with_mack(sf, mack):
    """sf rebuilt with its nav data and HKROOT and the given MACK blob."""
    return Stream(sf.gst, sf.prn, seal_pages(
        [(subframe_nav_data(sf), osnma(sf)[0], mack)])).subframes()[0]


def _drop(events, prn, round_idx, slot):
    kill = GST0.total_millis() + round_idx * SUBFRAME_MS + slot * PAGE_MS
    return [e for e in events if not (e.prn == prn and e.t_ms == kill)]


def test_power_on_sub_second_delta_starts_osnma(small_bundle):
    rx = _receiver(small_bundle, GST0.total_millis(),
                   lrt=LrtSource(offset_ms=771))
    assert rx.status is Status.AWAITING_ROOT_KEY


def test_power_on_30_5_fails(small_bundle):
    rx = _receiver(small_bundle, GST0.total_millis(),
                   lrt=LrtSource(offset_ms=30500))
    assert rx.status is Status.TS_FAILED


def test_power_on_untrusted_bound_stays_cold(small_bundle):
    rx = _receiver(small_bundle, GST0.total_millis(),
                   policy=SymmetricBound(15000),
                   lrt=LrtSource(error_bound_ms=20000))
    assert rx.status is Status.COLD_START


@given(st.integers(-60000, 60000), st.integers(0, 30000))
def test_power_on_never_starts_when_check_fails(delta_ms, bound_ms):
    """With a trusted LRT, power-on starts OSNMA exactly when the TS check
    passes on its reading, and fails the TS gate otherwise."""
    small_bundle = small_constellation()
    gst = Gst(100, 3000)
    for policy in (AlternateThreshold(30000), SymmetricBound(max(bound_ms, 1))):
        rx = _receiver(small_bundle, gst.total_millis(), policy=policy,
                       lrt=LrtSource(offset_ms=delta_ms, error_bound_ms=0),
                       first_gst=gst)
        passed = check_time_sync(gst, gst.total_millis() + delta_ms, policy)
        assert rx.status is \
            (Status.AWAITING_ROOT_KEY if passed else Status.TS_FAILED)


@pytest.mark.parametrize("skew_ms", (-1, 1))
def test_windows_sit_on_the_power_on_grid(small_bundle, skew_ms):
    """The receiver's windows start at its power-on time, a round apart: a
    receiver powered on 1 ms off the stream's first slot has every page
    straddle two slots and discards every round, while the aligned one
    authenticates every verdict it gives."""
    t0, round_events = shifted_stream(small_bundle.streams)
    n_rounds, sats = len(small_bundle.streams[1]), len(small_bundle.streams)
    outcomes = {}
    for skew in (0, skew_ms):
        rx = _receiver(small_bundle, t0 + skew)
        assert rx.status is Status.AWAITING_ROOT_KEY
        outcomes[skew] = [v.outcome for r in range(n_rounds)
                          for v in rx.ingest_round(round_events(r)).verdicts]
    assert outcomes[0] and set(outcomes[0]) == {Outcome.AUTHENTIC}
    assert outcomes[skew_ms] == \
        [Outcome.DISCARDED_INCOMPLETE] * (n_rounds * sats)


def test_cold_start_trace(small_bundle):
    """Root key completes after one HKROOT block cycle, then the rolling
    window authenticates data two subframes behind the disclosed key."""
    events = live_events(small_bundle.vectors.subframes())
    rx, results = _drive(small_bundle, events, 12)

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


@pytest.mark.parametrize("signer", ["broadcast", "another"])
def test_root_key_is_parsed_only_once_its_signature_verifies(
        small_bundle, monkeypatch, signer):
    """Over one full DSM cycle, a receiver holding the broadcast signer's
    public key parses the root message once and starts authenticating; one
    holding another public key never parses it, drops each satellite's
    blocks as that satellite's message fails, and keeps awaiting the root
    key."""
    parsed = []

    def counted_root_key(body):
        parsed.append(body)
        return tesla.root_key(body)

    monkeypatch.setattr(osnmasim.receiver, "root_key", counted_root_key)
    pubkey = small_bundle.pubkey if signer == "broadcast" \
        else public_key_point(generate_keypair(1)[1])
    rx, _ = _drive(small_bundle, live_events(small_bundle.vectors.subframes()),
                   DSM_BLOCKS, pubkey=pubkey)
    if signer == "broadcast":
        assert [tesla.root_key(body) for body in parsed] == \
            [small_bundle.chain.root]
        assert rx.status is Status.AUTHENTICATING
    else:
        assert parsed == []
        assert rx.status is Status.AWAITING_ROOT_KEY
        assert rx.trusted_key is None
        # every satellite completed its own message in the last round, and
        # each failed check dropped that satellite's blocks only
        assert sorted(rx._dsm) == sorted(small_bundle.sat_states)
        assert all(dsm.blocks == {} for dsm in rx._dsm.values())


def _acquisition(streams, rounds=None):
    """The GST of the round in which a receiver fed the streams (their first
    rounds, by default all) acquires the root key, read off its status
    changes, and the round results up to it; the GST is None when it never
    does."""
    t0, round_events = shifted_stream(streams)
    rx = Receiver(AlternateThreshold(30000), LrtSource(),
                  _poison_bundle().pubkey, GST0, t0)
    results = []
    for r in range(rounds or len(streams[1])):
        results.append(rx.ingest_round(round_events(r)))
        for gst, status in results[-1].changes:
            if status is Status.AUTHENTICATING:
                return gst, results
    return None, results


@functools.cache
def _poison_bundle():
    return generate_synthetic_constellation(seed=7, n_sats=8, n_subframes=32,
                                            gst0=GST0)


@pytest.mark.parametrize("prn", [1, 8])
def test_one_satellite_cannot_block_root_key_acquisition(prn):
    """One satellite of eight broadcasts every HKROOT block with one payload
    bit flipped, resealed: it fails its own root message, and the receiver
    still acquires the root key in the round the clean broadcast gives."""
    streams = dict(_poison_bundle().streams)
    clean, _ = _acquisition(streams)
    assert clean == Gst(1251, 277380)
    stream = streams[prn]
    blobs = [(nav, hkroot[:5] + bytes([hkroot[5] ^ 0x10]) + hkroot[6:], mack)
             for nav, hkroot, mack in stream.blobs()]
    streams[prn] = Stream(stream.gst, prn, seal_pages(blobs))
    assert _acquisition(streams)[0] == clean


def _poisoned(hkroot: bytes, pick: int, mask: int) -> bytes:
    """An HKROOT block with one payload byte that carries the block count,
    body or signature XORed with mask: the block's byte pick modulo those
    it carries."""
    start = hkroot[1] * DSM_PAYLOAD_BYTES
    carried = min(DSM_PAYLOAD_BYTES, DSM_BODY_BYTES - start)
    i = 2 + pick % carried
    return hkroot[:i] + bytes([hkroot[i] ^ mask]) + hkroot[i + 1:]


_ACQUISITION_ROUNDS = 2 * DSM_BLOCKS
_ALL_PRNS = frozenset(range(1, 9))


@settings(deadline=None)        # example count from the active profile
@given(st.one_of(st.just(_ALL_PRNS), st.sets(st.integers(1, 8), min_size=1,
                                             max_size=7)),
       st.integers(0, _ACQUISITION_ROUNDS - 1),
       st.integers(0, _ACQUISITION_ROUNDS - 1),
       st.integers(0, DSM_BODY_BYTES - 1), st.integers(1, 255))
@example(_ALL_PRNS, 0, DSM_BLOCKS - 1, 0, 1)
@example(_ALL_PRNS, 0, _ACQUISITION_ROUNDS - 1, 86, 0x80)
@example(frozenset({1}), 0, _ACQUISITION_ROUNDS - 1, 40, 0xFF)
def test_poisoned_hkroot_blocks_delay_acquisition_by_whole_cycles(
        prns, start, end, pick, mask):
    """Every HKROOT block the poisoned PRNs send in rounds start..end (either
    order) has one payload byte flipped and its pages resealed.  The root key
    is acquired at the end of the first DSM cycle that some PRN sends
    clean: in the clean run's round while any PRN is clean, one cycle later
    when every PRN is poisoned within the first cycle, and never, with no
    verdict, when every PRN is poisoned for the whole run."""
    first, last = sorted((start, end))
    streams = dict(_poison_bundle().streams)
    for prn in prns:
        blobs = streams[prn].blobs()
        for r in range(first, last + 1):
            nav, hkroot, mack = blobs[r]
            blobs[r] = nav, _poisoned(hkroot, pick, mask), mack
        streams[prn] = Stream(streams[prn].gst, prn, seal_pages(blobs))
    gst, results = _acquisition(streams, _ACQUISITION_ROUNDS)

    # the first DSM cycle k (rounds 7k to 7k + 6) that some PRN sends clean
    cycle = next((k for k in range(2) if prns != _ALL_PRNS
                  or last < DSM_BLOCKS * k or first >= DSM_BLOCKS * (k + 1)),
                 None)
    if cycle is None:
        assert gst is None
        assert [s for result in results for _, s in result.changes][-1] \
            is Status.AWAITING_ROOT_KEY
        assert not any(result.verdicts for result in results)
    else:
        # cycle 0 ends in the clean run's round 6, at tow 277380
        assert gst == GST0.add_seconds(30 * (DSM_BLOCKS * (cycle + 1) - 1))


def _resigned(bundle, towk, seed):
    """The bundle's streams with its root key announced at (GST0's week,
    towk) in a root message signed by generate_keypair(seed), every
    stream's HKROOT column resealed; and that key pair's public point."""
    private_key, public_key = generate_keypair(seed)
    body = build_root_message(NMA_HEADER, 0, GST0.wn, towk,
                              bundle.chain.root.bits)
    blocks = dsm_hkroot_blocks(body, sign_root(body, private_key))
    streams = {prn: Stream(stream.gst, prn, seal_pages(
                   (nav, blocks[i % DSM_BLOCKS], mack)
                   for i, (nav, _, mack) in enumerate(stream.blobs())))
               for prn, stream in bundle.streams.items()}
    return streams, public_key_point(public_key)


# a signed root message is acquired in round DSM_BLOCKS - 1, and the first
# key checked against its root key is the one disclosed in that round
_ACQUIRED_S = SUBFRAME_SECONDS * (DSM_BLOCKS - 1)


# the root key's slot 15 s off the grid, or the slot of that first key; or
# a towk that names no time of week, so no root key is acquired
@pytest.mark.parametrize("towk,gaps", [
    (GST0.tow - 15, [_ACQUIRED_S + 15]),
    (GST0.tow + _ACQUIRED_S, [0]),
    (700_000, []),
    ((1 << 20) - 1, [])],
    ids=["misaligned", "stale", "towk_700000", "towk_max"])
def test_misaligned_or_stale_chain_key_is_rejected(small_bundle, monkeypatch,
                                                   towk, gaps):
    """A root key whose signature verifies but whose slot is misaligned
    with, or not older than, the first key checked against it: that key is
    rejected, and at threshold 1 the receiver detects spoofing.  A root
    message whose towk is no time of week is dropped: every round runs,
    with no verdict, still awaiting a root key.  Either way the verdicts and
    timeline are the reference receiver's."""
    checked = []        # the GST gap, in seconds, of every key checked

    def recording(candidate, trusted):
        checked.append(candidate.gst.total_seconds()
                       - trusted.gst.total_seconds())
        return tesla.verify_key(candidate, trusted)

    monkeypatch.setattr(osnmasim.receiver, "verify_key", recording)
    streams, pubkey = _resigned(small_bundle, towk, seed=5)
    t0, round_events = shifted_stream(streams)
    windows = [round_events(r) for r in range(len(streams[1]))]
    rx = _receiver(small_bundle, t0, pubkey=pubkey)
    results = [rx.ingest_round(events) for events in windows]
    ref = receiver_reference.run(AlternateThreshold(30000), LrtSource(),
                                 pubkey, GST0, t0, windows)
    assert checked == gaps
    verdicts = [v for result in results for v in result.verdicts]
    if gaps:
        assert verdicts and \
            {v.outcome for v in verdicts} == {Outcome.KEY_REJECTED}
        assert rx.status is Status.SPOOF_DETECTED
    else:
        assert verdicts == [] and rx.trusted_key is None
        assert rx.status is Status.AWAITING_ROOT_KEY
    assert [result.verdicts for result in results] == ref.verdicts
    assert [c for result in results for c in result.changes] == ref.timeline


def test_no_verdicts_before_osnma_start(small_bundle):
    events = live_events(small_bundle.vectors.subframes())
    rx, results = _drive(small_bundle, events, 10,
                         lrt=LrtSource(offset_ms=31000))
    assert rx.status is Status.TS_FAILED
    assert all(not r.verdicts for r in results)
    # nav data still parsed for the position pipeline
    assert any(r.navs for r in results)


def test_fresh_report_is_empty(small_bundle):
    """A receiver that stays cold hands over only its cold start and no
    verdicts, and so does the report folded from it."""
    rx = _receiver(small_bundle, GST0.total_millis(),
                   policy=SymmetricBound(15000),
                   lrt=LrtSource(error_bound_ms=20000))
    result = rx.ingest_round({})
    assert result.changes == [(None, Status.COLD_START)]
    assert result.verdicts == []
    rep = run_scenario(Scenario.from_dict({
        "receiver": {"policy": {"type": "symmetric", "b_s": 15},
                     "lrt_error_bound_s": 20},
        "constellation": {"sats": 4, "subframes": 1}}))["receiver"]
    assert rep["verdicts"] == []
    assert rep["status"] == "cold_start"
    assert rep["timeline"] == [{"gst": None, "status": "cold_start"}]


def test_ts_failed_recorded_in_timeline(small_bundle):
    rx = _receiver(small_bundle, GST0.total_millis(),
                   lrt=LrtSource(offset_ms=32000))
    assert rx.status is Status.TS_FAILED
    assert rx.ingest_round({}).changes == \
        [(None, Status.COLD_START), (GST0, Status.TS_FAILED)]
    assert rx.ingest_round({}).changes == []
    assert rx.status is Status.TS_FAILED


def test_destroyed_round_suspends_then_recovers(small_bundle):
    """One destroyed page discards the round; three fresh complete
    subframes bring authentication back without a new root key."""
    events = _drop(live_events(small_bundle.vectors.subframes()),
                   prn=2, round_idx=8, slot=4)
    rx, results = _drive(small_bundle, events, 12)

    round8 = results[8]
    assert any(v.outcome is Outcome.DISCARDED_INCOMPLETE and v.prn == 2
               for v in round8.verdicts)
    assert rx.status is Status.AUTHENTICATING          # recovered by round 11
    statuses = [s.value for r in results for _, s in r.changes]
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
    _, results = _drive(small_bundle, events, 10)
    assert 2 not in results[8].navs
    assert [v.outcome for v in results[8].verdicts if v.prn == 2] == \
        [Outcome.DISCARDED_INCOMPLETE]
    assert {v.prn for v in results[8].verdicts} == \
        {v.prn for v in results[7].verdicts} == set(small_bundle.sat_states)
    assert 2 in results[9].navs


def test_tampered_tag_region_localizes_to_tag_mismatch(small_bundle):
    """Tags for subframe i live in subframe i+1: corrupting that region
    flags subframe i only."""
    sfs = {prn: list(lst) for prn, lst in small_bundle.vectors.subframes().items()}
    target_prn = 1
    sf5 = sfs[target_prn][5]
    _, mack = osnma(sf5)
    tags = unpack_mack(mack, n_tags=6)
    tags[0] = bytes(5)
    sfs[target_prn][5] = _with_mack(sf5, pack_mack(tags, disclosed_key(mack)))
    _, results = _drive(small_bundle, live_events(sfs), 9)

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
    _, mack = osnma(sf6)
    tags = unpack_mack(mack, n_tags=6)
    sfs[target_prn][6] = _with_mack(sf6, pack_mack(tags, bytes(16)))
    _, results = _drive(small_bundle, live_events(sfs), 9,
                        key_reject_threshold=10)

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
    _, mack = osnma(sf6)
    tags = unpack_mack(mack, n_tags=6)
    sfs[1][6] = _with_mack(sf6, pack_mack(tags, bytes(16)))
    rx, results = _drive(small_bundle, live_events(sfs), 9)     # threshold 1
    assert rx.status is Status.SPOOF_DETECTED
    # once flagged, no further verdicts of any kind
    tail = [v for r in results for v in r.verdicts
            if v.gst.total_seconds() > GST0.total_seconds() + 30 * 4]
    assert tail == []


# up to 8 (round, prn, slot) pages dropped from a 4 x 12 live stream
_DROPS = st.sets(st.tuples(st.integers(0, 11), st.integers(1, 4),
                           st.integers(0, SLOTS_PER_SUBFRAME - 1)), max_size=8)


@settings(max_examples=40, deadline=None)
@given(_DROPS)
@example(set())
def test_rounds_name_the_nav_data_they_parsed_and_authenticated(drops):
    """With pages dropped from the live stream, each round's navs hold
    exactly its complete PRNs, each with the nav data broadcast at the
    round's GST, and its authenticated hold exactly the PRNs of its
    authentic verdicts, each with the nav data broadcast at the verdict's
    GST."""
    small_bundle = small_constellation()
    broadcast = small_bundle.vectors.subframes()
    events = live_events(broadcast)
    for round_idx, prn, slot in drops:
        events = _drop(events, prn, round_idx, slot)
    _, results = _drive(small_bundle, events, 12, t0=GST0.total_millis())

    def sent(prn, gst):
        r = (gst.total_seconds() - GST0.total_seconds()) // 30
        assert broadcast[prn][r].gst == gst
        return parse_nav_data(subframe_nav_data(broadcast[prn][r]))

    for r, result in enumerate(results):
        assert result.gst == GST0.add_seconds(30 * r)
        dropped = {prn for round_idx, prn, _ in drops if round_idx == r}
        assert set(result.navs) == set(broadcast) - dropped
        for prn, nav in result.navs.items():
            assert nav == sent(prn, result.gst)
        authentic = {v.prn: v.gst for v in result.verdicts
                     if v.outcome is Outcome.AUTHENTIC}
        assert set(result.authenticated) == set(authentic)
        for prn, nav in result.authenticated.items():
            assert nav == sent(prn, authentic[prn])
    if not drops:
        assert len(results[-1].authenticated) == 4


@settings(max_examples=40, deadline=None)
@given(_DROPS)
@example(set())
def test_rounds_name_the_gst_they_authenticated(drops):
    """With pages dropped from the live stream, each round's
    authenticated_gst is the GST of every authentic verdict it holds, and
    None in a round with none; the clean run has rounds of both kinds."""
    small_bundle = small_constellation()
    events = live_events(small_bundle.vectors.subframes())
    for round_idx, prn, slot in drops:
        events = _drop(events, prn, round_idx, slot)
    _, results = _drive(small_bundle, events, 12, t0=GST0.total_millis())
    named = [result.authenticated_gst for result in results]
    for result, gst in zip(results, named):
        authentic = {v.gst for v in result.verdicts
                     if v.outcome is Outcome.AUTHENTIC}
        assert authentic == (set() if gst is None else {gst})
    if not drops:
        assert None in named and named[-1] == GST0.add_seconds(30 * 9)


def test_windows_hold_only_what_their_checks_read(wide_bundle):
    """After an 8x16 baseline every satellite's window holds, for each of
    its three subframes, the GST, the nav and MACK blobs and the parsed nav
    data: no Subframe and no 30-byte page."""
    rx, results = _drive(wide_bundle,
                         live_events(wide_bundle.vectors.subframes()), 16)
    assert [v.outcome for v in results[-1].verdicts] == [Outcome.AUTHENTIC] * 8
    assert sorted(rx.pending) == list(range(1, 9))
    for prn, window in rx.pending.items():
        assert [gst for gst, *_ in window] == \
            [GST0.add_seconds(30 * r) for r in (13, 14, 15)]
        for entry in window:
            assert list(map(type, entry)) == [Gst, bytes, bytes, NavFields]
            assert list(map(len, entry[1:3])) == [NAV_BYTES, MACK_BYTES]
            assert entry[3].prn == prn


def test_report_shape(small_bundle):
    """Each round carries its GST-LRT delta, and the report folds one per
    round with every verdict as a gst, prn and outcome."""
    _, results = _drive(small_bundle,
                        live_events(small_bundle.vectors.subframes()), 10)
    assert [r.delta_ms for r in results] == [0] * 10
    rep = run_scenario(Scenario.from_dict({
        "constellation": {"sats": 4, "subframes": 12},
        "duration_rounds": 10}))["receiver"]
    assert rep["rounds"] == 10
    assert len(rep["gst_lrt_delta_ms"]) == 10
    assert all(d == 0 for d in rep["gst_lrt_delta_ms"])
    assert rep["verdicts"]
    assert all(set(v) == {"gst", "prn", "outcome"} for v in rep["verdicts"])


# (round, satellite, page, kind, bit, shift, other): rounds and satellites
# are taken modulo the bundle's, pages modulo the round's events; other
# picks the earlier round a replay copies from, the event a swap exchanges
# with, and whether a forgery tags under the key its round or the next
# one discloses
_MOVE = st.tuples(
    st.integers(0, 63), st.integers(0, 63),
    st.integers(0, SLOTS_PER_SUBFRAME - 1),
    st.sampled_from(("drop", "duplicate", "shift", "flip", "flip_reseal",
                     "replay", "swap", "forge")),
    st.integers(0, PAGE_BITS - 1),
    st.sampled_from((1, -1, 999, -999, PAGE_MS, -PAGE_MS)),
    st.integers(0, 63))


def _moved(events, move, earlier):
    """One satellite's page events of a round with one move applied;
    earlier holds its events of each earlier round as broadcast."""
    _, _, page, kind, bit, shift, other = move
    if not events:
        return events
    i = page % len(events)
    event = events[i]
    if kind == "drop":
        return events[:i] + events[i + 1:]
    if kind == "duplicate":
        return events + [event]
    if kind == "swap":              # same pages, out of slot order
        j = other % len(events)
        events = list(events)
        events[i], events[j] = events[j], events[i]
        return events
    if kind == "shift":
        event = event._replace(t_ms=event.t_ms + shift)
    elif kind == "replay":          # its slot's page of an earlier round
        if not earlier:
            return events
        sent = earlier[other % len(earlier)]
        slot = (event.t_ms - sent[0].t_ms) // PAGE_MS % SLOTS_PER_SUBFRAME
        event = event._replace(raw=sent[slot].raw)
    else:
        raw = flip_page_bit(event.raw, bit)
        event = event._replace(
            raw=reseal_raw(raw) if kind == "flip_reseal" else raw)
    return events[:i] + [event] + events[i + 1:]


def _blobs(events) -> tuple:
    """The (nav, hkroot, mack) blobs of one round's events as broadcast,
    read as a one-subframe stream, and the GST its nav data names."""
    (nav, hkroot, mack), = Stream(GST0, events[0].prn, b"".join(
        e.raw for e in events)).blobs()
    fields = parse_nav_data(nav)
    return nav, hkroot, mack, Gst(fields.wn, fields.tow)


def _resealed(windows, r, prn, sent, blobs):
    """Round r's events of prn with every page still as sent replaced by
    the page sealed from blobs for the same slot."""
    pages = seal_pages([blobs])
    sealed = {e.raw: pages[k * PAGE_BYTES:(k + 1) * PAGE_BYTES]
              for k, e in enumerate(sent)}
    windows[r][prn] = [e._replace(raw=sealed.get(e.raw, e.raw))
                       for e in windows[r][prn]]


def _forge(sent, windows, r, prn, move):
    """An adversary's forgery of round r's nav data: one nav-data bit of
    the page's slot flipped, and round r + 1's tags recomputed over the
    forged data under the key disclosed in round r or r + 1, not the one
    round r + 2 discloses; both rounds resealed."""
    _, _, page, _, bit, _, other = move
    nav, hkroot, mack, _ = _blobs(sent[r][prn])
    flipped = page % SLOTS_PER_SUBFRAME * PAGE_DATA_BITS + bit % PAGE_DATA_BITS
    forged = (int.from_bytes(nav, "big") ^ 1 << NAV_BITS - 1 - flipped
              ).to_bytes(NAV_BYTES, "big")
    _resealed(windows, r, prn, sent[r][prn], (forged, hkroot, mack))
    if r + 1 == len(sent):
        return
    nav, hkroot, mack, gst = _blobs(sent[r + 1][prn])
    key = disclosed_key(_blobs(sent[r + 1 - other % 2][prn])[2])
    tags = generate_subframe_tags(forged, key, prn, prn, gst,
                                  DEFAULT_SEG_COUNT)
    _resealed(windows, r + 1, prn, sent[r + 1][prn],
              (nav, hkroot, pack_mack(tags, disclosed_key(mack))))


def _moved_rounds(round_events, rounds, moves):
    """Each round's page events by PRN, one event per page, with the moves
    applied in order, each to its round taken modulo the rounds; replays
    and forgeries read the pages as broadcast."""
    sent = [{prn: page_events(evs) for prn, evs in round_events(r).items()}
            for r in range(rounds)]
    windows = [dict(events) for events in sent]
    for move in moves:
        r = move[0] % rounds
        prns = sorted(windows[r])
        prn = prns[move[1] % len(prns)]
        if move[3] == "forge":
            _forge(sent, windows, r, prn, move)
        else:
            windows[r][prn] = _moved(windows[r][prn], move,
                                     [events[prn] for events in sent[:r]])
    return windows


@settings(max_examples=100, deadline=None)
@given(st.lists(_MOVE, max_size=12))
@example([])
def test_moved_pages_give_no_unsound_verdict(moves):
    """Pages dropped, duplicated, swapped, shifted by 1 ms, 999 ms or 2 s,
    with a bit flipped, resealed or not, or replayed from an earlier round,
    and nav data forged with tags made under an already disclosed key,
    round by round: nothing escapes ingest_round, and every authentic
    verdict names a received subframe whose nav data is the one broadcast
    at its GST and PRN.  The received subframes are the round's events
    assembled by assemble_round, and the receiver parses the nav data of
    exactly the complete ones."""
    small_bundle = small_constellation()
    broadcast = small_bundle.vectors.subframes()
    rounds = len(broadcast[1])
    t0, round_events = shifted_stream(small_bundle.streams)
    rx = _receiver(small_bundle, t0)
    received, verdicts = {}, []
    for r, events in enumerate(_moved_rounds(round_events, rounds, moves)):
        result = rx.ingest_round(events)
        assembled = {prn: assemble_round(evs, result.gst, prn,
                                         t0 + r * SUBFRAME_MS)
                     for prn, evs in events.items()}
        assert result.navs == {
            prn: parse_nav_data(subframe_nav_data(sf))
            for prn, sf in assembled.items() if sf.complete}
        received.update(((sf.gst, prn), sf) for prn, sf in assembled.items())
        verdicts += result.verdicts
    authentic = [v for v in verdicts if v.outcome is Outcome.AUTHENTIC]
    for v in authentic:
        r = (v.gst.total_seconds() - GST0.total_seconds()) // 30
        assert subframe_nav_data(received[(v.gst, v.prn)]) == \
            subframe_nav_data(broadcast[v.prn][r])
    if not moves:
        assert authentic and len(authentic) == len(verdicts)


@st.composite
def _ts_gate(draw):
    """A TS policy and an LRT whose power-on offset falls on either side of
    the threshold; a symmetric bound may distrust the LRT's error bound."""
    if draw(st.booleans()):
        return AlternateThreshold(30000), LrtSource(
            offset_ms=draw(st.integers(-32000, 32000)))
    return SymmetricBound(15000), LrtSource(
        offset_ms=draw(st.integers(-17000, 17000)),
        error_bound_ms=draw(st.sampled_from((0, 15000, 20000))))


@settings(deadline=None)        # example count from the active profile
@given(st.lists(_MOVE, max_size=12), _ts_gate(), st.integers(1, 3),
       st.sets(st.tuples(st.integers(0, 11), st.integers(1, 4)), max_size=3))
@example([], (AlternateThreshold(30000), LrtSource()), 1, set())
def test_receiver_matches_the_reference_receiver(moves, gate, threshold,
                                                 bad_keys):
    """Round by round, the receiver's nav data parsed from its complete
    subframes, verdicts, authenticated nav data and status are those the
    literal reference derives from the whole run by index, with a zero key
    broadcast at each (round, PRN) of bad_keys and pages moved as in the
    soundness test; the status changes its rounds hand over end at its
    status after every round, and joined they equal the reference's
    timeline."""
    small_bundle = small_constellation()
    broadcast = small_bundle.vectors.subframes()
    for r, prn in bad_keys:
        tags = unpack_mack(osnma(broadcast[prn][r])[1], n_tags=6)
        broadcast[prn][r] = _with_mack(broadcast[prn][r],
                                       pack_mack(tags, bytes(16)))
    t0, round_events = shifted_stream(
        {prn: Stream.of(sfs) for prn, sfs in broadcast.items()})
    windows = _moved_rounds(round_events, len(broadcast[1]), moves)
    policy, lrt = gate
    rx = _receiver(small_bundle, t0, policy=policy, lrt=lrt,
                   key_reject_threshold=threshold)
    ref = receiver_reference.run(policy, lrt, small_bundle.pubkey, GST0, t0,
                                 windows, key_reject_threshold=threshold)
    timeline = []
    for r, events in enumerate(windows):
        result = rx.ingest_round(events)
        assert list(result.navs.items()) == [
            (prn, parse_nav_data(subframe_nav_data(sf)))
            for prn, sf in ref.subframes[r].items() if sf.complete]
        assert result.verdicts == ref.verdicts[r]
        assert result.authenticated == ref.authenticated[r]
        timeline += result.changes
        assert timeline[-1][1] is rx.status is ref.statuses[r]
    assert timeline == ref.timeline
