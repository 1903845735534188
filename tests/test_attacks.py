import random

import pytest

import osnmasim.pages
from osnmasim.attacks import (
    cr_compose,
    forge_nav_blob,
    ntp_mitm_delay,
    replay_realtime,
    shifted_stream,
    tsf_forge_subframes,
)
from osnmasim.gst import Gst, LrtSource, to_millis
from osnmasim.mack import (
    KEY_BITS,
    TAG_REGION_BITS,
    disclosed_key,
    generate_subframe_tags,
    pack_mack,
    unpack_mack,
)
from osnmasim.navdata import build_nav_data, parse_nav_data, subframe_nav_data
from osnmasim.pages import (
    CRC,
    EVEN_TAIL,
    FILL,
    MACK_BYTES,
    NAV_BYTES,
    PAGE_BITS,
    PAGE_BYTES,
    RESERVED,
    SLOTS_PER_SUBFRAME,
    SUBFRAME_MS,
    Source,
    Stream,
    assemble_round,
    check_raws,
    reseal_raw,
    seal_pages,
)
from osnmasim.tesla import NMA_HEADER
from page_reference import (
    FLAGS,
    blob_pages,
    destroyed_slots,
    osnma,
    page_events,
)

GST0 = Gst(1251, 277200)


# -- plain replay ------------------------------------------------------------


def test_replay_realtime_zero_delay_identity(small_bundle):
    live_t0, live = shifted_stream(small_bundle.streams)
    t0, replayed = replay_realtime(small_bundle.streams, 0)
    assert t0 == live_t0 == GST0.total_millis()
    for r in range(len(small_bundle.streams[1])):
        assert {prn: [e.t_ms for e in evs] for prn, evs in replayed(r).items()} \
            == {prn: [e.t_ms for e in evs] for prn, evs in live(r).items()}
        assert all(e.source is Source.ADVERSARY
                   for evs in replayed(r).values() for e in evs)


def test_replay_preserves_bits_exactly(small_bundle):
    live_t0, live = shifted_stream(small_bundle.streams)
    t0, replayed = replay_realtime(small_bundle.streams, 29500)
    assert t0 - live_t0 == 29500
    for r in range(len(small_bundle.streams[1])):
        for prn, events in replayed(r).items():
            assert [e.raw for e in events] == [e.raw for e in live(r)[prn]]
            assert all(a.t_ms - b.t_ms == 29500
                       for a, b in zip(events, live(r)[prn]))


def test_replay_rejects_negative_delay(small_bundle):
    with pytest.raises(ValueError):
        replay_realtime(small_bundle.streams, -1)


# -- NTP man in the middle -----------------------------------------------------


def test_mitm_zero_delay_unchanged():
    src = LrtSource(offset_ms=5, error_bound_ms=9)
    assert ntp_mitm_delay(src, 0) == src


def test_mitm_shifts_readings_behind():
    src = LrtSource()
    delayed = ntp_mitm_delay(src, 32000)
    assert delayed.read(1_000_000) == 1_000_000 - 32000


def test_mitm_composition_is_additive():
    src = LrtSource(offset_ms=100)
    assert ntp_mitm_delay(ntp_mitm_delay(src, 700), 300) == \
        ntp_mitm_delay(src, 1000)


# -- forgery -------------------------------------------------------------------


def _tsf_args(**kw):
    """forge tsf's values, iono_a0 forged to 5."""
    return {"seg_count": 6, "forge_tags": True, "iono_a0": 5,
            "clock_bias_m": 0.0, **kw}


def _forged(stream, **kw):
    """The recorded stream's subframes and its forgery's."""
    return (stream.subframes(),
            tsf_forge_subframes(stream, **_tsf_args(**kw)).subframes())


def test_tsf_output_invariants(wide_bundle):
    """Forged subframes keep the chain key bits and page validity: every
    page reseals CRC-consistent and the MACK key field is untouched."""
    aux, forged = _forged(wide_bundle.streams[2])
    assert len(forged) == len(aux)
    for before, after in zip(aux, forged):
        assert after.complete
        assert disclosed_key(osnma(after)[1]) == \
            disclosed_key(osnma(before)[1])
        assert after.gst == before.gst


def test_tsf_keeps_timing_and_ephemeris_fields(wide_bundle):
    aux, forged = _forged(wide_bundle.streams[3])
    for before, after in zip(aux[:-2], forged[:-2]):
        nav_b = parse_nav_data(subframe_nav_data(before))
        nav_a = parse_nav_data(subframe_nav_data(after))
        assert (nav_a.wn, nav_a.tow, nav_a.prn) == (nav_b.wn, nav_b.tow, nav_b.prn)
        assert nav_a.sat_ecef_m == nav_b.sat_ecef_m
        assert nav_a.iono_a0 == 5            # forged correction
        assert nav_b.iono_a0 != 5


def test_tsf_nav_only_keeps_tags(wide_bundle):
    aux, forged = _forged(wide_bundle.streams[4], forge_tags=False)
    for before, after in zip(aux, forged):
        assert unpack_mack(osnma(after)[1], 6) == \
            unpack_mack(osnma(before)[1], 6)
        assert after.complete                  # CRCs still resealed


def test_tsf_last_two_subframes_untouched(wide_bundle):
    aux, forged = _forged(wide_bundle.streams[5])
    # nav data of the final two subframes is never rewritten
    for before, after in zip(aux[-2:], forged[-2:]):
        assert subframe_nav_data(before) == subframe_nav_data(after)
    # the final subframe carries no replacement tags either: bit identical
    assert aux[-1].raws == forged[-1].raws


def _sealed(sf, nav_blob, hkroot, mack_blob):
    """sf sealed afresh around the given blobs."""
    return Stream(sf.gst, sf.prn, seal_pages(
        [(nav_blob, hkroot, mack_blob)])).subframes()[0]


def _replace_nav(sf, nav_blob):
    return _sealed(sf, nav_blob, *osnma(sf))


def _replace_mack(sf, mack_blob):
    return _sealed(sf, subframe_nav_data(sf), osnma(sf)[0], mack_blob)


def _two_pass_forgery(aux, seg_count, forge_tags, iono_a0, clock_bias_m):
    """Reference loop: rebuild subframe n around its forged nav data, then
    rebuild subframe n+1 around the new tags, one window at a time."""
    out = list(aux)
    for i in range(len(aux) - 2):
        forged_blob = forge_nav_blob(subframe_nav_data(out[i]), iono_a0,
                                     clock_bias_m)
        out[i] = _replace_nav(out[i], forged_blob)
        if not forge_tags:
            continue
        key = disclosed_key(osnma(out[i + 2])[1])
        tags = generate_subframe_tags(forged_blob, key,
                                      prn_d=out[i].prn, prn_a=out[i].prn,
                                      gst_sf=out[i + 1].gst,
                                      seg_count=seg_count)
        out[i + 1] = _replace_mack(out[i + 1], pack_mack(
            tags, disclosed_key(osnma(out[i + 1])[1])))
    return out


@pytest.mark.parametrize("forge_tags", [True, False])
@pytest.mark.parametrize("iono_a0", [0, 2047])
def test_tsf_matches_two_pass_reference(wide_bundle, forge_tags, iono_a0):
    """One build of the forged stream gives the stream of the subframes the
    window-by-window rebuild gives, on every satellite."""
    args = _tsf_args(forge_tags=forge_tags, iono_a0=iono_a0)
    for stream in wide_bundle.streams.values():
        assert tsf_forge_subframes(stream, **args) == \
            Stream.of(_two_pass_forgery(stream.subframes(), **args))


@pytest.mark.parametrize("forge_tags", [True, False])
def test_tsf_seals_each_satellite_in_one_batch(wide_bundle, monkeypatch,
                                               forge_tags):
    """A satellite's forged stream is sealed in one kernel call: the blobs
    are written over every recorded page and the whole stream resealed."""
    calls = []
    kernel = osnmasim.pages._crc_columns

    def counting(joined, lanes):
        calls.append(len(joined) // osnmasim.pages.PAGE_BYTES)
        return kernel(joined, lanes)

    monkeypatch.setattr(osnmasim.pages, "_crc_columns", counting)
    aux = wide_bundle.streams[1]
    tsf_forge_subframes(aux, **_tsf_args(forge_tags=forge_tags))
    assert calls == [15 * len(aux)]


def _ones(*fields) -> int:
    """The page-wide int with ones over each (bit position, width) field."""
    return sum((1 << width) - 1 << PAGE_BITS - pos - width
               for pos, width in fields)


def _page_ints(nav_blob, mack_blob) -> list:
    """Each page's int with ones where the nav and MACK blobs have them."""
    return [int.from_bytes(raw, "big") ^ FLAGS for raw in blob_pages(
        nav_blob, bytes(SLOTS_PER_SUBFRAME), mack_blob)]


@pytest.mark.parametrize("forge_tags", [True, False])
def test_tsf_keeps_every_recorded_bit_it_does_not_forge(small_bundle,
                                                        forge_tags):
    """A recording whose pages carry even-tail, reserved and fill bits (the
    SAR, spare, SSP and tail bits of real I/NAV) and whose nav blobs carry
    bits outside the simulated fields: every bit outside the two correction
    fields, the re-tagged MACK tag regions and the CRC fields comes out of
    the forgery as recorded, and every forged page verifies."""
    rng = random.Random(29)
    fields = int.from_bytes(build_nav_data(
        4095, (1 << 20) - 1, 255, (-1e-3,) * 3, -1e-3, 2047), "big")
    framing = _ones(EVEN_TAIL, RESERVED, FILL)
    raws = []
    for nav, hkroot, mack in small_bundle.streams[1].blobs():
        extra = int.from_bytes(rng.randbytes(NAV_BYTES), "big") & ~fields
        nav = (int.from_bytes(nav, "big") | extra).to_bytes(NAV_BYTES, "big")
        raws += [reseal_raw((int.from_bytes(raw, "big") | framing
                             & rng.getrandbits(PAGE_BITS)).to_bytes(
                                 PAGE_BYTES, "big"))
                 for raw in blob_pages(nav, hkroot, mack)]
    recorded = Stream(GST0, 1, b"".join(raws))
    forged = tsf_forge_subframes(recorded, **_tsf_args(forge_tags=forge_tags))
    assert all(int.from_bytes(raw, "big") & framing for raw in raws)
    assert check_raws(raws) == [True] * len(raws)
    assert check_raws([raw for sf in forged.subframes()
                       for raw in sf.raws]) == [True] * len(raws)

    n = len(recorded)
    corrections = build_nav_data(0, 0, 0, (0, 0, 0), -1e-3, 2047)
    tag_region = ((1 << TAG_REGION_BITS) - 1 << KEY_BITS).to_bytes(
        MACK_BYTES, "big")
    crc = _ones(CRC)
    for i in range(n):
        masks = _page_ints(
            corrections if i < n - 2 else bytes(NAV_BYTES),
            tag_region if forge_tags and 1 <= i <= n - 2 else bytes(MACK_BYTES))
        for p, mask in enumerate(masks):
            at = PAGE_BYTES * (SLOTS_PER_SUBFRAME * i + p)
            before, after = (int.from_bytes(pages[at:at + PAGE_BYTES], "big")
                             for pages in (recorded.pages, forged.pages))
            assert (before ^ after) & ~(mask | crc) == 0, (i, p)


# -- concatenating replay --------------------------------------------------------


def _cr_events(bundle, delay_s, t_acq_s="0.6", onset_round=2):
    return (shifted_stream(bundle.streams),
            cr_compose(bundle.streams, to_millis(delay_s),
                       to_millis(t_acq_s), onset_round))


def _round_subframe(stream, round_idx, prn):
    t0, round_events = stream
    w0 = t0 + round_idx * SUBFRAME_MS
    gst = GST0.add_seconds(30 * round_idx)
    return assemble_round(round_events(round_idx).get(prn, []), gst, prn, w0)


def test_cr_seamless_zero_latency(small_bundle):
    live, merged = _cr_events(small_bundle, 0, 0, onset_round=0)
    for r in range(4):
        sf = _round_subframe(merged, r, prn=1)
        assert sf.complete
        live_sf = _round_subframe(live, r, prn=1)
        assert sf.raws == live_sf.raws


def test_cr_aligned_boundary_one_destroyed_round(small_bundle):
    """Takeover exactly at the end of the first page window: the onset
    round loses its first page, every later round is complete and aligned."""
    live, merged = _cr_events(small_bundle, "1.4")
    onset_sf = _round_subframe(merged, 2, prn=1)
    assert not onset_sf.complete
    assert destroyed_slots(onset_sf) == (0,)
    for r in (3, 4, 5):
        sf = _round_subframe(merged, r, prn=1)
        assert sf.complete
        hkroot, _ = osnma(sf)
        assert hkroot[0] == NMA_HEADER
        live_sf = _round_subframe(live, r, prn=1)
        assert sf.raws == live_sf.raws


def test_cr_late_takeover_shifts_one_page(small_bundle):
    """Takeover 0.1 s past the first page window: subsequent rounds carry a
    one-page shift and the HKROOT stream loses its header alignment."""
    live, merged = _cr_events(small_bundle, "1.5")
    onset_sf = _round_subframe(merged, 2, prn=1)
    assert destroyed_slots(onset_sf)[:2] == (0, 1)
    for r in (3, 4, 5):
        sf = _round_subframe(merged, r, prn=1)
        assert sf.complete
        hkroot, _ = osnma(sf)
        assert hkroot[0] != NMA_HEADER
        prev_hk, _ = osnma(_round_subframe(live, r - 1, prn=1))
        this_hk, _ = osnma(_round_subframe(live, r, prn=1))
        assert hkroot == prev_hk[-1:] + this_hk[:-1]


@pytest.mark.parametrize("delay_s,aligned", [
    ("0.2", True), ("1.0", True), ("1.4", True),
    ("1.5", False), ("2.5", False), ("7.3", False),
])
def test_cr_alignment_boundary_rule(small_bundle, delay_s, aligned):
    """Concatenation succeeds exactly when replay delay + acquisition time
    stays within the first 2-second page window."""
    _, merged = _cr_events(small_bundle, delay_s)
    sf = _round_subframe(merged, 4, prn=2)
    assert sf.complete
    hkroot, _ = osnma(sf)
    assert (hkroot[0] == NMA_HEADER) == aligned


def test_cr_preserves_page_bits(small_bundle):
    (_, live), (_, merged) = _cr_events(small_bundle, "1.5")
    rounds = range(len(small_bundle.streams[1]))
    live_raws = {e.raw for r in rounds for evs in live(r).values()
                 for e in page_events(evs)}
    assert all(e.raw in live_raws for r in rounds
               for evs in merged(r).values() for e in page_events(evs))


@pytest.mark.parametrize("name, times", [("replay_delay_ms", (-1, 600)),
                                         ("t_acq_ms", (1400, -1))])
def test_cr_rejects_a_negative_time_by_name(small_bundle, name, times):
    with pytest.raises(ValueError, match=f"^{name} -1 must be >= 0$"):
        cr_compose(small_bundle.streams, *times, 0)
