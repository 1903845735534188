import pytest

import osnmasim.pages
from osnmasim.attacks import (
    CrTiming,
    InsufficientAuxError,
    TsfConfig,
    cr_compose,
    forge_nav_blob,
    ntp_mitm_delay,
    replay_realtime,
    shifted_stream,
    tsf_forge_subframes,
)
from osnmasim.gst import Gst, LrtSource, to_millis
from osnmasim.mack import generate_subframe_tags, pack_mack, unpack_mack
from osnmasim.navdata import parse_nav_data, subframe_nav_data
from osnmasim.pages import (
    SUBFRAME_MS,
    Source,
    assemble_round,
    build_subframes,
)
from osnmasim.tesla import NMA_HEADER, TeslaKey

GST0 = Gst(1251, 277200)


# -- plain replay ------------------------------------------------------------


def test_replay_realtime_zero_delay_identity(small_bundle):
    live_t0, live = shifted_stream(small_bundle.subframes)
    t0, replayed = replay_realtime(small_bundle.subframes, 0)
    assert t0 == live_t0 == GST0.total_millis()
    for r in range(len(small_bundle.subframes[1])):
        assert {prn: [e.t_ms for e in evs] for prn, evs in replayed(r).items()} \
            == {prn: [e.t_ms for e in evs] for prn, evs in live(r).items()}
        assert all(e.source is Source.ADVERSARY
                   for evs in replayed(r).values() for e in evs)


def test_replay_preserves_bits_exactly(small_bundle):
    live_t0, live = shifted_stream(small_bundle.subframes)
    t0, replayed = replay_realtime(small_bundle.subframes, 29500)
    assert t0 - live_t0 == 29500
    for r in range(len(small_bundle.subframes[1])):
        for prn, events in replayed(r).items():
            assert [e.raw for e in events] == [e.raw for e in live(r)[prn]]
            assert all(a.t_ms - b.t_ms == 29500
                       for a, b in zip(events, live(r)[prn]))


def test_replay_rejects_negative_delay(small_bundle):
    with pytest.raises(ValueError):
        replay_realtime(small_bundle.subframes, -1)


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


def _tsf_cfg(**kw):
    return TsfConfig(iono_a0=5, **kw)


def test_tsf_needs_three_subframes(wide_bundle):
    aux = wide_bundle.vectors.subframes()[1][:2]
    with pytest.raises(InsufficientAuxError):
        tsf_forge_subframes(aux, _tsf_cfg())


def test_tsf_output_invariants(wide_bundle):
    """Forged subframes keep the chain key bits and page validity: every
    page reseals CRC-consistent and the MACK key field is untouched."""
    aux = wide_bundle.vectors.subframes()[2]
    forged = tsf_forge_subframes(aux, _tsf_cfg())
    assert len(forged) == len(aux)
    for before, after in zip(aux, forged):
        assert after.complete
        _, mack_before = before.osnma
        _, mack_after = after.osnma
        _, key_before = unpack_mack(mack_before, 6)
        _, key_after = unpack_mack(mack_after, 6)
        assert key_after == key_before
        assert after.gst == before.gst


def test_tsf_keeps_timing_and_ephemeris_fields(wide_bundle):
    aux = wide_bundle.vectors.subframes()[3]
    forged = tsf_forge_subframes(aux, _tsf_cfg())
    for before, after in zip(aux[:-2], forged[:-2]):
        nav_b = parse_nav_data(subframe_nav_data(before))
        nav_a = parse_nav_data(subframe_nav_data(after))
        assert (nav_a.wn, nav_a.tow, nav_a.prn) == (nav_b.wn, nav_b.tow, nav_b.prn)
        assert nav_a.sat_ecef_m == nav_b.sat_ecef_m
        assert nav_a.iono_a0 == 5            # forged correction
        assert nav_b.iono_a0 != 5


def test_tsf_nav_only_keeps_tags(wide_bundle):
    aux = wide_bundle.vectors.subframes()[4]
    forged = tsf_forge_subframes(aux, _tsf_cfg(forge_tags=False))
    for before, after in zip(aux, forged):
        tags_b, _ = unpack_mack(before.osnma[1], 6)
        tags_a, _ = unpack_mack(after.osnma[1], 6)
        assert tags_a == tags_b
        assert after.complete                  # CRCs still resealed


def test_tsf_last_two_subframes_untouched(wide_bundle):
    aux = wide_bundle.vectors.subframes()[5]
    forged = tsf_forge_subframes(aux, _tsf_cfg())
    # nav data of the final two subframes is never rewritten
    for before, after in zip(aux[-2:], forged[-2:]):
        assert subframe_nav_data(before) == subframe_nav_data(after)
    # the final subframe carries no replacement tags either: bit identical
    assert aux[-1].raws == forged[-1].raws


def _replace_nav(sf, nav_blob):
    hkroot, mack_blob = sf.osnma
    return build_subframes([(sf.gst, sf.prn, nav_blob, hkroot, mack_blob)])[0]


def _replace_mack(sf, mack_blob):
    hkroot, _ = sf.osnma
    return build_subframes([(sf.gst, sf.prn, subframe_nav_data(sf), hkroot,
                             mack_blob)])[0]


def _two_pass_forgery(aux, cfg):
    """Reference loop: rebuild subframe n around its forged nav data, then
    rebuild subframe n+1 around the new tags, one window at a time."""
    out = list(aux)
    for i in range(len(aux) - 2):
        forged_blob = forge_nav_blob(subframe_nav_data(out[i]), cfg)
        out[i] = _replace_nav(out[i], forged_blob)
        if not cfg.forge_tags:
            continue
        _, key_bits = unpack_mack(out[i + 2].osnma[1], cfg.seg_count)
        key = TeslaKey(key_bits, out[i + 2].gst)
        tags = generate_subframe_tags(forged_blob, key,
                                      prn_d=out[i].prn, prn_a=out[i].prn,
                                      gst_sf=out[i + 1].gst,
                                      seg_count=cfg.seg_count)
        _, own_key = unpack_mack(out[i + 1].osnma[1], cfg.seg_count)
        out[i + 1] = _replace_mack(out[i + 1], pack_mack(tags, own_key))
    return out


@pytest.mark.parametrize("forge_tags", [True, False])
@pytest.mark.parametrize("iono_a0", [0, 2047])
def test_tsf_matches_two_pass_reference(wide_bundle, forge_tags, iono_a0):
    """One build per forged subframe gives the subframes the window-by-window
    rebuild gives, on every satellite."""
    cfg = TsfConfig(forge_tags=forge_tags, iono_a0=iono_a0)
    for aux in wide_bundle.subframes.values():
        assert tsf_forge_subframes(aux, cfg) == _two_pass_forgery(aux, cfg)


@pytest.mark.parametrize("forge_tags", [True, False])
def test_tsf_seals_each_satellite_in_one_batch(wide_bundle, monkeypatch,
                                               forge_tags):
    """The rewritten subframes of one satellite are sealed in one kernel
    call: all but the last (with tags) or the last two (without)."""
    calls = []
    kernel = osnmasim.pages._crc_columns

    def counting(joined, lanes):
        calls.append(len(joined) // osnmasim.pages.PAGE_BYTES)
        return kernel(joined, lanes)

    monkeypatch.setattr(osnmasim.pages, "_crc_columns", counting)
    aux = wide_bundle.subframes[1]
    tsf_forge_subframes(aux, _tsf_cfg(forge_tags=forge_tags))
    assert calls == [15 * (len(aux) - (1 if forge_tags else 2))]


# -- concatenating replay --------------------------------------------------------


def _cr_events(bundle, delay_s, t_acq_s="0.6", onset_round=2):
    timing = CrTiming(replay_delay_ms=to_millis(delay_s),
                      t_acq_ms=to_millis(t_acq_s))
    return (shifted_stream(bundle.subframes),
            cr_compose(bundle.subframes, timing, onset_round=onset_round))


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
    assert onset_sf.destroyed_slots == (0,)
    for r in (3, 4, 5):
        sf = _round_subframe(merged, r, prn=1)
        assert sf.complete
        hkroot, _ = sf.osnma
        assert hkroot[0] == NMA_HEADER
        live_sf = _round_subframe(live, r, prn=1)
        assert sf.raws == live_sf.raws


def test_cr_late_takeover_shifts_one_page(small_bundle):
    """Takeover 0.1 s past the first page window: subsequent rounds carry a
    one-page shift and the HKROOT stream loses its header alignment."""
    live, merged = _cr_events(small_bundle, "1.5")
    onset_sf = _round_subframe(merged, 2, prn=1)
    assert onset_sf.destroyed_slots[:2] == (0, 1)
    for r in (3, 4, 5):
        sf = _round_subframe(merged, r, prn=1)
        assert sf.complete
        hkroot, _ = sf.osnma
        assert hkroot[0] != NMA_HEADER
        prev_hk, _ = _round_subframe(live, r - 1, prn=1).osnma
        this_hk, _ = _round_subframe(live, r, prn=1).osnma
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
    hkroot, _ = sf.osnma
    assert (hkroot[0] == NMA_HEADER) == aligned


def test_cr_preserves_page_bits(small_bundle):
    (_, live), (_, merged) = _cr_events(small_bundle, "1.5")
    rounds = range(len(small_bundle.subframes[1]))
    live_raws = {e.raw for r in rounds for evs in live(r).values() for e in evs}
    assert all(e.raw in live_raws
               for r in rounds for evs in merged(r).values() for e in evs)
