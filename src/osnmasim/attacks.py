"""Generators for the four spoofing attacks.

* real-time replay: shift a live stream by a delay, bit-identical content;
* non-real-time replay: the same delayed replay with the delay set to the
  capture's staleness, plus an NTP man-in-the-middle delay that drags the
  victim's reference time back to the capture epoch;
* forgery: rewrite navigation data inside recorded subframes, recompute
  tags with the key disclosed two subframes later, reseal page CRCs, keys
  untouched;
* concatenating replay: overpower a tracking receiver mid-round and splice
  a real-time copy onto its page stream, aligned or shifted depending on
  where the takeover lands inside the 2-second first-page window.

Each attack's page events are legs on one 2-second slot grid, made by
slot_stream alone.
"""

from __future__ import annotations

import math

from .gst import SUBFRAME_SECONDS, LrtSource
from .mack import disclosed_key, tag_stream
from .navdata import build_nav_data, parse_nav_data
from .pages import (
    PAGE_MS,
    PageEvent,
    SLOTS_PER_SUBFRAME,
    SUBFRAME_MS,
    Source,
    build_subframes,
    unpack_pages,
)
from .tesla import TeslaKey


# a forged window is (data, tags, disclosed key): three consecutive subframes
TSF_MIN_SUBFRAMES = 3


class InsufficientAuxError(ValueError):
    """Forgery needs at least three consecutive recorded subframes."""


def slot_stream(subframes: dict, delay_ms: int, legs) -> tuple:
    """Every satellite's page events on one grid of 2-second slots.

    Slot g starts at t0 + 2 s * g, t0 being the first subframe's GST plus
    delay_ms; every stream's subframes are consecutive from that GST.  A
    leg (source, first_slot, end_slot, shift) sends from source, in each
    slot g of [first_slot, end_slot), page (g - shift) % 15 of subframe
    (g - shift) // 15 where that subframe exists, bits untouched.

    Returns t0, the first window start, and the function of r that gives
    round r's events, slots 15r .. 15r + 14, by PRN: leg after leg, a PRN
    with no page left out.
    """
    t0 = min(sfs[0].gst.total_millis() for sfs in subframes.values()) + delay_ms

    def round_events(r: int) -> dict:
        lo = r * SLOTS_PER_SUBFRAME
        hi = lo + SLOTS_PER_SUBFRAME
        out = {}
        for prn, sfs in subframes.items():
            events = []
            for source, first, end, shift in legs:
                g0 = max(lo, first, shift)
                g1 = min(hi, end, len(sfs) * SLOTS_PER_SUBFRAME + shift)
                j, k = divmod(g0 - shift, SLOTS_PER_SUBFRAME)
                # a round's slots span two subframes at most
                raws = [raw for sf in sfs[j:j + 2] for raw in sf.raws][k:]
                events += [PageEvent(t_ms, prn, source, raw)
                           for t_ms, raw in zip(range(t0 + g0 * PAGE_MS,
                                                      t0 + g1 * PAGE_MS,
                                                      PAGE_MS), raws)]
            if events:
                out[prn] = events
        return out

    return t0, round_events


def shifted_stream(subframes: dict, delay_ms: int = 0,
                   source: Source = Source.AUTHENTIC) -> tuple:
    """Each subframe's pages delay_ms after their GST: one leg, no shift."""
    return slot_stream(subframes, delay_ms, ((source, 0, math.inf, 0),))


def replay_realtime(subframes: dict, delay_ms: int) -> tuple:
    """The shifted stream of adversary pages: record and replay with a
    fixed forwarding delay."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return shifted_stream(subframes, delay_ms, Source.ADVERSARY)


def ntp_mitm_delay(source: LrtSource, delay_ms: int) -> LrtSource:
    """Delay NTP request packets: the victim's LRT reads behind true time."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return LrtSource(offset_ms=source.offset_ms - delay_ms,
                     error_bound_ms=source.error_bound_ms)


def forge_nav_blob(aux_blob: bytes, iono_a0: int,
                   clock_bias_m: float) -> bytes:
    """Forge the navigation data of one subframe.

    Identity, timing and ephemeris words are kept from the recorded
    subframe (touching the timing words would break key verification);
    the correction fields are rewritten to the attacker's values.
    """
    nav = parse_nav_data(aux_blob)
    return build_nav_data(wn=nav.wn, tow=nav.tow, prn=nav.prn,
                          sat_ecef_m=nav.sat_ecef_m,
                          clock_bias_m=clock_bias_m, iono_a0=iono_a0)


def tsf_forge_subframes(aux: list, *, seg_count: int, forge_tags: bool,
                        iono_a0: int, clock_bias_m: float) -> list:
    """Forge one satellite's consecutive recorded subframes.

    Every subframe but the last two gets forged nav data, its corrections
    rewritten to iono_a0 and clock_bias_m; with forge_tags, mack.tag_stream
    rewrites the seg_count tags of subframes 1 .. n-2 under the keys the
    recorded subframes disclose.  The rewritten subframes are read in
    one unpack_pages call and packed and sealed in one; the rest pass
    through untouched, so the whole output stream verifies.  A gap in
    aux's GSTs raises InsufficientAuxError naming the satellite and the
    first missing GST.
    """
    n = len(aux)
    if n < TSF_MIN_SUBFRAMES:
        raise InsufficientAuxError(
            f"need at least {TSF_MIN_SUBFRAMES} consecutive subframes")
    for sf, following in zip(aux, aux[1:]):
        expected = sf.gst.add_seconds(SUBFRAME_SECONDS)
        if following.gst != expected:
            raise InsufficientAuxError(
                f"prn {sf.prn}: subframe at wn {expected.wn} tow "
                f"{expected.tow} is missing; forgery needs consecutive "
                f"subframes")
    rewritten = n - 1 if forge_tags else n - 2
    navs, hkroots, macks = map(list, zip(*unpack_pages(sf.raws for sf in aux)))
    navs[:n - 2] = [forge_nav_blob(nav, iono_a0, clock_bias_m)
                    for nav in navs[:n - 2]]
    if forge_tags:
        gsts = [sf.gst for sf in aux]
        keys = [TeslaKey(disclosed_key(m), g) for m, g in zip(macks, gsts)]
        macks[1:n - 1] = tag_stream(aux[0].prn, gsts, navs, keys, seg_count)
    return build_subframes((sf.gst, sf.prn, nav, hkroot, mack)
                           for sf, nav, hkroot, mack
                           in zip(aux[:rewritten], navs, hkroots, macks)) \
        + list(aux[rewritten:])


def cr_compose(subframes: dict, replay_delay_ms: int, t_acq_ms: int,
               onset_round: int) -> tuple:
    """Splice a real-time replayed copy onto a tracked live stream.

    The replay begins replay_delay_ms after the start of onset_round and
    the receiver needs t_acq_ms to lock on; a negative time raises
    ValueError naming it.  Two legs on the live grid: live pages up to the
    onset (a page overlapping it is lost), then the copy from the first
    slot at or after the takeover.  A takeover inside (or exactly at the
    end of) a round's first page lines the copy up with the grid; a later
    one shifts it by the delay plus t_acq_ms in whole slots.
    """
    for name, ms in (("replay_delay_ms", replay_delay_ms),
                     ("t_acq_ms", t_acq_ms)):
        if ms < 0:
            raise ValueError(f"{name} {ms} must be >= 0")
    offset = replay_delay_ms + t_acq_ms                   # into onset_round
    shift = 0 if offset <= PAGE_MS else offset // PAGE_MS
    onset = onset_round * SUBFRAME_MS + replay_delay_ms
    takeover = onset + t_acq_ms
    return slot_stream(subframes, 0, (
        (Source.AUTHENTIC, 0, onset // PAGE_MS, 0),
        (Source.ADVERSARY, -(-takeover // PAGE_MS), math.inf, shift)))
