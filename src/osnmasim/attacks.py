"""Generators for the four spoofing attacks.

* real-time replay: shift a live stream by a delay, bit-identical content;
* non-real-time replay: the same delayed replay with the delay set to the
  capture's staleness, plus an NTP man-in-the-middle delay that drags the
  victim's reference time back to the capture epoch;
* forgery: rewrite navigation data inside recorded subframes, recompute
  tags with the key bytes disclosed two subframes later, reseal page CRCs,
  keys untouched;
* concatenating replay: overpower a tracking receiver mid-round and splice
  a real-time copy onto its page stream, aligned or shifted depending on
  where the takeover lands inside the 2-second first-page window.

Each attack's page events are legs on one 2-second slot grid, made by
slot_stream alone.
"""

from __future__ import annotations

import math

from .gst import LrtSource
from .mack import disclosed_key, tag_stream
from .navdata import CORRECTIONS, MM_PER_M, NAV_BITS
from .pages import (
    NAV_BYTES,
    PAGE_BYTES,
    PAGE_MS,
    PageEvent,
    SLOTS_PER_SUBFRAME,
    SUBFRAME_MS,
    Source,
    Stream,
    pack_fields,
    seal_pages,
)


# a forged window is (data, tags, disclosed key): three consecutive subframes
TSF_MIN_SUBFRAMES = 3


def slot_stream(streams: dict, delay_ms: int, legs) -> tuple:
    """Every satellite's page events on one grid of 2-second slots.

    Slot g starts at t0 + 2 s * g, t0 being the first subframe's GST plus
    delay_ms; every stream starts at that GST.  A leg (source, first_slot,
    end_slot, shift) sends from source, in each slot g of [first_slot,
    end_slot), page g - shift of the stream, page (g - shift) % 15 of
    subframe (g - shift) // 15, where that page exists, bits untouched.

    Returns t0, the first window start, and the function of r that gives
    round r's events, slots 15r .. 15r + 14, by PRN: one event per leg
    that sends in the round, its pages back to back from its first slot,
    leg after leg, a PRN with no page left out.  A round's pages are cut
    from the streams' bytes when it is asked for.
    """
    t0 = min(s.gst.total_millis() for s in streams.values()) + delay_ms

    def round_events(r: int) -> dict:
        lo = r * SLOTS_PER_SUBFRAME
        hi = lo + SLOTS_PER_SUBFRAME
        out = {}
        for prn, stream in streams.items():
            events = []
            for source, first, end, shift in legs:
                g0 = max(lo, first, shift)
                g1 = min(hi, end, len(stream.pages) // PAGE_BYTES + shift)
                if g0 < g1:
                    events.append(PageEvent(
                        t0 + g0 * PAGE_MS, prn, source,
                        stream.pages[PAGE_BYTES * (g0 - shift):
                                     PAGE_BYTES * (g1 - shift)]))
            if events:
                out[prn] = events
        return out

    return t0, round_events


def shifted_stream(streams: dict) -> tuple:
    """The live stream: each subframe's authentic pages at their GST."""
    return slot_stream(streams, 0, ((Source.AUTHENTIC, 0, math.inf, 0),))


def replay_realtime(streams: dict, delay_ms: int) -> tuple:
    """Record and replay with a fixed forwarding delay: one leg of
    adversary pages, each subframe's delay_ms after its GST."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return slot_stream(streams, delay_ms,
                       ((Source.ADVERSARY, 0, math.inf, 0),))


def ntp_mitm_delay(source: LrtSource, delay_ms: int) -> LrtSource:
    """Delay NTP request packets: the victim's LRT reads behind true time."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return LrtSource(offset_ms=source.offset_ms - delay_ms,
                     error_bound_ms=source.error_bound_ms)


def forge_nav_blob(aux_blob: bytes, iono_a0: int,
                   clock_bias_m: float) -> bytes:
    """Forge the navigation data of one subframe: its correction fields,
    clock_bias_m and iono_a0, rewritten over the recorded blob, every other
    bit kept (touching the timing words would break key verification).  A
    value outside its field raises ValueError naming it."""
    if len(aux_blob) != NAV_BYTES:
        raise ValueError(f"nav blob must be {NAV_BYTES} bytes")
    return pack_fields(CORRECTIONS, NAV_BITS, (
        round(clock_bias_m * MM_PER_M), iono_a0), int.from_bytes(
        aux_blob, "big")).to_bytes(NAV_BYTES, "big")


def tsf_forge_subframes(stream: Stream, *, seg_count: int, forge_tags: bool,
                        iono_a0: int, clock_bias_m: float) -> Stream:
    """Forge one satellite's recorded stream.

    Every subframe but the last two gets forged nav data, its corrections
    rewritten to iono_a0 and clock_bias_m; with forge_tags, mack.tag_stream
    rewrites the seg_count tags of subframes 1 .. n-2 under the key bytes
    the recorded subframes disclose.  The stream is read in one pass, and the
    blobs are written over its pages and sealed in one, so every other bit
    stays as recorded and the whole forged stream, one buffer, verifies.
    """
    n = len(stream)
    if n < TSF_MIN_SUBFRAMES:
        raise ValueError(
            f"need at least {TSF_MIN_SUBFRAMES} consecutive subframes")
    navs, hkroots, macks = map(list, zip(*stream.blobs()))
    navs[:n - 2] = [forge_nav_blob(nav, iono_a0, clock_bias_m)
                    for nav in navs[:n - 2]]
    if forge_tags:
        macks[1:n - 1] = tag_stream(stream.prn, stream.gsts(), navs,
                                    list(map(disclosed_key, macks)), seg_count)
    return Stream(stream.gst, stream.prn,
                  seal_pages(zip(navs, hkroots, macks), stream.pages))


def cr_compose(streams: dict, replay_delay_ms: int, t_acq_ms: int,
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
    return slot_stream(streams, 0, (
        (Source.AUTHENTIC, 0, onset // PAGE_MS, 0),
        (Source.ADVERSARY, -(-takeover // PAGE_MS), math.inf, shift)))
