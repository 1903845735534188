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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CrTiming:
    replay_delay_ms: int
    t_acq_ms: int

    def __post_init__(self):
        if self.replay_delay_ms < 0 or self.t_acq_ms < 0:
            raise ValueError("timing parameters must be >= 0")


@dataclass(frozen=True)
class TsfConfig:
    seg_count: int = 6
    forge_tags: bool = True
    iono_a0: int = 0
    clock_bias_m: float = 0.0


def _pages(prn: int, sf, delay_ms: int, source: Source) -> list:
    """A subframe's pages as events, each delay_ms after its slot's GST."""
    base = sf.gst.total_millis() + delay_ms
    return [PageEvent(base + k * PAGE_MS, prn, source, raw)
            for k, raw in enumerate(sf.raws)]


def shifted_stream(subframes: dict, delay_ms: int = 0,
                   source: Source = Source.AUTHENTIC) -> tuple:
    """Every satellite's subframes, their pages delay_ms after their GST.

    Returns the first window start and the function of r that gives round
    r's events by PRN: each satellite's subframe r, bits untouched.
    """
    t0 = min(sfs[0].gst.total_millis() for sfs in subframes.values()) + delay_ms

    def round_events(r: int) -> dict:
        return {prn: _pages(prn, sfs[r], delay_ms, source)
                for prn, sfs in subframes.items() if r < len(sfs)}

    return t0, round_events


def replay_realtime(subframes: dict, delay_ms: int) -> tuple:
    """Record-and-replay with a fixed forwarding delay, bits untouched: the
    shifted stream of adversary pages."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return shifted_stream(subframes, delay_ms, Source.ADVERSARY)


def ntp_mitm_delay(source: LrtSource, delay_ms: int) -> LrtSource:
    """Delay NTP request packets: the victim's LRT reads behind true time."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return LrtSource(offset_ms=source.offset_ms - delay_ms,
                     error_bound_ms=source.error_bound_ms)


def forge_nav_blob(aux_blob: bytes, cfg: TsfConfig) -> bytes:
    """Forge the navigation data of one subframe.

    Identity, timing and ephemeris words are kept from the recorded
    subframe (touching the timing words would break key verification);
    the correction fields are rewritten to the attacker's values.
    """
    nav = parse_nav_data(aux_blob)
    return build_nav_data(wn=nav.wn, tow=nav.tow, prn=nav.prn,
                          sat_ecef_m=nav.sat_ecef_m,
                          clock_bias_m=cfg.clock_bias_m,
                          iono_a0=cfg.iono_a0)


def tsf_forge_subframes(aux: list, cfg: TsfConfig) -> list:
    """Forge one satellite's consecutive recorded subframes.

    Every subframe but the last two gets forged nav data; with forge_tags,
    mack.tag_stream rewrites the tags of subframes 1 .. n-2 under the keys
    the recorded subframes disclose.  The rewritten subframes are read in
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
    rewritten = n - 1 if cfg.forge_tags else n - 2
    navs, hkroots, macks = map(list, zip(*unpack_pages(sf.raws for sf in aux)))
    navs[:n - 2] = [forge_nav_blob(nav, cfg) for nav in navs[:n - 2]]
    if cfg.forge_tags:
        gsts = [sf.gst for sf in aux]
        keys = [TeslaKey(disclosed_key(m), g) for m, g in zip(macks, gsts)]
        macks[1:n - 1] = tag_stream(aux[0].prn, gsts, navs, keys,
                                    cfg.seg_count)
    return build_subframes((sf.gst, sf.prn, nav, hkroot, mack)
                           for sf, nav, hkroot, mack
                           in zip(aux[:rewritten], navs, hkroots, macks)) \
        + list(aux[rewritten:])


def _page(sfs, content: int) -> bytes:
    """Page content % 15 of subframe content // 15."""
    j, k = divmod(content, SLOTS_PER_SUBFRAME)
    return sfs[j].raws[k]


def cr_compose(subframes: dict, timing: CrTiming, onset_round: int = 0) -> tuple:
    """Splice a real-time replayed copy onto a tracked live stream.

    The replay begins replay_delay after the start of onset_round and the
    receiver needs t_acq to lock on.  Live pages overlapping the onset or
    anything after it are lost.  When the takeover lands inside (or exactly
    at the end of) the first page window, the replayed pages line up with
    the receiver's slot grid; a later takeover leaves every subsequent
    round carrying pages shifted by a whole number of slots.  Grid slot g
    starts 2 s * g after the first live page; from the first slot at or
    after the takeover on, slot g carries content g - shift, page
    (g - shift) % 15 of subframe (g - shift) // 15.

    Returns the first window start and the function of r that gives round
    r's events by PRN.  The windows sit on the subframe grid: window 0
    starts at the first subframe's GST, whether or not a live page is sent
    before the takeover.
    """
    start = min(sfs[0].gst.total_millis() for sfs in subframes.values())
    onset = start + onset_round * SUBFRAME_MS + timing.replay_delay_ms
    takeover = onset + timing.t_acq_ms
    offset_in_round = timing.replay_delay_ms + timing.t_acq_ms
    shift = 0 if offset_in_round <= PAGE_MS else offset_in_round // PAGE_MS
    live_end = (onset - start) // PAGE_MS     # live slots below it survive
    first_slot = -((start - takeover) // PAGE_MS)

    def round_events(r: int) -> dict:
        lo = r * SLOTS_PER_SUBFRAME
        hi = lo + SLOTS_PER_SUBFRAME
        out = {}
        for prn, sfs in subframes.items():
            total = len(sfs) * SLOTS_PER_SUBFRAME
            live = range(lo, min(hi, live_end, total))
            copy = range(max(lo, first_slot, shift), min(hi, total + shift))
            events = [PageEvent(start + g * PAGE_MS, prn, Source.AUTHENTIC,
                                _page(sfs, g)) for g in live] \
                + [PageEvent(start + g * PAGE_MS, prn, Source.ADVERSARY,
                             _page(sfs, g - shift)) for g in copy]
            if events:
                out[prn] = events
        return out

    return start, round_events
