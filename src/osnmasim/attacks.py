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

from .gst import LrtSource
from .mack import disclosed_key, generate_subframe_tags, pack_mack
from .navdata import (
    build_nav_data,
    build_subframe,
    parse_nav_data,
    subframe_nav_data,
)
from .pages import PAGE_MS, PageEvent, SUBFRAME_MS, Source
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
    target_ecef_m: tuple
    seg_count: int = 6
    forge_tags: bool = True
    iono_a0: int = 0
    clock_bias_m: float = 0.0


def replay_realtime(live, delay_ms: int) -> list:
    """Record-and-replay with a fixed forwarding delay, bits untouched."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return [
        PageEvent(t_ms=e.t_ms + delay_ms, prn=e.prn,
                  source=Source.ADVERSARY, raw=e.raw)
        for e in live
    ]


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
    """Run the continuous forgery loop over one satellite's subframes.

    For each window (n, n+1, n+2): replace the nav data of subframe n,
    recompute its tags under the key disclosed in subframe n+2 and
    overwrite the tag region of subframe n+1 (key bits preserved).  Every
    rewritten subframe is built and resealed once; the last subframe (the
    last two without tags) passes through untouched, so the whole output
    stream verifies.
    """
    n = len(aux)
    if n < TSF_MIN_SUBFRAMES:
        raise InsufficientAuxError(
            f"need at least {TSF_MIN_SUBFRAMES} consecutive subframes")
    rewritten = n - 1 if cfg.forge_tags else n - 2
    navs = [subframe_nav_data(sf) for sf in aux[:rewritten]]
    hkroots, macks = map(list, zip(*(sf.osnma for sf in aux)))
    for i in range(n - 2):
        navs[i] = forge_nav_blob(navs[i], cfg)
        if cfg.forge_tags:
            key = TeslaKey(disclosed_key(macks[i + 2]), aux[i + 2].gst)
            tags = generate_subframe_tags(navs[i], key, prn_d=aux[i].prn,
                                          prn_a=aux[i].prn,
                                          gst_sf=aux[i + 1].gst,
                                          seg_count=cfg.seg_count)
            macks[i + 1] = pack_mack(tags, disclosed_key(macks[i + 1]))
    return [build_subframe(sf.gst, sf.prn, nav, hkroot, mack)
            for sf, nav, hkroot, mack in zip(aux, navs, hkroots, macks)] \
        + list(aux[rewritten:])


def cr_compose(live, timing: CrTiming, onset_round: int = 0) -> list:
    """Merge a live stream with its real-time replayed copy.

    The replay begins replay_delay after the start of onset_round and the
    receiver needs t_acq to lock on.  Live pages overlapping the onset or
    anything after it are lost.  When the takeover lands inside (or exactly
    at the end of) the first page window, the replayed pages line up with
    the receiver's slot grid; a later takeover leaves every subsequent
    round carrying pages shifted by a whole number of slots.  The copy is
    live's pages, per satellite in live's order, re-slotted onto the grid.
    """
    live_sorted = sorted(live, key=lambda e: (e.t_ms, e.prn))
    if not live_sorted:
        return []
    start = live_sorted[0].t_ms              # slot 0 of the receiver's grid
    onset = start + onset_round * SUBFRAME_MS + timing.replay_delay_ms
    takeover = onset + timing.t_acq_ms
    offset_in_round = timing.replay_delay_ms + timing.t_acq_ms
    shift = 0 if offset_in_round <= PAGE_MS else offset_in_round // PAGE_MS

    out = [e for e in live_sorted if e.t_ms + PAGE_MS <= onset]

    # the replayed copy, ordered per satellite
    per_prn: dict = {}
    for e in live_sorted:
        per_prn.setdefault(e.prn, []).append(e)
    # first grid slot at or after the takeover
    first_slot = -((start - takeover) // PAGE_MS)
    for prn, stream in per_prn.items():
        for slot in range(first_slot, len(stream) + shift):
            content = slot - shift
            if 0 <= content < len(stream):
                out.append(PageEvent(t_ms=start + slot * PAGE_MS, prn=prn,
                                     source=Source.ADVERSARY,
                                     raw=stream[content].raw))
    return sorted(out, key=lambda e: (e.t_ms, e.prn))
