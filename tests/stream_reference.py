"""Whole-run page streams: the reference the per-round producers must match.

These are the earlier whole-stream forms of the attack streams, kept for
the tests only: every page event of the run in one sorted list, a replay
that copies it, a concatenating replay that merges and re-sorts it, and the
bucketing that cut it into receiver rounds.  ``run_scenario`` never builds
them.
"""

from osnmasim.pages import PAGE_MS, SUBFRAME_MS, PageEvent, Source


def live_events(subframes_by_prn: dict) -> list:
    """Authentic page events on the true clock, sorted by (time, PRN)."""
    events = []
    for prn, sf_list in sorted(subframes_by_prn.items()):
        for sf in sf_list:
            base = sf.gst.total_millis()
            for k, raw in enumerate(sf.raws):
                events.append(PageEvent(t_ms=base + k * PAGE_MS, prn=prn,
                                        source=Source.AUTHENTIC, raw=raw))
    return sorted(events, key=lambda e: (e.t_ms, e.prn))


def replay_realtime(live, delay_ms: int) -> list:
    """Record-and-replay with a fixed forwarding delay, bits untouched."""
    if delay_ms < 0:
        raise ValueError("delay must be >= 0")
    return [
        PageEvent(t_ms=e.t_ms + delay_ms, prn=e.prn,
                  source=Source.ADVERSARY, raw=e.raw)
        for e in live
    ]


def cr_compose(live, replay_delay_ms: int, t_acq_ms: int,
               onset_round: int) -> list:
    """Merge a live stream with its real-time replayed copy, re-slotted onto
    the receiver's grid from the first slot at or after the takeover."""
    live_sorted = sorted(live, key=lambda e: (e.t_ms, e.prn))
    if not live_sorted:
        return []
    start = live_sorted[0].t_ms              # slot 0 of the receiver's grid
    onset = start + onset_round * SUBFRAME_MS + replay_delay_ms
    takeover = onset + t_acq_ms
    offset_in_round = replay_delay_ms + t_acq_ms
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


def by_prn(events) -> dict:
    """Events grouped by PRN, each group in stream order."""
    groups: dict = {}
    for e in events:
        groups.setdefault(e.prn, []).append(e)
    return groups


def rounds(events, n_rounds: int, t0=None) -> tuple:
    """The first window start and each round's events grouped by PRN: the
    stream cut into 30-s windows from t0 on, by default its first event."""
    if t0 is None:
        t0 = min(e.t_ms for e in events)
    windows = [[] for _ in range(n_rounds)]
    for e in events:
        r = (e.t_ms - t0) // SUBFRAME_MS
        if r < n_rounds:
            windows[r].append(e)
    return t0, [by_prn(window) for window in windows]
