"""A literal reference receiver: the OSNMA state machine read off a whole run.

The program's Receiver takes one round at a time and keeps a sliding
window of subframes per satellite.  This reference keeps no window: it
takes every round of a run at once and derives each verdict by index, the
three-subframe rule as written.  PRN p has a verdict at round r when its
subframes of rounds r-2, r-1 and r are all complete: the data of r-2 is
checked against the tags of r-1 under the key disclosed in r, and that key
against the one trusted at the start of round r (or, before the first
verified key, the root key acquired during round r).  Each satellite's
HKROOT blocks are accumulated apart, and a root message that fails its
signature, or whose root slot is no GST, drops only that satellite's
blocks.  The TS gate, the status rules and the destroyed-round rule are
spelled out here with no shortcut that depends on which statuses can
occur where.  Only the message-level checks are shared with the program:
verify_key, root_key, verify_tags, the HKROOT accumulator and the round
assembly of pages into subframes.
"""

from typing import NamedTuple

from osnmasim.gst import SymmetricBound
from osnmasim.mack import disclosed_key, unpack_mack, verify_tags
from osnmasim.navdata import parse_nav_data, subframe_nav_data
from osnmasim.pages import SUBFRAME_MS, assemble_round
from osnmasim.receiver import AuthResult, Outcome, Status
from osnmasim.tesla import (
    DsmAccumulator,
    TeslaKey,
    load_public_key_point,
    root_key,
    verify_key,
    verify_root,
)
from page_reference import osnma


class Run(NamedTuple):
    subframes: list       # per round: prn -> Subframe, in PRN order
    verdicts: list        # per round: AuthResults in PRN order
    authenticated: list   # per round: prn -> NavFields of authentic data
    statuses: list        # per round: the status once the round is done
    timeline: list        # (gst or None, Status) at every change


def startup_status(policy, lrt, gst0, t0) -> Status:
    """The TS gate at power-on: under a symmetric bound an LRT error bound
    wider than B leaves the receiver cold (the LRT needs calibrating);
    otherwise |LRT - GST| < B, or LRT - GST < T_L, starts OSNMA."""
    delta_ms = lrt.read(t0) - gst0.total_millis()
    if isinstance(policy, SymmetricBound):
        if lrt.error_bound_ms > policy.b_ms:
            return Status.COLD_START
        passed = -policy.b_ms < delta_ms < policy.b_ms
    else:
        passed = delta_ms < policy.t_l_ms
    return Status.AWAITING_ROOT_KEY if passed else Status.TS_FAILED


def assemble(events_by_round, gst0, t0, osnma_running) -> list:
    """Each round's subframes.  A PRN is assembled in round r when it sent
    pages in r or, with OSNMA running, its subframe of round r-1 was
    complete: a satellite being tracked that falls silent gets a destroyed
    round."""
    rounds = []
    for r, events in enumerate(events_by_round):
        tracked = set()
        if osnma_running and rounds:
            tracked = {p for p, sf in rounds[-1].items() if sf.complete}
        rounds.append({p: assemble_round(events.get(p, ()),
                                         gst0.add_seconds(30 * r), p,
                                         t0 + r * SUBFRAME_MS)
                       for p in sorted(events.keys() | tracked)})
    return rounds


def _outcome(data, tagged, keyed, trusted, seg_count) -> tuple:
    """The outcome for data's subframe and the key keyed discloses."""
    key = TeslaKey(disclosed_key(osnma(keyed)[1]), keyed.gst)
    if verify_key(key, trusted) is None:
        return Outcome.KEY_REJECTED, key
    tags = unpack_mack(osnma(tagged)[1], seg_count)
    if all(verify_tags(subframe_nav_data(data), tags, key.bits, prn_d=data.prn,
                       prn_a=data.prn, gst_sf=tagged.gst,
                       seg_count=seg_count)):
        return Outcome.AUTHENTIC, key
    return Outcome.TAG_MISMATCH, key


def run(policy, lrt, pubkey, gst0, t0, events_by_round, *, seg_count=6,
        key_reject_threshold=1) -> Run:
    """Every round's verdicts, authenticated data and status for a
    receiver with these settings, powered on at (gst0, t0) and fed
    events_by_round[r] (prn -> page events) as its round r."""
    timeline = [(None, Status.COLD_START)]

    def status():
        return timeline[-1][1]

    def enter(new, gst):
        if new is not status():
            timeline.append((gst, new))

    enter(startup_status(policy, lrt, gst0, t0), gst0)
    running = status() not in (Status.COLD_START, Status.TS_FAILED)
    rounds = assemble(events_by_round, gst0, t0, running)

    def complete(p, r):
        return r >= 0 and p in rounds[r] and rounds[r][p].complete

    pubkey = load_public_key_point(pubkey)
    dsms = {}               # prn -> its own DsmAccumulator
    trusted = None          # the key trusted at the start of the round
    rejections = 0
    out = Run(rounds, [], [], [], timeline)
    for r, subframes in enumerate(rounds):
        verdicts, authentic = [], {}
        root = newest = None
        for p, sf in subframes.items() if running else ():
            if not sf.complete:
                if status() is Status.AUTHENTICATING:
                    enter(Status.SUSPENDED, sf.gst)
                verdicts.append(
                    AuthResult(sf.gst, p, Outcome.DISCARDED_INCOMPLETE))
                continue
            if trusted is None and root is None:
                dsm = dsms.setdefault(p, DsmAccumulator())
                signed = dsm.feed(osnma(sf)[0])
                if signed is not None:
                    if verify_root(*signed, pubkey):
                        root = root_key(signed[0])
                    if root is None:
                        dsm.reset()
                    elif status() is Status.AWAITING_ROOT_KEY:
                        enter(Status.AUTHENTICATING, sf.gst)
            if status() is Status.SPOOF_DETECTED or (trusted or root) is None \
                    or not (complete(p, r - 2) and complete(p, r - 1)):
                continue
            data = rounds[r - 2][p]
            outcome, key = _outcome(data, rounds[r - 1][p], sf,
                                    trusted or root, seg_count)
            verdicts.append(AuthResult(data.gst, p, outcome))
            if outcome is Outcome.KEY_REJECTED:
                rejections += 1
                if rejections >= key_reject_threshold:
                    enter(Status.SPOOF_DETECTED, data.gst)
            elif outcome is Outcome.AUTHENTIC:
                newest = key
                authentic[p] = parse_nav_data(subframe_nav_data(data))
                if status() is Status.SUSPENDED:
                    enter(Status.AUTHENTICATING, data.gst)
        trusted = newest or trusted or root
        out.verdicts.append(verdicts)
        out.authenticated.append(authentic)
        out.statuses.append(status())
    return out
