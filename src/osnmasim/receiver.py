"""The simulated victim receiver.

A Receiver is made powered on: its constructor runs the time-
synchronization gate and fixes the round grid.  It then drives the
authentication pipeline round by round: root-key acquisition over HKROOT
blocks, then the rolling three-subframe window in which the navigation
data of subframe i is checked against the tags of subframe i+1 using the
key disclosed in subframe i+2.  A destroyed round discards the pipeline
and suspends authentication; three fresh complete subframes restore it
without re-verifying the root key.  Each round's verdicts, status changes
and GST-LRT delta leave in its RoundResult: the receiver keeps only what
it decides with.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .gst import (
    Gst,
    LrtSource,
    SUBFRAME_SECONDS,
    SymmetricBound,
    TsPolicy,
    check_time_sync,
)
from .mack import DEFAULT_SEG_COUNT, disclosed_key, unpack_mack, verify_tags
from .navdata import parse_nav_data
from .pages import SUBFRAME_MS, assemble_rounds
from .tesla import (
    DsmAccumulator,
    TeslaKey,
    load_public_key_point,
    root_key,
    verify_key,
    verify_root,
)


class Status(Enum):
    """AUTHENTICATING means the chain key verifies (the root key's signature
    held, and fewer than key_reject_threshold keys were rejected), not that
    any nav data was authenticated: the verdicts (tag_mismatch, key_rejected)
    and the run's exit code 2 say whether the data failed."""

    COLD_START = "cold_start"
    TS_FAILED = "ts_failed"
    AWAITING_ROOT_KEY = "awaiting_root_key"
    AUTHENTICATING = "authenticating"
    SUSPENDED = "suspended"
    SPOOF_DETECTED = "spoof_detected"


class Outcome(Enum):
    AUTHENTIC = "authentic"
    KEY_REJECTED = "key_rejected"
    TAG_MISMATCH = "tag_mismatch"
    DISCARDED_INCOMPLETE = "discarded_incomplete"


@dataclass(frozen=True)
class AuthResult:
    gst: Gst
    prn: int
    outcome: Outcome


@dataclass
class RoundResult:
    gst: Gst                        # the round's slot on the power-on grid
    navs: dict                      # prn -> NavFields, complete subframes
    delta_ms: int                   # LRT - GST at the subframe's completion
    changes: list = field(default_factory=list)         # (gst or None, Status)
    verdicts: list = field(default_factory=list)        # AuthResults
    authenticated: dict = field(default_factory=dict)   # prn -> NavFields
    authenticated_gst: Gst | None = None    # of the data authenticated


class Receiver:
    """Single-owner mutable receiver state, made powered on at its first
    subframe boundary; one instance per scenario.  pubkey is the root
    public key as a compressed P-256 point."""

    def __init__(self, policy: TsPolicy, lrt: LrtSource, pubkey: bytes,
                 first_gst: Gst, true_ms: int, *,
                 seg_count: int = DEFAULT_SEG_COUNT,
                 key_reject_threshold: int = 1):
        """Power on: run the TS gate against the first observed subframe
        boundary, and fix the round grid: round r is stamped first_gst +
        r * 30 s and its window starts at true_ms + r * 30 s.  An LRT error
        bound wider than a SymmetricBound's B keeps COLD_START: the LRT
        needs calibrating first, and OSNMA never begins."""
        self.lrt = lrt
        self.seg_count = seg_count
        self.key_reject_threshold = key_reject_threshold
        self.trusted_key: TeslaKey | None = None
        self.pending: dict = {}     # prn -> deque of (gst, nav, mack, NavFields)
        self.key_rejections = 0
        self.status = Status.COLD_START
        self._changes = [(None, Status.COLD_START)]  # for the next result
        self._dsm: dict = {}             # prn -> DsmAccumulator
        self._pubkey = load_public_key_point(pubkey)
        self._next = (first_gst, true_ms)  # next round: GST, window start
        if not (isinstance(policy, SymmetricBound)
                and lrt.error_bound_ms > policy.b_ms):
            passed = check_time_sync(first_gst, lrt.read(true_ms), policy)
            self._enter(Status.AWAITING_ROOT_KEY if passed
                        else Status.TS_FAILED, first_gst)

    def ingest_round(self, events_by_prn: dict) -> RoundResult:
        """Assemble the next 30-s round per satellite and run the pipeline.

        events_by_prn maps each PRN to the page events it sent this round; a
        pending satellite that sends nothing still gets a destroyed round.
        navs holds each complete subframe's nav data, parsed once whatever
        the status; only the OSNMA pipeline is gated on a successful TS
        startup.  authenticated holds, by PRN, the nav data of the subframe
        each authentic verdict names, and authenticated_gst its GST.
        changes holds the status changes since the previous round, round
        0's opening with cold start and the TS gate's."""
        gst, window_start_ms = self._next
        self._next = (gst.add_seconds(SUBFRAME_SECONDS),
                      window_start_ms + SUBFRAME_MS)
        prns = sorted(self.pending.keys() | events_by_prn.keys())
        blobs = assemble_rounds(events_by_prn, prns, window_start_ms)
        result = RoundResult(gst, {
            prn: parse_nav_data(nav) for prn, (nav, _, _) in blobs.items()},
            # compare at subframe completion: content GST end vs LRT reading
            self.lrt.read(window_start_ms + SUBFRAME_MS)
            - gst.total_millis() - SUBFRAME_MS)
        running = self.status not in (Status.COLD_START, Status.TS_FAILED)

        # windows verify against the key trusted at the round's start, or the
        # root key acquired in it; the newest authentic key is trusted next
        advanced: TeslaKey | None = None
        for prn in prns if running else ():
            if prn not in blobs:
                self.pending.pop(prn, None)
                if self.status is Status.AUTHENTICATING:
                    self._enter(Status.SUSPENDED, gst)
                result.verdicts.append(
                    AuthResult(gst, prn, Outcome.DISCARDED_INCOMPLETE))
                continue
            nav, hkroot, mack = blobs[prn]
            if self.trusted_key is None:
                self._feed_dsm(prn, hkroot, gst)
            window = self.pending.setdefault(prn, deque(maxlen=3))
            window.append((gst, nav, mack, result.navs[prn]))
            if self.status is Status.SPOOF_DETECTED \
                    or self.trusted_key is None or len(window) < 3:
                continue
            verdict, key = self._verify_triple(prn, window)
            result.verdicts.append(verdict)
            if key is not None:
                advanced = key
                result.authenticated[prn] = window[0][3]
                result.authenticated_gst = verdict.gst
        if advanced is not None:
            self.trusted_key = advanced
        result.changes, self._changes = self._changes, []
        return result

    # -- internals -----------------------------------------------------------

    def _enter(self, status: Status, gst) -> None:
        """The one status setter: a change is kept for the next result."""
        if status is not self.status:
            self.status = status
            self._changes.append((gst, status))

    def _feed_dsm(self, prn: int, hkroot: bytes, gst: Gst) -> None:
        """Fed only in AWAITING_ROOT_KEY.  Each satellite's blocks are
        accumulated apart, and a root message is parsed only once its bytes
        verify under the public key: a bad signature, or a root slot that
        is no GST, drops only that satellite's blocks."""
        dsm = self._dsm.setdefault(prn, DsmAccumulator())
        signed = dsm.feed(hkroot)
        if signed is None:
            return
        key = verify_root(*signed, self._pubkey) and root_key(signed[0])
        if key:
            self.trusted_key = key
            self._enter(Status.AUTHENTICATING, gst)
        else:
            dsm.reset()

    def _verify_triple(self, prn: int, window) -> tuple:
        """The data subframe's verdict and, when authentic, the key that
        verified it.  The window is prn's last three complete subframes,
        data i, tags i+1, key i+2, each as (GST, nav, MACK, NavFields)."""
        (gst, nav, _, _), (tag_gst, _, tags, _), (key_gst, _, key, _) = window
        candidate = TeslaKey(disclosed_key(key), key_gst)
        if verify_key(candidate, self.trusted_key) is None:
            self.key_rejections += 1
            if self.key_rejections >= self.key_reject_threshold:
                self._enter(Status.SPOOF_DETECTED, gst)
            return AuthResult(gst, prn, Outcome.KEY_REJECTED), None

        if not all(verify_tags(nav, unpack_mack(tags, self.seg_count),
                               candidate.bits, prn_d=prn, prn_a=prn,
                               gst_sf=tag_gst, seg_count=self.seg_count)):
            return AuthResult(gst, prn, Outcome.TAG_MISMATCH), None
        # verified only while AUTHENTICATING or SUSPENDED: this resumes
        self._enter(Status.AUTHENTICATING, gst)
        return AuthResult(gst, prn, Outcome.AUTHENTIC), candidate
