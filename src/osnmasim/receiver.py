"""The simulated victim receiver.

Drives the authentication pipeline round by round: time-synchronization
gate at power-on, root-key acquisition over HKROOT blocks, then the
rolling three-subframe window in which the navigation data of subframe i
is checked against the tags of subframe i+1 using the key disclosed in
subframe i+2.  A destroyed round discards the pipeline and suspends
authentication; three fresh complete subframes restore it without
re-verifying the root key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .gst import (
    Gst,
    LrtSource,
    SUBFRAME_SECONDS,
    TsPolicy,
    TsStartup,
    ts_startup,
)
from .mack import disclosed_key, unpack_mack, verify_tags
from .navdata import parse_nav_data
from .pages import SUBFRAME_MS, Subframe, assemble_rounds
from .tesla import (
    AlignmentError,
    DsmAccumulator,
    GstOrderError,
    TeslaKey,
    load_public_key_point,
    verify_key,
    verify_root,
)


class Status(Enum):
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

    def as_dict(self) -> dict:
        return {"gst": self.gst.as_dict(), "prn": self.prn,
                "outcome": self.outcome.value}


@dataclass
class ReceiverConfig:
    policy: TsPolicy
    pubkey: bytes                   # compressed P-256 point
    seg_count: int = 6
    key_reject_threshold: int = 1


@dataclass
class RoundResult:
    gst: Gst
    subframes: dict                 # prn -> Subframe
    navs: dict                      # prn -> NavFields, complete subframes
    verdicts: list = field(default_factory=list)
    authenticated: dict = field(default_factory=dict)   # prn -> NavFields


class Receiver:
    """Single-owner mutable receiver state; one instance per scenario."""

    def __init__(self, config: ReceiverConfig, lrt: LrtSource):
        self.config = config
        self.lrt = lrt
        self.status = Status.COLD_START
        self.trusted_key: TeslaKey | None = None
        self.pending: dict = {}          # prn -> (subframe, NavFields) window
        self.verdicts: list = []
        self.timeline: list = []
        self.deltas_ms: list = []
        self.rounds_ingested = 0
        self.key_rejections = 0
        self._dsm = DsmAccumulator()
        self._pubkey = load_public_key_point(config.pubkey)
        self._grid: tuple | None = None  # (first GST, its window start ms)
        self._note_status(None)

    # -- startup -----------------------------------------------------------

    def power_on(self, first_gst: Gst, true_ms: int) -> Status:
        """Run the TS gate against the first observed subframe boundary,
        and fix the round grid: round r is stamped first_gst + r * 30 s and
        its window starts at true_ms + r * 30 s."""
        self._grid = (first_gst, true_ms)
        decision = ts_startup(first_gst, self.lrt, self.config.policy, true_ms)
        if decision is TsStartup.OSNMA_START:
            self.status = Status.AWAITING_ROOT_KEY
        elif decision is TsStartup.ILLEGAL_SIGNAL:
            self.status = Status.TS_FAILED
        # CALIBRATE_LRT keeps the cold-start state: OSNMA never begins
        self._note_status(first_gst)
        return self.status

    # -- per-round processing ----------------------------------------------

    def ingest_round(self, events_by_prn: dict) -> RoundResult:
        """Assemble the next 30-s round per satellite and run the pipeline.

        events_by_prn maps each PRN to the page events it sent this round; a
        pending satellite that sends nothing still gets a destroyed round.
        The rounds are assembled together, every satellite's pages checked
        in one call.  navs holds each complete subframe's nav data, parsed
        once whatever the authentication status; only the OSNMA pipeline is
        gated on a successful TS startup.  authenticated holds, by PRN, the
        nav data of the subframe each authentic verdict names.
        """
        gst, window_start_ms = self._round_start()
        osnma_active = self.status not in (Status.COLD_START, Status.TS_FAILED)
        self.rounds_ingested += 1
        self._record_delta(gst, window_start_ms)
        prns = sorted(self.pending.keys() | events_by_prn.keys())
        subframes = assemble_rounds(events_by_prn, gst, prns, window_start_ms)
        result = RoundResult(gst, subframes, {
            prn: parse_nav_data(sf.nav_data)
            for prn, sf in subframes.items() if sf.complete})
        if not osnma_active:
            return result

        trusted_before = self.trusted_key
        advanced: TeslaKey | None = None
        for prn, sf in subframes.items():
            verdict, verified = self._process_subframe(
                sf, result.navs.get(prn), trusted_before)
            if verdict is not None:
                result.verdicts.append(verdict)
            if verified is not None:
                advanced, result.authenticated[prn] = verified
        if advanced is not None:
            self.trusted_key = advanced
        self.verdicts.extend(result.verdicts)
        return result

    def report(self) -> dict:
        return {
            "status": self.status.value,
            "timeline": [
                {"gst": g.as_dict() if g else None, "status": s.value}
                for g, s in self.timeline
            ],
            "verdicts": [v.as_dict() for v in self.verdicts],
            "gst_lrt_delta_ms": list(self.deltas_ms),
            "rounds": self.rounds_ingested,
        }

    # -- internals -----------------------------------------------------------

    def _note_status(self, gst):
        if not self.timeline or self.timeline[-1][1] is not self.status:
            self.timeline.append((gst, self.status))

    def _round_start(self) -> tuple:
        """The next round's GST and window start on the power-on grid."""
        if self._grid is None:
            raise RuntimeError("receiver was never powered on")
        first_gst, true_ms = self._grid
        r = self.rounds_ingested
        return first_gst.add_seconds(SUBFRAME_SECONDS * r), true_ms + r * SUBFRAME_MS

    def _record_delta(self, gst: Gst, window_start_ms: int) -> None:
        # compare at subframe completion: content GST end vs LRT reading
        lrt_ms = self.lrt.read(window_start_ms + SUBFRAME_MS)
        gst_end_ms = gst.total_millis() + SUBFRAME_MS
        self.deltas_ms.append(lrt_ms - gst_end_ms)

    def _process_subframe(self, sf: Subframe, nav, trusted_before) -> tuple:
        """The subframe's verdict, or None, and what its window verified."""
        prn = sf.prn
        if not sf.complete:
            self.pending.pop(prn, None)
            if self.status is Status.AUTHENTICATING:
                self.status = Status.SUSPENDED
                self._note_status(sf.gst)
            return AuthResult(sf.gst, prn, Outcome.DISCARDED_INCOMPLETE), None

        if self.trusted_key is None:
            self._feed_dsm(sf.osnma[0], sf.gst)

        window = self.pending.setdefault(prn, [])
        window.append((sf, nav))
        if len(window) > 3:
            window.pop(0)
        if self.status is Status.SPOOF_DETECTED or self.trusted_key is None \
                or len(window) < 3:
            return None, None
        return self._verify_triple(window, trusted_before or self.trusted_key)

    def _feed_dsm(self, hkroot: bytes, gst: Gst) -> None:
        msg = self._dsm.feed(hkroot)
        if msg is None:
            return
        if verify_root(msg.body, msg.signature, self._pubkey):
            self.trusted_key = msg.root_key
            if self.status is Status.AWAITING_ROOT_KEY:
                self.status = Status.AUTHENTICATING
                self._note_status(gst)
        else:
            self._dsm.reset()

    def _verify_triple(self, window, trusted: TeslaKey) -> tuple:
        """The data subframe's verdict and, when authentic, the key that
        verified it with the data's NavFields.  The window is one PRN's last
        three complete (subframe, NavFields): data i, tags i+1, key i+2."""
        (data_sf, data_nav), (tag_sf, _), (key_sf, _) = window
        gst, prn = data_sf.gst, data_sf.prn
        candidate = TeslaKey(disclosed_key(key_sf.osnma[1]), key_sf.gst)
        try:
            steps = verify_key(candidate, trusted)
        except (GstOrderError, AlignmentError):
            steps = None
        if steps is None:
            self.key_rejections += 1
            if self.key_rejections >= self.config.key_reject_threshold:
                self.status = Status.SPOOF_DETECTED
                self._note_status(gst)
            return AuthResult(gst, prn, Outcome.KEY_REJECTED), None

        _, tag_mack = tag_sf.osnma
        tags, _ = unpack_mack(tag_mack, self.config.seg_count)
        matches = verify_tags(data_sf.nav_data, tags, candidate,
                              prn_d=prn, prn_a=prn, gst_sf=tag_sf.gst,
                              seg_count=self.config.seg_count)
        if not all(matches):
            return AuthResult(gst, prn, Outcome.TAG_MISMATCH), None
        if self.status is Status.SUSPENDED:
            self.status = Status.AUTHENTICATING
            self._note_status(gst)
        return AuthResult(gst, prn, Outcome.AUTHENTIC), (candidate, data_nav)
