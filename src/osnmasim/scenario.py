"""Scenario configuration, synthetic constellation generation, end-to-end
execution and report emission.

A scenario file is a JSON object naming a synthetic constellation (seed,
satellite count, subframe count, start GST, receiver site), the receiver
setup (TS policy, LRT offset, tag geometry) and one attack.  Reports are
JSON and deterministic for a given scenario, so fixtures can be diffed
byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from . import attacks
from .gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SUBFRAME_SECONDS,
    SymmetricBound,
    to_millis,
)
from .mack import pack_mack, generate_subframe_tags
from .navdata import build_nav_data, parse_nav_data, subframe_nav_data, build_subframe
from .pages import PAGE_MS, PageEvent, SUBFRAME_MS, Source, encode_page
from .positioning import (
    NoConvergenceError,
    SatState,
    SingularGeometryError,
    forge_pseudoranges,
    geodetic_to_ecef,
    solve_position,
)
from .receiver import Outcome, Receiver, ReceiverConfig
from .tesla import (
    NMA_HEADER,
    RootKeyMessage,
    TeslaChain,
    build_root_message,
    dsm_hkroot_blocks,
    generate_keypair,
    public_key_pem,
    sign_root,
)
from .vectors import TestVectorSet

DEFAULT_SITE = (45.0, 7.6, 240.0)          # lat deg, lon deg, height m
DEFAULT_GST0 = Gst(1251, 277200)

_FAILURE_OUTCOMES = (Outcome.KEY_REJECTED, Outcome.TAG_MISMATCH)


@dataclass
class ConstellationBundle:
    subframes: dict                       # prn -> sealed subframes by GST
    chain: TeslaChain
    root_msg: RootKeyMessage
    private_key: object
    public_key: object
    sat_states: dict                      # prn -> SatState
    receiver_ecef: tuple
    gst0: Gst                             # GST of the first subframe
    n_subframes: int

    @cached_property
    def vectors(self) -> TestVectorSet:
        """The subframes as a vector set, encoded on first access."""
        return TestVectorSet.from_subframes(self.subframes)

    @property
    def pubkey_pem(self) -> str:
        return public_key_pem(self.public_key)

    def chain_json(self) -> dict:
        return {
            "gst0": self.chain.gst0.as_dict(),
            "delta_t": self.chain.delta_t,
            "n": self.chain.n,
            "seed_hex": self.chain.seed.bits.hex(),
            "root_hex": self.chain.root.bits.hex(),
            "pubkey_pem": self.pubkey_pem,
        }


def _sky_direction(lat_deg, lon_deg, az_deg, el_deg):
    """Unit ECEF vector for an azimuth/elevation seen from a site."""
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    az, el = math.radians(az_deg), math.radians(el_deg)
    east = (-math.sin(lon), math.cos(lon), 0.0)
    north = (-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon),
             math.cos(lat))
    up = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
          math.sin(lat))
    ce, cn, cu = (math.cos(el) * math.sin(az), math.cos(el) * math.cos(az),
                  math.sin(el))
    return tuple(ce * e + cn * n + cu * u for e, n, u in zip(east, north, up))


def generate_synthetic_constellation(seed: int, n_sats: int, n_subframes: int,
                                     gst0: Gst = DEFAULT_GST0,
                                     site=DEFAULT_SITE,
                                     seg_count: int = 6) -> ConstellationBundle:
    """Build an internally consistent vector set.

    Chain keys ride in MACK, tags verify, the signed root message cycles
    through HKROOT blocks, and every page seals with a valid CRC, so a
    no-attack run over the output authenticates end to end.
    """
    if n_sats < 4:
        raise ValueError("need at least four satellites")
    if gst0.total_seconds() < SUBFRAME_SECONDS:
        raise ValueError("first subframe must leave room for the root slot")
    rng = random.Random(seed)
    recv_ecef = geodetic_to_ecef(*site)

    sat_states = {}
    iono_a0 = {}
    clock_bias_m = {}
    for prn in range(1, n_sats + 1):
        direction = _sky_direction(site[0], site[1],
                                   rng.uniform(0.0, 360.0),
                                   rng.uniform(20.0, 80.0))
        rng_m = rng.uniform(22e6, 27e6)
        pos = tuple(r + rng_m * d for r, d in zip(recv_ecef, direction))
        # quantize to the nav-data grid so broadcast and truth agree exactly
        pos = tuple(round(c * 1000) / 1000 for c in pos)
        sat_states[prn] = SatState(prn=prn, position=pos)
        iono_a0[prn] = rng.randint(10, 300)
        clock_bias_m[prn] = round(rng.uniform(-150.0, 150.0), 3)

    gst_root = gst0.add_seconds(-SUBFRAME_SECONDS)
    chain = TeslaChain.generate(rng.randbytes(16), n_subframes + 2, gst_root)
    private_key, public_key = generate_keypair(rng.getrandbits(256))
    body = build_root_message(NMA_HEADER, 0, gst_root.wn, gst_root.tow,
                              chain.root.bits)
    root_msg = RootKeyMessage(
        nma_header=NMA_HEADER, mf=0, wnk=gst_root.wn, towk=gst_root.tow,
        kroot=chain.root.bits, signature=sign_root(body, private_key))
    hk_blocks = dsm_hkroot_blocks(root_msg)

    subframes: dict = {prn: [] for prn in sat_states}
    nav_blobs: dict = {}
    for j in range(n_subframes):
        gst_j = gst0.add_seconds(SUBFRAME_SECONDS * j)
        for prn, sat in sat_states.items():
            blob = build_nav_data(gst_j.wn, gst_j.tow, prn, sat.position,
                                  clock_bias_m[prn], iono_a0[prn])
            nav_blobs[(j, prn)] = blob
            if j == 0:
                tags = []
            else:
                key = chain.key_at(j + 2)          # disclosed in subframe j+1
                tags = generate_subframe_tags(
                    nav_blobs[(j - 1, prn)], key, prn_d=prn, prn_a=prn,
                    gst_sf=gst_j, seg_count=seg_count)
            mack_blob = pack_mack(tags, chain.key_at(j + 1).bits)
            subframes[prn].append(
                build_subframe(gst_j, prn, blob,
                               hk_blocks[j % len(hk_blocks)], mack_blob))

    return ConstellationBundle(
        subframes=subframes,
        chain=chain, root_msg=root_msg,
        private_key=private_key, public_key=public_key,
        sat_states=sat_states, receiver_ecef=recv_ecef,
        gst0=gst0, n_subframes=n_subframes)


# -- scenario configuration --------------------------------------------------


@dataclass
class Scenario:
    name: str
    seed: int
    n_sats: int
    n_subframes: int
    gst0: Gst
    site: tuple
    policy: object
    lrt_offset_ms: int
    lrt_error_bound_ms: int
    seg_count: int
    key_reject_threshold: int
    attack: dict
    duration_rounds: int
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        con = cfg.get("constellation", {})
        rcv = cfg.get("receiver", {})
        pol = rcv.get("policy", {"type": "alternate", "t_l_s": 30})
        if pol["type"] == "alternate":
            policy = AlternateThreshold(to_millis(pol.get("t_l_s", 30)))
        elif pol["type"] == "symmetric":
            policy = SymmetricBound(to_millis(pol.get("b_s", 15)))
        else:
            raise ValueError(f"unknown policy type {pol['type']!r}")
        site_cfg = con.get("receiver", {})
        site = (site_cfg.get("lat_deg", DEFAULT_SITE[0]),
                site_cfg.get("lon_deg", DEFAULT_SITE[1]),
                site_cfg.get("height_m", DEFAULT_SITE[2]))
        n_subframes = con.get("subframes", 14)
        return cls(
            name=cfg.get("name", "unnamed"),
            seed=cfg.get("seed", 0),
            n_sats=con.get("sats", 8),
            n_subframes=n_subframes,
            gst0=Gst(con.get("wn", DEFAULT_GST0.wn),
                     con.get("tow", DEFAULT_GST0.tow)),
            site=site,
            policy=policy,
            lrt_offset_ms=to_millis(rcv.get("lrt_offset_s", 0)),
            lrt_error_bound_ms=to_millis(rcv.get("lrt_error_bound_s", 0)),
            seg_count=rcv.get("seg_count", 6),
            key_reject_threshold=rcv.get("key_reject_threshold", 1),
            attack=cfg.get("attack", {"type": "none"}),
            duration_rounds=min(cfg.get("duration_rounds", n_subframes),
                                n_subframes),
            raw=cfg,
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def live_events(subframes_by_prn: dict) -> list:
    """Authentic page events on the true clock (arrival time == GST)."""
    events = []
    for prn, sf_list in sorted(subframes_by_prn.items()):
        for sf in sf_list:
            base = sf.gst.total_millis()
            for k, page in enumerate(sf.pages):
                events.append(PageEvent(t_ms=base + k * PAGE_MS, prn=prn,
                                        source=Source.AUTHENTIC,
                                        raw=encode_page(page)))
    return sorted(events, key=lambda e: (e.t_ms, e.prn))


def _observations(subframes_by_prn: dict, receiver_pos, t_r: float = 0.0) -> dict:
    """Pseudorange observations keyed by (gst seconds, prn).

    Ranges are composed from the broadcast (quantized) satellite states and
    correction fields, so a receiver applying the same corrections recovers
    receiver_pos exactly.
    """
    obs = {}
    for prn, sf_list in subframes_by_prn.items():
        for sf in sf_list:
            nav = parse_nav_data(subframe_nav_data(sf))
            sat = SatState(prn=prn, position=nav.sat_ecef_m)
            rho = forge_pseudoranges(receiver_pos, t_r, [sat])[0]
            obs[(sf.gst.total_seconds(), prn)] = rho + nav.range_bias_m
    return obs


def _solve_from_subframes(sf_map: dict, obs: dict) -> dict:
    """Correct observed ranges with broadcast biases and solve a fix."""
    sats, rhos = [], []
    for prn, sf in sorted(sf_map.items()):
        key = (sf.gst.total_seconds(), prn)
        if key not in obs or not sf.complete:
            continue
        nav = parse_nav_data(subframe_nav_data(sf))
        sats.append(SatState(prn=prn, position=nav.sat_ecef_m))
        rhos.append(obs[key] - nav.range_bias_m)
    if len(sats) < 4:
        return {"error": "fewer than four usable satellites"}
    try:
        return solve_position(sats, rhos).as_dict()
    except (SingularGeometryError, NoConvergenceError, ValueError) as exc:
        return {"error": str(exc)}


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario and return the JSON-ready report."""
    bundle = generate_synthetic_constellation(
        sc.seed, sc.n_sats, sc.n_subframes, sc.gst0, sc.site, sc.seg_count)
    authentic_sfs = bundle.subframes
    live = live_events(authentic_sfs)
    lrt = LrtSource(offset_ms=sc.lrt_offset_ms,
                    error_bound_ms=sc.lrt_error_bound_ms)

    attack = dict(sc.attack)
    kind = attack.get("type", "none")
    receiver_pos = bundle.receiver_ecef
    events = live
    if kind == "none":
        obs = _observations(authentic_sfs, receiver_pos)
    elif kind == "tsr_realtime":
        delay = to_millis(attack.get("delay_s", 0))
        events = attacks.replay_realtime(live, delay)
        obs = _observations(authentic_sfs, receiver_pos)
    elif kind == "tsr_recorded":
        staleness = to_millis(attack.get("staleness_s", 0))
        mitm = to_millis(attack.get("mitm_delay_s", 0))
        rec = attacks.RecordedStream(events=tuple(live),
                                     t_record_ms=live[0].t_ms)
        events = attacks.replay_recorded(rec, rec.t_record_ms + staleness)
        lrt = attacks.ntp_mitm_delay(lrt, mitm)
        obs = _observations(authentic_sfs, receiver_pos)
    elif kind == "tsf":
        target_cfg = attack.get("target", {})
        target = geodetic_to_ecef(target_cfg.get("lat_deg", 4.0),
                                  target_cfg.get("lon_deg", 50.0),
                                  target_cfg.get("height_m", 100.0))
        cfg = attacks.TsfConfig(
            target_ecef_m=target,
            clock_offset_s=float(attack.get("clock_offset_s", 0.0)),
            seg_count=sc.seg_count,
            forge_tags=attack.get("forge_tags", True),
            iono_a0=attack.get("iono_a0", 0),
            clock_bias_m=attack.get("clock_bias_m", 0.0))
        forged = {prn: attacks.tsf_forge_subframes(sfs, cfg)
                  for prn, sfs in authentic_sfs.items()}
        staleness = to_millis(attack.get("staleness_s", 60 * SUBFRAME_SECONDS))
        mitm = to_millis(attack.get("mitm_delay_s",
                                    attack.get("staleness_s",
                                               60 * SUBFRAME_SECONDS)))
        rec_events = live_events(forged)
        rec = attacks.RecordedStream(events=tuple(rec_events),
                                     t_record_ms=rec_events[0].t_ms)
        events = attacks.replay_recorded(rec, rec.t_record_ms + staleness)
        lrt = attacks.ntp_mitm_delay(lrt, mitm)
        receiver_pos = target
        obs = _observations(forged, receiver_pos,
                            t_r=cfg.clock_offset_s)
    elif kind == "cr":
        timing = attacks.CrTiming(
            replay_delay_ms=to_millis(attack.get("replay_delay_s", 0)),
            t_acq_ms=to_millis(attack.get("t_acq_s", "0.6")))
        # a concatenating replay targets a receiver that is already
        # authenticating; root acquisition takes one DSM cycle of rounds
        onset_round = attack.get("onset_round", 8)
        replay_copy = attacks.replay_realtime(live, timing.replay_delay_ms)
        events = attacks.cr_compose(live, replay_copy, timing, onset_round)
        obs = _observations(authentic_sfs, receiver_pos)
    else:
        raise ValueError(f"unknown attack type {kind!r}")

    config = ReceiverConfig(policy=sc.policy, pubkey_pem=bundle.pubkey_pem,
                            seg_count=sc.seg_count,
                            key_reject_threshold=sc.key_reject_threshold)
    receiver = Receiver(config, lrt)
    if not events:
        raise ValueError("scenario produced no page events")
    t0 = min(e.t_ms for e in events)
    receiver.power_on(bundle.gst0, true_ms=t0)
    windows = [[] for _ in range(sc.duration_rounds)]
    for e in events:
        r = (e.t_ms - t0) // SUBFRAME_MS
        if r < sc.duration_rounds:
            windows[r].append(e)

    raw_fixes = []
    auth_fixes = {}
    seen_subframes: dict = {}
    for r, window in enumerate(windows):
        result = receiver.ingest_round(window, t0 + r * SUBFRAME_MS)
        for prn, sf in result.subframes.items():
            if sf.complete:
                seen_subframes[(sf.gst.total_seconds(), prn)] = sf
        raw_fixes.append(_solve_from_subframes(
            {p: s for p, s in result.subframes.items() if s.complete}, obs))
        authentic = [v for v in result.verdicts
                     if v.outcome is Outcome.AUTHENTIC]
        by_gst: dict = {}
        for v in authentic:
            by_gst.setdefault(v.gst.total_seconds(), {})[v.prn] = \
                seen_subframes.get((v.gst.total_seconds(), v.prn))
        for gst_s, sf_map in by_gst.items():
            sf_map = {p: s for p, s in sf_map.items() if s is not None}
            if len(sf_map) >= 4:
                auth_fixes[str(gst_s)] = _solve_from_subframes(sf_map, obs)

    failure = any(v.outcome in _FAILURE_OUTCOMES for v in receiver.verdicts)
    return {
        "scenario": {
            "name": sc.name,
            "seed": sc.seed,
            "attack": sc.attack,
            "duration_rounds": sc.duration_rounds,
        },
        "receiver": receiver.report(),
        "raw_fixes": raw_fixes,
        "auth_fixes": auth_fixes,
        "exit_code": 2 if failure else 0,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def diff_reports(a: dict, b: dict, prefix: str = "") -> list:
    """Dotted paths at which two reports differ."""
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                diffs.append(path)
            else:
                diffs.extend(diff_reports(a[key], b[key], path))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{prefix}.length")
        for i, (xa, xb) in enumerate(zip(a, b)):
            diffs.extend(diff_reports(xa, xb, f"{prefix}[{i}]"))
    elif a != b:
        diffs.append(prefix or "<root>")
    return diffs
