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
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from itertools import cycle
from types import MappingProxyType

from . import attacks, crypto
from .gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SECONDS_PER_WEEK,
    SUBFRAME_SECONDS,
    SymmetricBound,
)
from .mack import DEFAULT_SEG_COUNT, MAX_SEG_COUNT, pack_mack, tag_stream
from .navdata import (
    CLOCK_BITS,
    IONO_A0_BITS,
    MM_PER_M,
    PRN_BITS,
    WN_BITS,
    build_nav_data,
    parse_nav_data,
)
from .pages import PAGE_BYTES, PAGE_MS, Stream, seal_pages
from .positioning import (
    LAT_RANGE,
    LON_RANGE,
    ecef_to_geodetic,
    forge_pseudoranges,
    geodetic_to_ecef,
    solve_position,
)
from .receiver import Outcome, Receiver
from .tesla import (
    NMA_HEADER,
    TeslaChain,
    build_root_message,
    dsm_hkroot_blocks,
    generate_keypair,
    load_public_key_point,
    public_key_point,
    sign_root,
)
from .vectors import (
    NUMBER,
    SECONDS,
    SchemaError,
    TestVectorSet,
    read_json,
    read_keys,
    read_typed,
)

DEFAULT_SITE = (45.0, 7.6, 240.0)          # lat deg, lon deg, height m
SAT_RANGE_M = (22e6, 27e6)                 # site-to-satellite ranges drawn
DEFAULT_GST0 = Gst(1251, 277200)


@dataclass(frozen=True)
class ConstellationBundle:
    """A generated constellation and the values derived from it.

    Each satellite's subframes are one Stream, their sealed pages in one
    buffer; Subframes are cut from it on demand (vectors) and never kept.
    Consecutive scenarios can share one bundle, so it is read-only: frozen
    fields, read-only mappings, bytes."""

    streams: MappingProxyType             # prn -> Stream from gst0
    chain: TeslaChain
    pubkey: bytes                         # compressed P-256 point
    sat_states: MappingProxyType          # prn -> ECEF position, metres
    receiver_ecef: tuple
    gst0: Gst                             # GST of the first subframe

    @property
    def vectors(self) -> TestVectorSet:
        """The subframes as a vector set."""
        return TestVectorSet(
            {prn: stream.subframes() for prn, stream in self.streams.items()})

    @cached_property
    def observations(self) -> MappingProxyType:
        """Pseudoranges from the site to the authentic constellation."""
        return MappingProxyType(
            _observations(self.streams, self.receiver_ecef, 0.0))

    def chain_json(self) -> dict:
        """The chain description written to chain.json; the chain's last
        key is its seed."""
        root, seed = self.chain.root, self.chain.keys[-1]
        return {"gst0": _gst_entry(root.gst), "delta_t": SUBFRAME_SECONDS,
                "n": len(self.chain.keys) - 1, "seed_hex": seed.bits.hex(),
                "root_hex": root.bits.hex(), "pubkey_pem": crypto.spki_pem(
                    load_public_key_point(self.pubkey))}


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


def generate_synthetic_constellation(
        seed: int, n_sats: int, n_subframes: int, gst0: Gst = DEFAULT_GST0,
        site=DEFAULT_SITE,
        seg_count: int = DEFAULT_SEG_COUNT) -> ConstellationBundle:
    """Build an internally consistent vector set.

    Chain keys ride in MACK, tags verify, the signed root message cycles
    through HKROOT blocks, and every page seals with a valid CRC, so a
    no-attack run over the output authenticates end to end.
    """
    if n_sats < 4:
        raise ValueError("need at least four satellites")
    if n_subframes < 1:
        raise ValueError(f"subframes {n_subframes} is below 1")
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
        rng_m = rng.uniform(*SAT_RANGE_M)
        pos = tuple(r + rng_m * d for r, d in zip(recv_ecef, direction))
        # quantize to the nav-data grid so broadcast and truth agree exactly
        pos = tuple(round(c * 1000) / 1000 for c in pos)
        sat_states[prn] = pos
        iono_a0[prn] = rng.randint(10, 300)
        clock_bias_m[prn] = round(rng.uniform(-150.0, 150.0), 3)

    gst_root = gst0.add_seconds(-SUBFRAME_SECONDS)
    chain = TeslaChain.generate(rng.randbytes(16), n_subframes + 2, gst_root)
    private_key, public_key = generate_keypair(rng.getrandbits(256))
    root_body = build_root_message(NMA_HEADER, 0, gst_root.wn, gst_root.tow,
                                   chain.root.bits)
    hk_blocks = dsm_hkroot_blocks(root_body, sign_root(root_body, private_key))

    # key i + 1 is disclosed in subframe i, the root key in the slot before
    keys = [key.bits for key in chain.keys[1:n_subframes + 2]]
    gsts = [gst0.add_seconds(SUBFRAME_SECONDS * j) for j in range(n_subframes)]
    streams = {}
    for prn, pos in sat_states.items():          # one sealing per satellite
        navs = [build_nav_data(g.wn, g.tow, prn, pos,
                               clock_bias_m[prn], iono_a0[prn]) for g in gsts]
        macks = [pack_mack([], keys[0])] \
            + tag_stream(prn, gsts, navs, keys, seg_count)
        streams[prn] = Stream(gst0, prn, seal_pages(
            zip(navs, cycle(hk_blocks), macks)))

    return ConstellationBundle(
        streams=MappingProxyType(streams), chain=chain,
        pubkey=public_key_point(public_key),
        sat_states=MappingProxyType(sat_states), receiver_ecef=recv_ecef,
        gst0=gst0)


@lru_cache(maxsize=1)
def _constellation(*inputs) -> ConstellationBundle:
    """The bundle for the most recent generation inputs, built once."""
    return generate_synthetic_constellation(*inputs)


# -- scenario configuration --------------------------------------------------

_CLOCK_MM = 1 << CLOCK_BITS - 1        # the clock bias is sent in signed mm
# A site's or a tsf target's height (up to low Earth orbit) and a tsf
# forgery's clock offset (up to an hour).  Every genuine authenticated fix
# lands within 1 mm of a site in range: the solve checks its centre-start
# fix against Bancroft's root nearest the surface (positioning).  README
# "Scenario files" says what still goes wrong beyond the bounds.
_HEIGHT_M, _CLOCK_OFFSET_S = (-2_000_000, 2_000_000), (-3600, 3600)

# type: (declared keys, policy class)
POLICIES = {
    "alternate": ({"t_l_s": (SECONDS, 30, 0, None)}, AlternateThreshold),
    "symmetric": ({"b_s": (SECONDS, 15, 0, None)}, SymmetricBound),
}

SCENARIO_KEYS = {
    "name": (str, "unnamed"), "seed": (int, 0),
    "constellation": ({
        "sats": (int, 8, 4, (1 << PRN_BITS) - 1),
        "subframes": (int, 14, 1, None),
        "wn": (int, DEFAULT_GST0.wn, 0, (1 << WN_BITS) - 1),
        "tow": (int, DEFAULT_GST0.tow, 0, SECONDS_PER_WEEK - 1),
        "receiver": ({"lat_deg": (NUMBER, DEFAULT_SITE[0], *LAT_RANGE),
                      "lon_deg": (NUMBER, DEFAULT_SITE[1], *LON_RANGE),
                      "height_m": (NUMBER, DEFAULT_SITE[2], *_HEIGHT_M)},
                     {})}, {}),
    "receiver": ({"policy": (dict, {}), "lrt_offset_s": (SECONDS, 0),
                  "lrt_error_bound_s": (SECONDS, 0, 0, None),
                  "seg_count": (int, DEFAULT_SEG_COUNT, 1, MAX_SEG_COUNT),
                  "key_reject_threshold": (int, 1, 1, None)}, {}),
    "attack": (dict, {"type": "none"}),
    "duration_rounds": (int, None),           # default: constellation.subframes
}

# -- attacks ---------------------------------------------------------------
#
# A generator maps (values, scenario, bundle) to (stream, lrt, observations,
# steer_s).  The stream is attacks.slot_stream's (t0, round_events): the
# receiver is powered on at t0, its slot grid's start in ms.  lrt is the
# scenario's LRT source as the attack leaves it, and observations are the
# ranges the receiver measures, keyed by (gst seconds, prn).  steer_s is the
# whole seconds of receiver clock offset the ranges leave out, as a receiver
# steers its clock: each fix's clock offset gets them back.


def _none(a, sc, bundle):
    return (attacks.shifted_stream(bundle.streams), sc.lrt,
            bundle.observations, 0)


def _tsr_realtime(a, sc, bundle):
    return (attacks.replay_realtime(bundle.streams, a["delay_s"]), sc.lrt,
            bundle.observations, 0)


def _tsr_recorded(a, sc, bundle):                  # behind an NTP MITM
    return (attacks.replay_realtime(bundle.streams, a["staleness_s"]),
            attacks.ntp_mitm_delay(sc.lrt, a["mitm_delay_s"]),
            bundle.observations, 0)


def _tsf(a, sc, bundle):                           # replays forged streams
    """At an hour's offset a range is about 1e12 m, whose float spacing
    (about 1e-4 m) the geometry amplifies past 1 mm: the forged ranges
    carry only the offset's fraction of a second, and steer_s the rest."""
    target = geodetic_to_ecef(*a["target"].values())
    forged = {prn: attacks.tsf_forge_subframes(
                  stream, seg_count=sc.seg_count, forge_tags=a["forge_tags"],
                  iono_a0=a["iono_a0"], clock_bias_m=a["clock_bias_m"])
              for prn, stream in bundle.streams.items()}
    mitm = a["staleness_s"] if a["mitm_delay_s"] is None else a["mitm_delay_s"]
    steer_s = round(a["clock_offset_s"])
    return (attacks.replay_realtime(forged, a["staleness_s"]),
            attacks.ntp_mitm_delay(sc.lrt, mitm),
            _observations(forged, target, a["clock_offset_s"] - steer_s),
            steer_s)


def _cr(a, sc, bundle):
    return (attacks.cr_compose(bundle.streams, a["replay_delay_s"],
                               a["t_acq_s"], a["onset_round"]),
            sc.lrt, bundle.observations, 0)


# type: (declared keys, generator)
ATTACKS = {
    "none": ({}, _none),
    "tsr_realtime": ({"delay_s": (SECONDS, 0, 0, None)}, _tsr_realtime),
    "tsr_recorded": ({"staleness_s": (SECONDS, 0, 0, None),
                      "mitm_delay_s": (SECONDS, 0, 0, None)}, _tsr_recorded),
    "tsf": ({"target": ({"lat_deg": (NUMBER, 4.0, *LAT_RANGE),
                         "lon_deg": (NUMBER, 50.0, *LON_RANGE),
                         "height_m": (NUMBER, 100.0, *_HEIGHT_M)}, {}),
             "clock_offset_s": (NUMBER, 0.0, *_CLOCK_OFFSET_S),
             "forge_tags": (bool, True),
             "iono_a0": (int, 0, 0, (1 << IONO_A0_BITS) - 1),
             "clock_bias_m": (NUMBER, 0.0, -_CLOCK_MM / MM_PER_M,
                              (_CLOCK_MM - 1) / MM_PER_M),
             "staleness_s": (SECONDS, 60 * SUBFRAME_SECONDS, 0, None),
             "mitm_delay_s": (SECONDS, None, 0, None)},  # default: staleness_s
            _tsf),
    # a concatenating replay targets a receiver that is already
    # authenticating; root acquisition takes one DSM cycle of rounds
    "cr": ({"replay_delay_s": (SECONDS, 0, 0, None),
            "t_acq_s": (SECONDS, "0.6", 0, None),
            "onset_round": (int, 8)}, _cr),
}


@dataclass
class Scenario:
    name: str
    seed: int
    n_sats: int
    n_subframes: int
    gst0: Gst
    site: tuple
    policy: object
    lrt: LrtSource
    seg_count: int
    key_reject_threshold: int
    attack: dict                  # the attack block as written
    attack_events: object         # the generator, its values bound
    duration_rounds: int

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        """Read a scenario; a SchemaError names the first bad JSON path."""
        top = read_keys(cfg, SCENARIO_KEYS, "$")
        con, rcv = top["constellation"], top["receiver"]
        policy, pol = read_typed(rcv["policy"], POLICIES, "$.receiver.policy")
        generator, values = read_typed(top["attack"], ATTACKS, "$.attack")
        gst0 = Gst(con["wn"], con["tow"])
        if gst0.total_seconds() < SUBFRAME_SECONDS:
            raise SchemaError(f"$.constellation.tow: {con['tow']} in week 0 "
                                f"is below {SUBFRAME_SECONDS}, leaving no room "
                                "for the root slot")
        last_wn = (gst0.total_seconds() + SUBFRAME_SECONDS
                   * (con["subframes"] - 1)) // SECONDS_PER_WEEK
        if last_wn >= 1 << WN_BITS:
            raise SchemaError(f"$.constellation.subframes: {con['subframes']}"
                                f" subframes run into week {last_wn}, past "
                                f"{(1 << WN_BITS) - 1}")
        if generator is _tsf and con["subframes"] < attacks.TSF_MIN_SUBFRAMES:
            raise SchemaError(f"$.constellation.subframes: {con['subframes']}"
                                f" is below {attacks.TSF_MIN_SUBFRAMES}, the "
                                "fewest a tsf forgery runs over")
        rounds = con["subframes"] if top["duration_rounds"] is None \
            else top["duration_rounds"]
        if not 1 <= rounds <= con["subframes"]:
            raise SchemaError(f"$.duration_rounds: {rounds} is outside "
                                f"1..{con['subframes']} (constellation.subframes)")
        if not 0 <= values.get("onset_round", 0) < rounds:
            raise SchemaError(f"$.attack.onset_round: {values['onset_round']}"
                                f" is outside 0..{rounds - 1} (duration_rounds)")
        return cls(
            name=top["name"], seed=top["seed"], n_sats=con["sats"],
            n_subframes=con["subframes"], gst0=gst0,
            site=tuple(con["receiver"].values()), policy=policy(*pol.values()),
            lrt=LrtSource(rcv["lrt_offset_s"], rcv["lrt_error_bound_s"]),
            seg_count=rcv["seg_count"],
            key_reject_threshold=rcv["key_reject_threshold"],
            attack=dict(top["attack"]),
            attack_events=partial(generator, values), duration_rounds=rounds)

    @classmethod
    def load(cls, path) -> "Scenario":
        return read_json(path, cls.from_dict)


def live_events(subframes_by_prn: dict) -> list:
    """Authentic page events on the true clock (arrival time == GST) of
    each satellite's consecutive subframes, one event per page: the rounds
    of the ``none`` attack's stream, one after another, each run of pages
    split into its pages."""
    streams = {prn: Stream.of(sfs) for prn, sfs in subframes_by_prn.items()}
    _, round_events = attacks.shifted_stream(streams)
    return [e._replace(t_ms=e.t_ms + PAGE_MS * k, raw=e.raw[i:i + PAGE_BYTES])
            for r in range(max(map(len, streams.values())))
            for _, events in sorted(round_events(r).items()) for e in events
            for k, i in enumerate(range(0, len(e.raw), PAGE_BYTES))]


def _observations(streams: dict, receiver_pos, t_r: float) -> dict:
    """Pseudorange observations keyed by (gst seconds, prn).

    Ranges are composed from the broadcast (quantized) satellite states and
    correction fields, so a receiver applying the same corrections recovers
    receiver_pos exactly.
    """
    obs = {}
    for prn, stream in streams.items():
        navs = [parse_nav_data(nav) for nav, _, _ in stream.blobs()]
        rhos = forge_pseudoranges(receiver_pos, t_r,
                                  [nav.sat_ecef_m for nav in navs])
        first = stream.gst.total_seconds()
        for i, (nav, rho) in enumerate(zip(navs, rhos)):
            obs[(first + SUBFRAME_SECONDS * i, prn)] = rho + nav.range_bias_m
    return obs


def _solver_inputs(gst: Gst, navs: dict, obs: dict) -> tuple:
    """What each PRN's nav data of GST gst gives the solver, by PRN in
    order: the broadcast satellite position and its observed range
    corrected with the broadcast biases."""
    return tuple((nav.sat_ecef_m,
                  obs[(gst.total_seconds(), prn)] - nav.range_bias_m)
                 for prn, nav in sorted(navs.items()))


def simulate(sc: Scenario):
    """Execute one scenario, yielding (RoundResult, raw fix, authenticated
    fix or None) for each round as the receiver ingests it.  Consecutive
    scenarios with equal constellation inputs (seed, sizes, start GST, site,
    tag count) share one build.  The raw fix is solved from the nav data
    parsed that round, the authenticated fix, with four or more authentic
    verdicts, from the nav data they name; both in report form, solved once
    per run for equal inputs, and no solver result outlives the run."""
    bundle = _constellation(sc.seed, sc.n_sats, sc.n_subframes, sc.gst0,
                            sc.site, sc.seg_count)
    (t0, round_events), lrt, obs, steer_s = sc.attack_events(sc, bundle)

    receiver = Receiver(sc.policy, lrt, bundle.pubkey, bundle.gst0, t0,
                        seg_count=sc.seg_count,
                        key_reject_threshold=sc.key_reject_threshold)

    @cache              # solver inputs -> their fix's report or why none
    def fix_report(inputs: tuple) -> dict:
        if len(inputs) < 4:
            return {"error": "fewer than four usable satellites"}
        sats, rhos = zip(*inputs)
        try:
            fix = solve_position(list(sats), list(rhos))
        except ValueError as exc:
            return {"error": str(exc)}
        return _fix_entry(fix, steer_s)

    for r in range(sc.duration_rounds):
        result = receiver.ingest_round(round_events(r))
        raw = fix_report(_solver_inputs(result.gst, result.navs, obs))
        yield result, raw, (fix_report(_solver_inputs(
            result.authenticated_gst, result.authenticated, obs))
            if len(result.authenticated) >= 4 else None)


# -- report entries: no other module names an output field ------------------


def _gst_entry(gst: Gst) -> dict:
    return {"wn": gst.wn, "tow": gst.tow}


def _fix_entry(fix, steer_s: int) -> dict:
    """A fix in report form: ECEF to 1e-6 m, geodetic to 1e-9, and the
    clock offset with steer_s whole seconds given back, added only when
    nonzero, as adding 0 would turn -0.0 into 0.0."""
    return {
        "ecef_m": [round(c, 6) for c in fix.position],
        "geodetic": dict(zip(("lat_deg", "lon_deg", "height_m"), (
            round(v, 9) for v in ecef_to_geodetic(*fix.position)))),
        "clock_offset_s": fix.clock_offset + steer_s if steer_s
        else fix.clock_offset,
        "residual_norm_m": fix.residual_norm,
    }


def _verdict_entry(verdict) -> dict:
    return {"gst": _gst_entry(verdict.gst), "prn": verdict.prn,
            "outcome": verdict.outcome.value}


def _timeline_entry(gst, status) -> dict:
    return {"gst": None if gst is None else _gst_entry(gst),
            "status": status.value}


def run_scenario(sc: Scenario) -> dict:
    """The JSON-ready report: simulate's records folded, each authenticated
    fix keyed by the GST of the data it was solved from."""
    changes, verdicts, deltas, raw_fixes, auth_fixes = [], [], [], [], {}
    for result, raw, auth in simulate(sc):
        changes += result.changes
        verdicts += result.verdicts
        deltas.append(result.delta_ms)
        raw_fixes.append(raw)
        if auth is not None:
            auth_fixes[str(result.authenticated_gst.total_seconds())] = auth
    return {
        "scenario": {"name": sc.name, "seed": sc.seed, "attack": sc.attack,
                     "duration_rounds": sc.duration_rounds},
        "receiver": {
            "status": changes[-1][1].value,
            "timeline": [_timeline_entry(*change) for change in changes],
            "verdicts": [_verdict_entry(v) for v in verdicts],
            "gst_lrt_delta_ms": deltas, "rounds": len(deltas)},
        "raw_fixes": raw_fixes, "auth_fixes": auth_fixes,
        "exit_code": 2 if any(v.outcome in (Outcome.KEY_REJECTED,
                                            Outcome.TAG_MISMATCH)
                              for v in verdicts) else 0,
    }


def write_report(report: dict, fh) -> None:
    """Write a report's JSON text to a text file, chunk by chunk."""
    json.dump(report, fh, sort_keys=True, indent=2)
    fh.write("\n")


def diff_reports(a: dict, b: dict, prefix: str = "") -> list:
    """Dotted paths at which two reports differ.

    Values differ when their JSON texts do: 1, 1.0 and true differ, and so
    do 0.0 and -0.0."""
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
    elif json.dumps(a) != json.dumps(b):
        diffs.append(prefix or "<root>")
    return diffs
