"""Scenario configuration, synthetic constellation generation, end-to-end
execution and report emission.

A scenario file is a JSON object naming a synthetic constellation (seed,
satellite count, subframe count, start GST, receiver site), the receiver
setup (TS policy, LRT offset, tag geometry) and one attack.  Reports are
JSON and deterministic for a given scenario, so fixtures can be diffed
byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

from . import attacks
from .gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SECONDS_PER_WEEK,
    SUBFRAME_SECONDS,
    SubMillisecondError,
    SymmetricBound,
    to_millis,
)
from .mack import TAG_BITS, TAG_REGION_BITS, pack_mack, generate_subframe_tags
from .navdata import (
    CLOCK_BITS,
    EPH_AXIS_BITS,
    IONO_A0_BITS,
    MM_PER_M,
    PRN_BITS,
    WN_BITS,
    build_nav_data,
    parse_nav_data,
    subframe_nav_data,
)
from .pages import SUBFRAME_MS, build_subframes, unpack_pages
from .positioning import (
    LAT_RANGE,
    LON_RANGE,
    WGS84_A,
    WGS84_E2,
    Fix,
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
    dsm_hkroot_blocks,
    generate_keypair,
    public_key_pem,
    sign_root,
)
from .vectors import TestVectorSet

DEFAULT_SITE = (45.0, 7.6, 240.0)          # lat deg, lon deg, height m
SAT_RANGE_M = (22e6, 27e6)                 # site-to-satellite ranges drawn
DEFAULT_GST0 = Gst(1251, 277200)

_FAILURE_OUTCOMES = (Outcome.KEY_REJECTED, Outcome.TAG_MISMATCH)


@dataclass(frozen=True)
class ConstellationBundle:
    """A generated constellation and the values derived from it.

    Consecutive scenarios can share one bundle, so it is read-only: frozen
    fields, read-only mappings and tuples."""

    subframes: MappingProxyType           # prn -> tuple of sealed subframes by GST
    chain: TeslaChain
    pubkey_pem: str
    sat_states: MappingProxyType          # prn -> SatState
    receiver_ecef: tuple
    gst0: Gst                             # GST of the first subframe

    @property
    def vectors(self) -> TestVectorSet:
        """The subframes as a vector set."""
        return TestVectorSet.from_subframes(self.subframes)

    @cached_property
    def observations(self) -> MappingProxyType:
        """Pseudoranges from the site to the authentic constellation."""
        return MappingProxyType(
            _observations(self.subframes, self.receiver_ecef, 0.0))

    def chain_json(self) -> dict:
        return {**self.chain.as_dict(), "pubkey_pem": self.pubkey_pem}


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
        sat_states[prn] = SatState(prn=prn, position=pos)
        iono_a0[prn] = rng.randint(10, 300)
        clock_bias_m[prn] = round(rng.uniform(-150.0, 150.0), 3)

    gst_root = gst0.add_seconds(-SUBFRAME_SECONDS)
    chain = TeslaChain.generate(rng.randbytes(16), n_subframes + 2, gst_root)
    private_key, public_key = generate_keypair(rng.getrandbits(256))
    root_msg = RootKeyMessage(nma_header=NMA_HEADER, mf=0, wnk=gst_root.wn,
                              towk=gst_root.tow, kroot=chain.root.bits)
    hk_blocks = dsm_hkroot_blocks(
        replace(root_msg, signature=sign_root(root_msg.body, private_key)))

    subframes: dict = {prn: [] for prn in sat_states}
    prev_blobs: dict = {}        # round j - 1's nav blobs, which j's tags cover
    for j in range(n_subframes):
        gst_j = gst0.add_seconds(SUBFRAME_SECONDS * j)
        blobs = {}
        specs = []
        for prn, sat in sat_states.items():
            blob = blobs[prn] = build_nav_data(
                gst_j.wn, gst_j.tow, prn, sat.position, clock_bias_m[prn],
                iono_a0[prn])
            if j == 0:
                tags = []
            else:
                key = chain.key_at(j + 2)          # disclosed in subframe j+1
                tags = generate_subframe_tags(
                    prev_blobs[prn], key, prn_d=prn, prn_a=prn,
                    gst_sf=gst_j, seg_count=seg_count)
            mack_blob = pack_mack(tags, chain.key_at(j + 1).bits)
            specs.append((gst_j, prn, blob, hk_blocks[j % len(hk_blocks)],
                          mack_blob))
        for sf in build_subframes(specs):          # one sealing per round
            subframes[sf.prn].append(sf)
        prev_blobs = blobs

    return ConstellationBundle(
        subframes=MappingProxyType(
            {prn: tuple(sfs) for prn, sfs in subframes.items()}),
        chain=chain, pubkey_pem=public_key_pem(public_key),
        sat_states=MappingProxyType(sat_states), receiver_ecef=recv_ecef,
        gst0=gst0)


@lru_cache(maxsize=1)
def _constellation(*inputs) -> ConstellationBundle:
    """The bundle for the most recent generation inputs, built once."""
    return generate_synthetic_constellation(*inputs)


# -- scenario configuration --------------------------------------------------


class ScenarioError(ValueError):
    """A scenario file that breaks the schema; names the JSON path."""


NUMBER, SECONDS = (int, float), (int, float, str)    # seconds are read into ms


def _read(block, keys: dict, path: str) -> dict:
    """Check a JSON object against its key table and fill in defaults.

    ``keys`` maps each key to ``(kind, default)`` or ``(kind, default, low,
    high)``; kind is a type, a tuple of types (booleans are never numbers)
    or a nested key table, and a None high leaves the range open.  Numbers
    must be finite, and seconds are compared in ms.  A None default marks a
    value that another key supplies.  Values keep the declared key order."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{path}: expected an object, got {block!r}")
    for key in block:
        if key not in keys:
            raise ScenarioError(f"{path}.{key}: unknown key")
    out = {}
    for key, (kind, default, *bounds) in keys.items():
        where, value = f"{path}.{key}", block.get(key, default)
        if isinstance(kind, dict):
            out[key] = _read(value, kind, where)
            continue
        if value is None and key not in block:
            out[key] = None
            continue
        if isinstance(value, bool) != (kind is bool) \
                or not isinstance(value, kind):
            names = getattr(kind, "__name__", None) or " or ".join(
                t.__name__ for t in kind)
            raise ScenarioError(f"{where}: expected {names}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"{where}: {value!r} is not a finite number")
        try:
            out[key] = to_millis(value) if kind is SECONDS else value
        except SubMillisecondError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        except (ValueError, ArithmeticError):
            raise ScenarioError(f"{where}: {value!r} is not a number "
                                "of seconds") from None
        if bounds:
            low, high = bounds
            if not (low <= out[key] and (high is None or out[key] <= high)):
                bound = f"outside {low}..{high}" if high is not None \
                    else f"below {low}"
                raise ScenarioError(f"{where}: {value!r} is {bound}")
    return out


def _read_typed(block: dict, table: dict, path: str):
    """Read a block whose ``type`` (by default the first) selects its entry."""
    kind = block.get("type", next(iter(table)))
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioError(f"{path}.type: unknown type {kind!r}, "
                            f"expected one of {', '.join(table)}")
    keys, then = table[kind]
    rest = {k: v for k, v in block.items() if k != "type"}
    return then, _read(rest, keys, path)


_CLOCK_MM = 1 << CLOCK_BITS - 1        # the clock bias is sent in signed mm
# A site height that loads also generates.  No axis of the site is further
# from the centre than the prime-vertical radius, largest at the poles, plus
# |height|; a satellite adds at most the largest range; and each satellite
# axis is sent in signed mm of EPH_AXIS_BITS.
_SITE_HEIGHT_M = int(((1 << EPH_AXIS_BITS - 1) - 1) / MM_PER_M
                     - SAT_RANGE_M[1] - WGS84_A / math.sqrt(1 - WGS84_E2))

# type: (declared keys, policy class)
POLICIES = {
    "alternate": ({"t_l_s": (SECONDS, 30)}, AlternateThreshold),
    "symmetric": ({"b_s": (SECONDS, 15)}, SymmetricBound),
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
                      "height_m": (NUMBER, DEFAULT_SITE[2],
                                   -_SITE_HEIGHT_M, _SITE_HEIGHT_M)}, {})}, {}),
    "receiver": ({"policy": (dict, {}), "lrt_offset_s": (SECONDS, 0),
                  "lrt_error_bound_s": (SECONDS, 0, 0, None),
                  "seg_count": (int, 6, 1, TAG_REGION_BITS // TAG_BITS),
                  "key_reject_threshold": (int, 1, 1, None)}, {}),
    "attack": (dict, {"type": "none"}),
    "duration_rounds": (int, None),           # default: constellation.subframes
}

# -- attacks ---------------------------------------------------------------
#
# A generator maps (values, scenario, bundle) to (stream, lrt, observations).
# The stream is (t0, round_events): the first window start in ms, and the
# function of r that gives round r's page events by PRN, read straight from
# the sealed subframes.  lrt is the scenario's LRT source as the attack
# leaves it, and observations are the ranges the receiver measures, keyed
# by (gst seconds, prn).


def _none(a, sc, bundle):
    return (attacks.shifted_stream(bundle.subframes), sc.lrt,
            bundle.observations)


def _tsr_realtime(a, sc, bundle):
    return (attacks.replay_realtime(bundle.subframes, a["delay_s"]), sc.lrt,
            bundle.observations)


def _tsr_recorded(a, sc, bundle):                  # behind an NTP MITM
    return (attacks.replay_realtime(bundle.subframes, a["staleness_s"]),
            attacks.ntp_mitm_delay(sc.lrt, a["mitm_delay_s"]),
            bundle.observations)


def _tsf(a, sc, bundle):                           # replays forged subframes
    target = geodetic_to_ecef(*a["target"].values())
    cfg = attacks.TsfConfig(seg_count=sc.seg_count, forge_tags=a["forge_tags"],
                            iono_a0=a["iono_a0"], clock_bias_m=a["clock_bias_m"])
    forged = {prn: attacks.tsf_forge_subframes(sfs, cfg)
              for prn, sfs in bundle.subframes.items()}
    mitm = a["staleness_s"] if a["mitm_delay_s"] is None else a["mitm_delay_s"]
    return (attacks.replay_realtime(forged, a["staleness_s"]),
            attacks.ntp_mitm_delay(sc.lrt, mitm),
            _observations(forged, target, float(a["clock_offset_s"])))


def _cr(a, sc, bundle):
    timing = attacks.CrTiming(a["replay_delay_s"], a["t_acq_s"])
    return (attacks.cr_compose(bundle.subframes, timing, a["onset_round"]),
            sc.lrt, bundle.observations)


# type: (declared keys, generator)
ATTACKS = {
    "none": ({}, _none),
    "tsr_realtime": ({"delay_s": (SECONDS, 0, 0, None)}, _tsr_realtime),
    "tsr_recorded": ({"staleness_s": (SECONDS, 0, 0, None),
                      "mitm_delay_s": (SECONDS, 0, 0, None)}, _tsr_recorded),
    "tsf": ({"target": ({"lat_deg": (NUMBER, 4.0, *LAT_RANGE),
                         "lon_deg": (NUMBER, 50.0, *LON_RANGE),
                         "height_m": (NUMBER, 100.0)}, {}),
             "clock_offset_s": (NUMBER, 0.0), "forge_tags": (bool, True),
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
        """Read a scenario; a ScenarioError names the first bad JSON path."""
        top = _read(cfg, SCENARIO_KEYS, "$")
        con, rcv = top["constellation"], top["receiver"]
        policy, pol = _read_typed(rcv["policy"], POLICIES, "$.receiver.policy")
        generator, values = _read_typed(top["attack"], ATTACKS, "$.attack")
        gst0 = Gst(con["wn"], con["tow"])
        if gst0.total_seconds() < SUBFRAME_SECONDS:
            raise ScenarioError(f"$.constellation.tow: {con['tow']} in week 0 "
                                f"is below {SUBFRAME_SECONDS}, leaving no room "
                                "for the root slot")
        last_wn = (gst0.total_seconds() + SUBFRAME_SECONDS
                   * (con["subframes"] - 1)) // SECONDS_PER_WEEK
        if last_wn >= 1 << WN_BITS:
            raise ScenarioError(f"$.constellation.subframes: {con['subframes']}"
                                f" subframes run into week {last_wn}, past "
                                f"{(1 << WN_BITS) - 1}")
        if generator is _tsf and con["subframes"] < attacks.TSF_MIN_SUBFRAMES:
            raise ScenarioError(f"$.constellation.subframes: {con['subframes']}"
                                f" is below {attacks.TSF_MIN_SUBFRAMES}, the "
                                "fewest a tsf forgery runs over")
        rounds = cfg.get("duration_rounds", con["subframes"])  # type read above
        if not 1 <= rounds <= con["subframes"]:
            raise ScenarioError(f"$.duration_rounds: {rounds} is outside "
                                f"1..{con['subframes']} (constellation.subframes)")
        if not 0 <= values.get("onset_round", 0) < rounds:
            raise ScenarioError(f"$.attack.onset_round: {values['onset_round']}"
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
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:       # bad JSON or a ScenarioError
                raise ScenarioError(f"{path}: {exc}") from None


def live_events(subframes_by_prn: dict) -> list:
    """Authentic page events on the true clock (arrival time == GST): the
    rounds of the ``none`` attack's stream, one after another."""
    _, round_events = attacks.shifted_stream(subframes_by_prn)
    rounds = max(map(len, subframes_by_prn.values()))
    return [e for r in range(rounds)
            for _, events in sorted(round_events(r).items()) for e in events]


def _observations(subframes_by_prn: dict, receiver_pos, t_r: float = 0.0) -> dict:
    """Pseudorange observations keyed by (gst seconds, prn).

    Ranges are composed from the broadcast (quantized) satellite states and
    correction fields, so a receiver applying the same corrections recovers
    receiver_pos exactly.
    """
    obs = {}
    for prn, sf_list in subframes_by_prn.items():
        # one read of the satellite's subframes, keeping nothing on them
        navs = [parse_nav_data(nav) for nav, _, _
                in unpack_pages(sf.raws for sf in sf_list)]
        rhos = forge_pseudoranges(receiver_pos, t_r, [
            SatState(prn=prn, position=nav.sat_ecef_m) for nav in navs])
        for sf, nav, rho in zip(sf_list, navs, rhos):
            obs[(sf.gst.total_seconds(), prn)] = rho + nav.range_bias_m
    return obs


def _solver_inputs(subframes: dict, obs: dict) -> dict:
    """What each complete subframe gives the solver, by PRN in order: the
    broadcast satellite and its observed range corrected with the broadcast
    biases."""
    inputs = {}
    for prn, sf in sorted(subframes.items()):
        if sf.complete:
            nav = parse_nav_data(subframe_nav_data(sf))
            inputs[prn] = (SatState(prn=prn, position=nav.sat_ecef_m),
                           obs[(sf.gst.total_seconds(), prn)]
                           - nav.range_bias_m)
    return inputs


def _solve(inputs: tuple):
    """The Fix from (satellite, corrected range) pairs, or why none."""
    if len(inputs) < 4:
        return "fewer than four usable satellites"
    sats, rhos = zip(*inputs)
    try:
        return solve_position(list(sats), list(rhos))
    except (SingularGeometryError, NoConvergenceError, ValueError) as exc:
        return str(exc)


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario and return the JSON-ready report.

    The most recent constellation is kept: consecutive scenarios with equal
    constellation inputs (seed, sizes, start GST, site, tag count) share one
    build and its observations.  Page events are made one round at a time,
    as the receiver takes them.  Equal solver inputs are solved, and their
    fix put in report form, once per run; no solver result outlives the
    run."""
    bundle = _constellation(sc.seed, sc.n_sats, sc.n_subframes, sc.gst0,
                            sc.site, sc.seg_count)
    (t0, round_events), lrt, obs = sc.attack_events(sc, bundle)

    config = ReceiverConfig(policy=sc.policy, pubkey_pem=bundle.pubkey_pem,
                            seg_count=sc.seg_count,
                            key_reject_threshold=sc.key_reject_threshold)
    receiver = Receiver(config, lrt)
    receiver.power_on(bundle.gst0, true_ms=t0)

    fixes: dict = {}            # solver inputs -> report of their fix, this run

    def fix_report(inputs) -> dict:
        key = tuple(inputs)
        if key not in fixes:
            fix = _solve(key)
            fixes[key] = fix.as_dict() if isinstance(fix, Fix) \
                else {"error": fix}
        return fixes[key]

    raw_fixes = []
    auth_fixes = {}
    back = ({}, {})             # solver inputs of rounds r - 2 and r - 1
    for r in range(sc.duration_rounds):
        result = receiver.ingest_round(round_events(r), t0 + r * SUBFRAME_MS)
        inputs = _solver_inputs(result.subframes, obs)
        raw_fixes.append(fix_report(inputs.values()))
        # each PRN's window holds three consecutive complete rounds, so an
        # authentic verdict of round r names round r - 2's data subframe
        authentic = [v for v in result.verdicts
                     if v.outcome is Outcome.AUTHENTIC]
        if len(authentic) >= 4:
            auth_fixes[str(authentic[0].gst.total_seconds())] = fix_report(
                back[0][prn] for prn in sorted(v.prn for v in authentic))
        back = (back[1], inputs)

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


def write_report(report: dict, fh) -> None:
    """Write a report's JSON text to a text file, chunk by chunk."""
    json.dump(report, fh, sort_keys=True, indent=2)
    fh.write("\n")


def report_to_json(report: dict) -> str:
    """The text write_report writes."""
    buf = io.StringIO()
    write_report(report, buf)
    return buf.getvalue()


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
