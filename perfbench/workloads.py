"""Benchmark workloads and the correctness gate every execution must pass.

A workload is a set of scenario files written, with the benchmark seed, into
a scratch directory and fed to one ``osnmasim run`` process.  Each scenario
execution in that process is checked against the pinned outcome table below:
final receiver status, report exit code, verdict counts, number of
authenticated fixes, and the position every authenticated fix lands on.  For
the default seed the sha256 of every report is pinned as well, because the
shipped reports must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20230816
PAGES_PER_SUBFRAME = 15

PAPER_SCENARIOS = (
    "baseline", "cr_delay_1_4", "cr_delay_1_5", "tsf_full", "tsf_nav_only",
    "tsr_realtime_29_5", "tsr_realtime_30_5", "tsr_recorded_32_mitm",
    "tsr_recorded_32_no_mitm",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sources: tuple          # scenario file stems under scenarios/
    cli_exit: int           # expected exit code of the whole `osnmasim run`
    resize: tuple = ()      # (sats, rounds) for a single resized scenario

    def write_scenarios(self, scenarios_dir: Path, seed: int, out_dir: Path) -> list:
        """Copy the source scenarios with the seed written in; return paths.

        A resized workload changes only ``sats``, ``subframes``,
        ``duration_rounds``, ``seed`` and ``name``.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for stem in self.sources:
            cfg = json.loads((scenarios_dir / f"{stem}.json").read_text())
            cfg["seed"] = seed
            if self.resize:
                sats, rounds = self.resize
                cfg["name"] = f"{self.name.replace('_', '-')}-{sats}x{rounds}"
                cfg["constellation"]["sats"] = sats
                cfg["constellation"]["subframes"] = rounds
                cfg["duration_rounds"] = rounds
                stem = self.name
            path = out_dir / f"{stem}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            paths.append(path)
        return paths


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "paper_batch",
            "the nine shipped scenarios in one CLI run: every attack, both TS "
            "outcomes, nine identical constellation builds, short rounds",
            PAPER_SCENARIOS, cli_exit=2),
        Workload(
            "long_clean",
            "baseline at 8 sats x 128 rounds: the steady-state receiver read "
            "path, per-round windowing and slot assembly, one constellation",
            ("baseline",), cli_exit=0, resize=(8, 128)),
        Workload(
            "long_forgery",
            "tsf_full at 8 sats x 64 rounds: the attack write path, every "
            "page re-encoded and resealed and every tag recomputed",
            ("tsf_full",), cli_exit=0, resize=(8, 64)),
    )
}


def scenario_sizes(paths) -> tuple:
    """(satellite-subframes simulated, pages generated) over scenario files."""
    subframes = pages = 0
    for path in paths:
        cfg = json.loads(Path(path).read_text())
        sats = cfg["constellation"]["sats"]
        subframes += sats * cfg["duration_rounds"]
        pages += sats * cfg["constellation"]["subframes"] * PAGES_PER_SUBFRAME
    return subframes, pages


# -- pinned outcomes -----------------------------------------------------------

TRUE_SITE = (45.0, 7.6, 240.0)       # lat deg, lon deg, height m
TSF_TARGET = (4.0, 50.0, 100.0)
FIX_TOLERANCE_M = 1e-3


@dataclass(frozen=True)
class Outcome:
    status: str
    exit_code: int
    verdicts: dict          # outcome -> count
    auth_fixes: int
    fix_at: tuple           # geodetic point every authenticated fix must hit


# Identical for seeds 1 to 5, 777, 98765 and 20230816.
OUTCOMES = {
    "baseline": Outcome("authenticating", 0, {"authentic": 80}, 10, TRUE_SITE),
    "cr_delay_1_4": Outcome("authenticating", 0,
                            {"authentic": 56, "discarded_incomplete": 8}, 7, TRUE_SITE),
    "cr_delay_1_5": Outcome("spoof_detected", 2,
                            {"authentic": 16, "discarded_incomplete": 8,
                             "key_rejected": 1}, 2, TRUE_SITE),
    "tsf_full": Outcome("authenticating", 0, {"authentic": 80}, 10, TSF_TARGET),
    "tsf_nav_only": Outcome("authenticating", 2, {"tag_mismatch": 80}, 0, TSF_TARGET),
    "tsr_realtime_29_5": Outcome("authenticating", 0, {"authentic": 80}, 10, TRUE_SITE),
    "tsr_realtime_30_5": Outcome("ts_failed", 0, {}, 0, TRUE_SITE),
    "tsr_recorded_32_mitm": Outcome("authenticating", 0, {"authentic": 80}, 10, TRUE_SITE),
    "tsr_recorded_32_no_mitm": Outcome("ts_failed", 0, {}, 0, TRUE_SITE),
    "long_clean": Outcome("authenticating", 0, {"authentic": 976}, 122, TRUE_SITE),
    "long_forgery": Outcome("authenticating", 0, {"authentic": 464}, 58, TSF_TARGET),
}

# sha256 of each report's bytes at the default seed.  The nine paper
# reports are those of `osnmasim run scenarios/*.json`.
DIGESTS = {
    "baseline": "ff4ee49091737ff927cf0c5391cc14df0987f3fd678aa89fe727dc01c09ea819",
    "cr_delay_1_4": "d517cfe9688b85bede4135c1831bdb29d1fa4cb73a8bc4c38ff8a4d7969ae789",
    "cr_delay_1_5": "0f53a5e6046f568f115077e8c253424c684aa3c40729cc652e7250cdea9cca1f",
    "tsf_full": "342f9e5bd329f352fcd5fda4182e8db2de5325a0a65214e2e83080993ec3bcc3",
    "tsf_nav_only": "194f7d62d8a6e3c27686928cc2228ce3048dbb33920f0d24e6a3b6b667c435c4",
    "tsr_realtime_29_5": "cd732cce5377140dff05eaafc97bd81419501d6415afb6778d2814b88f24d793",
    "tsr_realtime_30_5": "92cba294ac708a1a24ca895372bc17cba8162ff5e6068ecdffda445589b7e8c8",
    "tsr_recorded_32_mitm": "c13dab28633c4e575af3904127eb3754f6ce47de7ae436999ab60d49838c6a91",
    "tsr_recorded_32_no_mitm": "559f7f863eacbb2be9704e2af2504d884db4086319ea5d4e94d6f68315b8563e",
    "long_clean": "51c29ffceb95b296f87266a9a522f47e1dc95a90be37b3e1b06352cf2a1941bf",
    "long_forgery": "f7e576d29ed94863fd960e17f4f96216cc9a5a98a9248b2712f7e7886d349291",
}


def geodetic_to_ecef(lat_deg: float, lon_deg: float, height_m: float) -> tuple:
    """WGS-84 geodetic to ECEF metres, independent of the program under test."""
    a, e2 = 6378137.0, 6.69437999014e-3
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    n = a / math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
    return ((n + height_m) * math.cos(lat) * math.cos(lon),
            (n + height_m) * math.cos(lat) * math.sin(lon),
            (n * (1.0 - e2) + height_m) * math.sin(lat))


def check_report(stem: str, text: bytes, seed: int) -> str | None:
    """Why the report of one scenario execution is wrong, or None."""
    expected = OUTCOMES[stem]
    if seed == DEFAULT_SEED and hashlib.sha256(text).hexdigest() != DIGESTS.get(stem):
        return "report bytes differ from the pinned digest"
    try:
        report = json.loads(text)
        status = report["receiver"]["status"]
        verdicts = Counter(v["outcome"] for v in report["receiver"]["verdicts"])
        fixes = report["auth_fixes"]
        exit_code = report["exit_code"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    if status != expected.status:
        return f"status {status}, expected {expected.status}"
    if exit_code != expected.exit_code:
        return f"report exit code {exit_code}, expected {expected.exit_code}"
    if dict(verdicts) != expected.verdicts:
        return f"verdicts {dict(verdicts)}, expected {expected.verdicts}"
    if len(fixes) != expected.auth_fixes:
        return f"{len(fixes)} authenticated fixes, expected {expected.auth_fixes}"
    want = geodetic_to_ecef(*expected.fix_at)
    for gst, fix in fixes.items():
        try:
            miss = math.dist(fix["ecef_m"], want)
        except (KeyError, TypeError, ValueError):
            return f"authenticated fix at {gst} has no position: {fix}"
        if not miss <= FIX_TOLERANCE_M:
            return f"authenticated fix at {gst} is {miss:.3g} m off"
    return None


def check_execution(workload: Workload, seed: int, cli_exit: int,
                    report_dir: Path) -> list:
    """Check every scenario execution of one CLI run.

    Returns (stem, sha256 or None, failure reason or None) per scenario.  A
    CLI exit code other than the expected one fails every execution of the
    run, since it cannot be attributed to one scenario.
    """
    results = []
    stems = [workload.name] if workload.resize else list(workload.sources)
    for stem in stems:
        path = report_dir / f"{stem}.report.json"
        if not path.is_file():
            results.append((stem, None, "no report written"))
            continue
        text = path.read_bytes()
        reason = check_report(stem, text, seed)
        if cli_exit != workload.cli_exit:
            reason = f"cli exit code {cli_exit}, expected {workload.cli_exit}"
        results.append((stem, hashlib.sha256(text).hexdigest(), reason))
    return results
