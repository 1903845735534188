"""Peak memory of a day-long run against a short one.

    PYTHONPATH=src python tests/day_length_rss.py

Runs scenarios/baseline.json resized to 8 satellites x 128 rounds and to
8 x 1,024 rounds (8.5 hours of GST), each as one `osnmasim run` in a
child process, prints each child's peak RSS, and exits 1 when the longer
run's peak exceeds the shorter's by more than BOUND_MB: what a run holds
beyond its report must not grow with its length.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BOUND_MB = 10
ROUNDS = (128, 1024)
BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def peak_rss_mb(scenario: Path, out_dir: str) -> float:
    """The peak RSS of one `osnmasim run` child, in MB (2**20 bytes)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "osnmasim.cli", "run", str(scenario),
         "--out-dir", out_dir], stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{scenario.name}: run failed")
    return usage.ru_maxrss / 1024


def main() -> int:
    cfg = json.loads(BASELINE.read_text())
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for rounds in ROUNDS:
            cfg["constellation"]["subframes"] = cfg["duration_rounds"] = rounds
            path = Path(tmp) / f"baseline_8x{rounds}.json"
            path.write_text(json.dumps(cfg))
            peaks.append(peak_rss_mb(path, tmp))
            print(f"8x{rounds}: peak RSS {peaks[-1]:.1f} MB")
    growth = peaks[1] - peaks[0]
    print(f"growth {growth:.1f} MB, bound {BOUND_MB} MB")
    return 0 if growth <= BOUND_MB else 1


if __name__ == "__main__":
    raise SystemExit(main())
