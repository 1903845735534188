"""The osnmasim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_batch|long_clean|long_forgery|all
                             [--seed N] [--seconds S] [--trace 0|1]

Every repetition is one ``osnmasim run`` process started in a fresh
interpreter, one at a time, single-threaded and with default flags.  The
benchmark writes the seed into copies of the workload's scenario files,
repeats the CLI run as often as fits in ``--seconds``, checks every report
against the outcome table in ``workloads.py`` and prints each metric by
name with its unit.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count scenario executions, and
``metrics`` holds the median of each metric.

``--trace 0`` reports the end-to-end metrics of ``metrics.END_TO_END``.
Set-up time is measured in processes of its own, so nothing it builds
reaches a timed repetition.  Times are scaled to a host of reference speed
(see ``calibrate``); the unscaled ones are printed beside them.

``--trace 1`` runs one repetition with every public osnmasim function
wrapped (see ``tracing.py``), then untraced repetitions for the tracing
overhead, then the unit-cost probes, and reports ``metrics.PER_LAYER``.

Each run also writes a result file with every sample, quartile, report
digest and the run context under ``.perfbench_out/results/``;
``compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import metrics
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, check_execution, scenario_sizes

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 3
RUN_LIMIT_S = 170          # every child is killed when a run reaches this
CAL_LOOP = 2_000_000
CAL_REF_S = 0.5            # CPU seconds of calibrate() on the reference host


class BenchError(RuntimeError):
    """The benchmark cannot measure: a probe failed or the checkout is wrong."""


@dataclass
class Proc:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path


def calibrate() -> float:
    """CPU seconds a fixed pure-Python bit-field loop takes on the host now.

    The benchmark host is shared and its speed drifts: the same repetition
    takes up to 1.5 times longer half an hour later, in CPU time as much as
    in wall time, while its time over this loop's time stays within a few
    percent.  An untraced run times the loop before its first child process
    and after each one, and scales its times by ``CAL_REF_S`` over the
    median loop time: seconds on a host of reference speed.  One loop is
    short enough to catch bursts of contention, hence the median.
    """
    buf = bytes(range(30))
    val = 0
    t0 = time.process_time()
    for i in range(CAL_LOOP):
        val = ((val << 1) | ((buf[(i >> 3) % 30] >> (7 - (i & 7))) & 1)) & 0xFFFFFF
    return time.process_time() - t0


def run_child(argv, env, log: Path, deadline: float) -> Proc:
    """Run one child process to completion and read its resource usage."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, log)


def summarize(samples: list, unit: str) -> dict:
    """Median, quartiles and count of a metric's samples."""
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def run_context(root: Path) -> dict:
    """Where the numbers came from; information only, never gated."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                 capture_output=True, text=True)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = root / "src" / "osnmasim"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
    }


class WorkloadRun:
    """One workload at one seed: scenario copies, repetitions and checks."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work
        self.workload = WORKLOADS[name]
        self.files = self.workload.write_scenarios(root / "scenarios", seed,
                                                   work / "scenarios")
        self.subframes, self.pages = scenario_sizes(self.files)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.executions = []            # (repetition, stem, sha256, reason)
        self.reps = 0

    def child(self, argv, label: str) -> Proc:
        return run_child([sys.executable, *map(str, argv)], self.env,
                         self.work / f"{label}.log", self.deadline)

    def probe(self, argv, label: str) -> Proc:
        proc = self.child(argv, label)
        if proc.exit != 0:
            tail = proc.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{label} exited {proc.exit}:\n{tail}")
        return proc

    def repetition(self, traced: bool = False) -> tuple:
        """One CLI run over the workload's scenarios, checked.

        Returns the process record and the report directory.
        """
        rep = self.reps
        self.reps += 1
        out = self.work / f"rep{rep}"
        out.mkdir()
        cli = ["run", *self.files, "--out-dir", out]
        if traced:
            argv = [BENCH_DIR / "tracing.py", self.work / "spans", *cli]
        else:
            argv = ["-m", "osnmasim.cli", *cli]
        proc = self.child(argv, f"rep{rep}")
        first = {stem: digest for _, stem, digest, _ in reversed(self.executions)}
        for stem, digest, reason in check_execution(self.workload, self.seed,
                                                    proc.exit, out):
            if reason is None and stem in first and digest != first[stem]:
                reason = "report differs from the first repetition's"
            self.executions.append((rep, stem, digest, reason))
        return proc, out

    def repeat_for(self, seconds: float, cal_s: list | None = None) -> list:
        """Untraced repetitions that fit in ``seconds``; at least one.

        Given ``cal_s``, each is followed by a ``calibrate()`` appended to it.
        Another repetition starts only while the mean repetition so far
        would still end within ``seconds``.
        """
        procs = []
        t0 = time.monotonic()
        while True:
            procs.append(self.repetition()[0])
            if cal_s is not None:
                cal_s.append(calibrate())
            elapsed = time.monotonic() - t0
            if elapsed * (len(procs) + 1) / len(procs) > seconds:
                return procs

    @property
    def failed(self) -> int:
        return sum(reason is not None for *_, reason in self.executions)

    def end_to_end(self, seconds: float) -> dict:
        self.probe(["-c", "import osnmasim"], "warmup")
        cal_s = [calibrate()]
        setup = []
        for i in range(SETUP_RUNS):
            setup.append(self.probe([BENCH_DIR / "probes.py", "setup", *self.files],
                                    f"setup{i}").wall_s)
            cal_s.append(calibrate())
        procs = self.repeat_for(seconds, cal_s)
        scale = CAL_REF_S / statistics.median(cal_s)
        samples = {
            "wall_s": [scale * p.wall_s for p in procs],
            "cpu_s": [scale * p.cpu_s for p in procs],
            "subframes_per_s": [self.subframes / (scale * p.cpu_s) for p in procs],
            "setup_s": [scale * t for t in setup],
            "peak_rss_mb": [p.rss_mb for p in procs],
            "raw_wall_s": [p.wall_s for p in procs],
            "raw_cpu_s": [p.cpu_s for p in procs],
            "raw_setup_s": setup,
            "cal_s": cal_s,
        }
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
        units.update(metrics.RAW)
        return {name: summarize(samples[name], unit) for name, unit in units.items()}

    def per_layer(self, seconds: float) -> dict:
        self.probe(["-c", "import osnmasim"], "warmup")
        traced, out = self.repetition(traced=True)
        spans = tracing.Spans(str(self.work / "spans"))
        untraced = statistics.median(p.wall_s for p in self.repeat_for(seconds))
        values = tracing.layer_metrics(
            spans, wall_s=traced.wall_s, overhead=traced.wall_s / untraced - 1.0,
            pages=self.pages, authentic=count_authentic(out))
        micro = self.probe([BENCH_DIR / "probes.py", "micro"], "micro")
        values.update(json.loads(micro.log.read_text().splitlines()[-1]))
        return {name: summarize([values[name]], unit)
                for name, (unit, _, _) in metrics.PER_LAYER.items()}


def count_authentic(report_dir: Path) -> int:
    total = 0
    for path in report_dir.glob("*.report.json"):
        try:
            verdicts = json.loads(path.read_text())["receiver"]["verdicts"]
        except (ValueError, KeyError, TypeError):
            continue
        total += sum(v.get("outcome") == "authentic" for v in verdicts)
    return total


def bench(root: Path, name: str, args, work: Path) -> dict:
    run = WorkloadRun(root, name, args.seed, work)
    measure = run.per_layer if args.trace else run.end_to_end
    stats = measure(args.seconds)
    gated = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    attempted = len(run.executions)
    digests: dict = {}
    for _, stem, digest, _ in run.executions:
        digests.setdefault(stem, [])
        if digest not in digests[stem]:
            digests[stem].append(digest)
    return {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": run_context(root),
        "attempted": attempted,
        "failed": run.failed,
        "failed_frac": run.failed / attempted,
        "failures": [f"rep{rep} {stem}: {reason}"
                     for rep, stem, _, reason in run.executions if reason],
        "digests": digests,
        "metrics": {k: v for k, v in stats.items() if k in gated},
        "raw": {k: v for k, v in stats.items() if k not in gated},
    }


def print_result(result: dict) -> None:
    ctx = result["context"]
    mode = "traced, per-layer metrics" if result["trace"] else "untraced, end-to-end metrics"
    print(f"workload {result['workload']}, seed {result['seed']}, "
          f"{result['seconds']} s, {mode}")
    print("  context: " + ", ".join(f"{k} {v}" for k, v in ctx.items()))
    print(f"  executions: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_frac {result['failed_frac']:.4g}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    for name, m in {**result["metrics"], **result["raw"]}.items():
        note = "" if name in result["metrics"] else "  (raw, not gated)"
        print(f"  {name:28s} {m['median']:14.6g} {m['unit']:9s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "osnmasim" / "__init__.py").is_file() \
            or not (root / "scenarios").is_dir():
        print(f"error: {root} is not an osnmasim checkout "
              "(src/osnmasim and scenarios/ are required)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = root / OUT_DIR / f"work-{os.getpid()}"
    results_dir = root / OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            result = bench(root, name, args, work / name)
            path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            print_result(result)
            print(f"  result file: {path.relative_to(root)}")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def metric_key(result, name):
        return name if len(results) == 1 else f"{result['workload']}/{name}"

    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {metric_key(r, name): {"value": m["median"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
