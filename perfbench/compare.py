"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a result file written by ``run.py`` or a directory
of them (``.perfbench_out/results/`` of a checkout, copied aside).  Files
are grouped by workload and by traced or untraced run.  When a side has
several runs of a workload, each run's median is one sample; with a single
run, its repetitions are the samples.

For every workload and metric the comparison prints both medians and
quartiles, the ratio change/base, how many pairs the change won, and a
verdict under the rule of the choosing-metrics guide, section 8:

    improved    the change wins at least 9 in 10 pairs and the medians differ
                by more than the base's own quartile spread
    no worse    the change's median is within the metric's bound of the base
    worse       the change's median is past the bound
    unresolved  the run-to-run spread is wider than the bound and not every
                change sample beats every base sample

Per-layer metrics have no bound; they read improved, worse, same or
unresolved.  Any report digest that differs between the sides at the same
seed is flagged as drift.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics

WIN_SHARE = 0.9


def load(arg: str) -> list:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def group(results: list) -> dict:
    groups: dict = {}
    for r in results:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def samples(runs: list, name: str) -> list:
    if len(runs) == 1:
        return list(runs[0]["metrics"][name]["samples"])
    return [r["metrics"][name]["median"] for r in runs]


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base: list, change: list, better: str, bound) -> tuple:
    """(verdict, pairs won by the change, pairs compared)."""
    sign = 1 if better == "lower" else -1

    def beats(a, b):
        return sign * (b - a) > 0          # a is better than b

    pairs = list(zip(base, change))
    wins = sum(beats(c, b) for b, c in pairs)
    losses = sum(beats(b, c) for b, c in pairs)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    differs = abs(cm - bm) > b3 - b1
    if pairs and wins >= WIN_SHARE * len(pairs) and differs and beats(cm, bm):
        return "improved", wins, len(pairs)
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and differs:
            return "worse", wins, len(pairs)
        return ("same" if cm == bm else "unresolved"), wins, len(pairs)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(beats(c, b) for b in base for c in change):
        return "unresolved", wins, len(pairs)
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    return ("worse" if worse_by > bound else "no worse"), wins, len(pairs)


def digest_drift(base: list, change: list) -> tuple:
    """(report digests compared, lines for those that differ) at common seeds."""
    def table(results):
        out: dict = {}
        for r in results:
            for stem, digests in r["digests"].items():
                out.setdefault((r["workload"], r["seed"], stem), set()).update(digests)
        return out

    a, b = table(base), table(change)
    common = sorted(set(a) & set(b))
    return len(common), [f"{w} seed {s} {stem}: {sorted(a[k])} -> {sorted(b[k])}"
                         for k in common if a[k] != b[k] for w, s, stem in [k]]


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    specs = {name: (unit, better, bound)
             for name, (unit, better, bound) in metrics.END_TO_END.items()}
    specs.update({name: (unit, better, None)
                  for name, (unit, better, _) in metrics.PER_LAYER.items()})
    gb, gc = group(base), group(change)
    for key in sorted(set(gb) & set(gc)):
        workload, trace = key
        runs_b, runs_c = gb[key], gc[key]
        print(f"{workload} ({'traced' if trace else 'untraced'}): "
              f"base {len(runs_b)} run(s) at {runs_b[0]['context']['commit'][:12]}, "
              f"{runs_b[0]['context']['src_lines']} src lines; "
              f"change {len(runs_c)} run(s) at {runs_c[0]['context']['commit'][:12]}, "
              f"{runs_c[0]['context']['src_lines']} src lines")
        fails = (sum(r["failed"] for r in runs_b), sum(r["failed"] for r in runs_c))
        print(f"  failed executions: base {fails[0]}, change {fails[1]}")
        print(f"  {'metric':28s} {'base median [q1, q3]':30s} "
              f"{'change median [q1, q3]':30s} {'change/base':>11s}  wins  verdict")
        for name in runs_b[0]["metrics"]:
            if name not in runs_c[0]["metrics"] or name not in specs:
                continue
            unit, better, bound = specs[name]
            b, c = samples(runs_b, name), samples(runs_c, name)
            result, wins, n = verdict(b, c, better, bound)
            bm = statistics.median(b)
            ratio = statistics.median(c) / bm if bm else float("nan")
            print(f"  {name:28s} {fmt(b) + ' ' + unit:30s} {fmt(c) + ' ' + unit:30s} "
                  f"{ratio:11.4f}  {wins:2d}/{n:<2d} {result}")
    compared, drift = digest_drift(base, change)
    for line in drift:
        print(f"DIGEST DRIFT {line}")
    print(f"report digests: {compared} compared at common seeds, {len(drift)} drifted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
