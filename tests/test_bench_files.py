"""The committed benchmark records (BENCH_*.json) against BENCHMARK.json."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10          # a gain is claimed on at least ten parent/change pairs


def test_bench_records_claim_what_the_benchmark_measures():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        claim = json.loads(path.read_text())["claim"]
        metric = claim["claimed_metric"]
        assert metric in metrics, path.name
        assert claim["workloads"], path.name
        assert claim["pairs"] >= MIN_PAIRS, path.name
        for name, result in claim["workloads"].items():
            assert name in workloads, (path.name, name)
            assert min(result["parent_runs"], result["change_runs"]) \
                >= claim["pairs"], (path.name, name)
            assert metric in result["metrics"], (path.name, name)
