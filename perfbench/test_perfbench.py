"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench

They start real ``osnmasim run`` processes, so they take about a minute.
They live outside the package's ``testpaths`` and do not slow its suite.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
import run
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, check_execution

ROOT = Path(__file__).resolve().parent.parent


def bench_last_line(*args) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_benchmark_json_matches_metrics_and_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [(name, *spec) for name, spec in metrics.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(name, unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()]


@pytest.mark.parametrize("trace, names", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_smoke_run_emits_every_named_metric(trace, names):
    result = bench_last_line("--workload", "long_forgery", "--seconds", "0",
                             "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name, value in result["metrics"].items():
        assert value["unit"] == names[name][0]
        assert isinstance(value["value"], (int, float))


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """One real long_forgery repetition at the default seed."""
    work = tmp_path_factory.mktemp("genuine")
    bench = run.WorkloadRun(ROOT, "long_forgery", DEFAULT_SEED, work)
    proc, out = bench.repetition()
    assert proc.exit == 0 and bench.failed == 0
    return (out / "long_forgery.report.json").read_bytes()


def replay(monkeypatch, tmp_path, seed: int, report: bytes, exit_code: int):
    """A repetition whose CLI process writes ``report`` and exits ``exit_code``."""
    def fake_child(argv, env, log, deadline):
        out_dir = Path(argv[argv.index("--out-dir") + 1])
        (out_dir / "long_forgery.report.json").write_bytes(report)
        return run.Proc(exit_code, 1.0, 1.0, 50.0, log)

    monkeypatch.setattr(run, "run_child", fake_child)
    bench = run.WorkloadRun(ROOT, "long_forgery", seed, tmp_path)
    bench.repetition()
    return bench


def doctor_verdict(report: bytes) -> bytes:
    doc = json.loads(report)
    doc["receiver"]["verdicts"][0]["outcome"] = "tag_mismatch"
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def doctor_fix(report: bytes) -> bytes:
    doc = json.loads(report)
    first = next(iter(doc["auth_fixes"].values()))
    first["ecef_m"][0] += 0.01
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_genuine_report_matches_pinned_digest(genuine, monkeypatch, tmp_path):
    assert hashlib.sha256(genuine).hexdigest() == DIGESTS["long_forgery"]
    assert replay(monkeypatch, tmp_path, DEFAULT_SEED, genuine, 0).failed == 0
    assert replay(monkeypatch, tmp_path / "s1", 1, genuine, 0).failed == 0


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@pytest.mark.parametrize("doctor", [doctor_verdict, doctor_fix])
def test_doctored_report_fails(genuine, monkeypatch, tmp_path, seed, doctor):
    assert replay(monkeypatch, tmp_path, seed, doctor(genuine), 0).failed == 1


def test_one_changed_byte_fails_at_the_default_seed(genuine, monkeypatch, tmp_path):
    doctored = genuine.replace(b'"rounds": 64', b'"rounds": 65')
    assert doctored != genuine
    assert replay(monkeypatch, tmp_path, DEFAULT_SEED, doctored, 0).failed == 1


@pytest.mark.parametrize("exit_code", [1, 2])
def test_wrong_cli_exit_code_fails(genuine, monkeypatch, tmp_path, exit_code):
    assert replay(monkeypatch, tmp_path, DEFAULT_SEED, genuine, exit_code).failed == 1


def test_missing_report_fails(tmp_path):
    (tmp_path / "out").mkdir()
    [(stem, digest, reason)] = check_execution(WORKLOADS["long_clean"], 1, 0, tmp_path / "out")
    assert (stem, digest) == ("long_clean", None) and reason


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_batch"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("change, expected", [
    ([8.0, 8.1, 7.9, 8.2, 8.0], "improved"),
    ([10.1, 9.9, 10.2, 10.0, 10.3], "no worse"),
    ([13.0, 13.2, 12.9, 13.1, 13.0], "worse"),
    ([7.0, 13.0, 9.0, 12.0, 8.0], "unresolved"),
])
def test_compare_verdicts(change, expected):
    base = [10.0, 10.1, 9.9, 10.2, 10.0]
    assert compare.verdict(base, change, "lower", 0.2)[0] == expected


def test_compare_flags_digest_drift():
    def result(digest):
        return {"workload": "paper_batch", "seed": 1, "digests": {"baseline": [digest]}}

    assert compare.digest_drift([result("a")], [result("a")]) == (1, [])
    assert len(compare.digest_drift([result("a")], [result("b")])[1]) == 1
