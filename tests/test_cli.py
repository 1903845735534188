import argparse
import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

from osnmasim.cli import build_parser, main
from osnmasim.vectors import TestVectorSet
from test_scenario import REPORT_DIGESTS

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


@pytest.fixture(autouse=True)
def _session_blas_threads(monkeypatch):
    """main() sets the BLAS thread count for its process; an in-process
    call leaves the test session's environment as it found it."""
    monkeypatch.delenv(BLAS_THREADS, raising=False)


def _fresh(probe: str, **env) -> str:
    """The last stdout line of `probe` run in a fresh interpreter that
    finds osnmasim in src/, with OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**base, **env},
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


# the two OpenSSL bindings: cryptography's, and the stdlib's _hashlib that
# hashlib and hmac load
UNLOADED = ("cryptography", "hashlib", "hmac", "_hashlib")


def _run_shipped(tmp_path, show: str, names=("baseline",), **env) -> str:
    """Run the shipped scenarios named through one cli.main call in a fresh
    interpreter (see _fresh) and check that each report keeps its pinned
    bytes; returns the exit code and the expression `show` evaluated after
    the run."""
    paths = [str(SCENARIO_DIR / f"{name}.json") for name in names]
    probe = (
        "import os, sys\n"
        "from osnmasim import cli\n"
        f"code = cli.main(['run', *{paths!r},"
        f" '--out-dir', {str(tmp_path)!r}])\n"
        f"print(code, {show})\n")
    line = _fresh(probe, **env)
    for name in names:
        text = (tmp_path / f"{name}.report.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == REPORT_DIGESTS[name], name
    return line


def test_a_run_loads_no_openssl(tmp_path):
    """Every hash, HMAC and signature of a run goes through osnmasim.crypto
    over CPython's built-in SHA-256: a fresh interpreter that runs a
    scenario never imports cryptography, hashlib, hmac or _hashlib."""
    assert _run_shipped(
        tmp_path, f"[m for m in {UNLOADED!r} if m in sys.modules]") == "0 []"


def test_commands_that_never_solve_load_no_numpy(tmp_path):
    """numpy loads only to solve a position: importing every osnmasim
    module leaves numpy unloaded and the environment untouched, and so
    does every command but `run`."""
    con, report = tmp_path / "con", tmp_path / "report.json"
    report.write_text("{}")
    commands = [
        ["gen-constellation", "--seed", "3", "--sats", "4", "--subframes",
         "3", "--out-dir", str(con)],
        ["vectors", "validate", str(con / "vectors.csv")],
        ["forge", "tsf", "--vectors", str(con / "vectors.csv"),
         "--out", str(tmp_path / "forged.csv")],
        ["report", "diff", str(report), str(report)],
    ]
    probe = (
        "import importlib, os, pkgutil, sys\n"
        "import osnmasim\n"
        "before = dict(os.environ)\n"
        "for m in pkgutil.iter_modules(osnmasim.__path__):\n"
        "    importlib.import_module('osnmasim.' + m.name)\n"
        "from osnmasim import cli\n"
        "seen = [dict(os.environ) == before, 'numpy' in sys.modules]\n"
        f"for argv in {commands!r}:\n"
        "    seen.append((cli.main(argv), 'numpy' in sys.modules))\n"
        "print(seen)\n")
    assert _fresh(probe) == str([True, False] + [(0, False)] * 4)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no /proc/self/task to count threads in")
def test_a_run_ends_on_one_thread(tmp_path):
    """The CLI gives OpenBLAS one thread before numpy loads, so a run that
    solves ends with the interpreter's one thread."""
    assert _run_shipped(
        tmp_path, f"os.environ.get({BLAS_THREADS!r}),"
        " len(os.listdir('/proc/self/task'))") == "0 1 1"


def test_a_thread_count_the_caller_set_is_kept(tmp_path):
    """main() keeps an OPENBLAS_NUM_THREADS the caller set, and the thread
    count changes no byte of the nine shipped reports, run in one process
    (exit 2: two of them end with failure verdicts)."""
    assert _run_shipped(tmp_path, f"os.environ[{BLAS_THREADS!r}]",
                        REPORT_DIGESTS, **{BLAS_THREADS: "2"}) == "2 2"


def _dynamic_arch_openblas() -> bool:
    """Whether numpy links an OpenBLAS that picks its kernel at load."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # a numpy too old to report it
        return False
    return "openblas" in blas.get("name", "") and \
        "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1b: reports print the solver's "
                          "last-bit noise, which depends on the BLAS kernel")
def test_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """The baseline report keeps its pinned bytes under two SSE kernels
    that run on any x86-64, forced one per child process."""
    if platform.machine().lower() not in ("x86_64", "amd64") or \
            not _dynamic_arch_openblas():
        pytest.skip("needs an x86-64 host and a DYNAMIC_ARCH OpenBLAS")
    for kernel in ("Prescott", "Nehalem"):
        assert _run_shipped(tmp_path / kernel,
                             "os.environ['OPENBLAS_CORETYPE']",
                             OPENBLAS_CORETYPE=kernel) == f"0 {kernel}"


def test_the_command_surface(tmp_path, capsys):
    """The command line offers exactly these commands: gen-constellation
    writes the one chain description, beside the vectors it signs."""
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == ["gen-constellation", "vectors", "forge",
                              "run", "report"]
    out = tmp_path / "chain.json"
    with pytest.raises(SystemExit) as exit_:
        main(["gen-chain", "--seed", "3", "--n", "20", "--out", str(out)])
    assert exit_.value.code == 2
    assert "invalid choice: 'gen-chain'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_constellation_writes_outputs(tmp_path, capsys):
    out = tmp_path / "con"
    assert main(["gen-constellation", "--seed", "3", "--sats", "4",
                 "--subframes", "9", "--out-dir", str(out)]) == 0
    vectors = TestVectorSet.load(out / "vectors.csv")
    assert [len(sfs) for sfs in vectors.subframes().values()] == [9] * 4
    assert capsys.readouterr().out.startswith(
        f"wrote {out / 'vectors.csv'} (540 rows) and ")
    chain = json.loads((out / "chain.json").read_text())
    assert set(chain) >= {"gst0", "delta_t", "n", "seed_hex", "root_hex",
                          "pubkey_pem"}
    assert "PRIVATE" not in (out / "chain.json").read_text()
    # the root slot's key, one per subframe, and the one after the last
    assert chain["n"] == 9 + 2
    assert len(bytes.fromhex(chain["root_hex"])) == 16
    pubkey = serialization.load_pem_public_key(chain["pubkey_pem"].encode())
    assert isinstance(pubkey.curve, ec.SECP256R1)


def test_gen_constellation_names_the_root_field_that_does_not_fit(tmp_path,
                                                                  capsys):
    code = main(["gen-constellation", "--sats", "4", "--subframes", "3",
                 "--wn", "5000", "--out-dir", str(tmp_path / "con")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: wnk 5000 does not fit 12 bits\n"
    assert not (tmp_path / "con").exists()


def test_vectors_validate_ok(tmp_path, capsys):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "9", "--out-dir", str(out)])
    capsys.readouterr()
    assert main(["vectors", "validate", str(out / "vectors.csv")]) == 0
    assert capsys.readouterr().out == "ok: 540 pages, 36 subframes\n"


def test_vectors_validate_rejects_corruption(tmp_path, capsys):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "9", "--out-dir", str(out)])
    path = out / "vectors.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    page = row[-1]                      # digit 20: bits 80..83, nav data
    row[-1] = page[:20] + format(int(page[20], 16) ^ 1, "x") + page[21:]
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["vectors", "validate", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"invalid: 1 page(s) fail CRC: [({', '.join(row[:4])})]\n"


def test_vectors_validate_reads_a_foreign_layout_through_its_mapping(
        tmp_path, capsys):
    """A copy with renamed columns and pages counted from 0 validates
    through a mapping file that names both."""
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(out)])
    rows = [line.split(",") for line in
            (out / "vectors.csv").read_text().splitlines()[1:]]
    path = tmp_path / "foreign.csv"
    path.write_text("WEEK,TOW,SV,PAGE,HEX\n" + "".join(
        f"{wn},{tow},{prn},{int(index) - 1},{page}\n"
        for wn, tow, prn, index, page in rows))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({
        "columns": {"wn": "WEEK", "tow": "TOW", "prn": "SV",
                    "page_index": "PAGE", "page_hex": "HEX"},
        "page_index_base": 0}))
    capsys.readouterr()
    assert main(["vectors", "validate", str(path),
                 "--mapping", str(mapping)]) == 0
    assert capsys.readouterr().out == "ok: 180 pages, 12 subframes\n"


@pytest.mark.parametrize("argv,failure", [
    (["vectors", "validate", "big.csv"], "invalid"),
    (["forge", "tsf", "--vectors", "big.csv", "--out", "forged.csv"], "error"),
])
def test_a_field_past_the_csv_size_limit_is_one_line(tmp_path, monkeypatch,
                                                     capsys, argv, failure):
    """A field longer than the csv module reads is one line naming its row,
    not a csv.Error traceback."""
    monkeypatch.chdir(tmp_path)
    limit = csv.field_size_limit()
    Path("big.csv").write_text("wn,tow,prn,page_index,page_hex\n"
                               f"1251,277200,1,1,{'a' * (limit + 1)}\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"{failure}: field larger than field limit ({limit}) (row 2)\n"
    assert not Path("forged.csv").exists()


def test_vectors_out_of_range_tow_is_invalid(tmp_path, capsys):
    """A tow no GST can hold is named with its row at load, by both
    vectors validate and forge tsf."""
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(out)])
    path = out / "vectors.csv"
    lines = path.read_text().splitlines()
    for r in range(1, 16):
        wn, _, rest = lines[r].split(",", 2)
        lines[r] = ",".join([wn, "700000", rest])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["vectors", "validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid:") and "ok" not in captured.out
    assert "tow 700000" in captured.err and "row 2, column 'tow'" in captured.err
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(path),
                 "--out", str(forged)]) == 1
    assert "row 2, column 'tow'" in capsys.readouterr().err
    assert not forged.exists()


def test_forge_tsf_roundtrip(tmp_path):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "9", "--out-dir", str(out)])
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(out / "vectors.csv"),
                 "--iono-a0", "7", "--out", str(forged)]) == 0
    loaded = TestVectorSet.load(forged)      # validates CRCs on load
    assert [len(sfs) for sfs in loaded.subframes().values()] == [9] * 4


def test_forge_tsf_rejects_a_gap(tmp_path, capsys):
    """A satellite whose recorded subframes skip a GST is rejected, its PRN
    and first missing GST named, though each subframe on its own is
    valid: the forged tags would be computed under a key that is not two
    subframes later."""
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "6", "--out-dir", str(out)])
    path = out / "vectors.csv"
    lines = path.read_text().splitlines()
    lines = [line for line in lines if not line.startswith("1251,277260,1,")]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["vectors", "validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 345 pages, 23 subframes\n"
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(path),
                 "--out", str(forged)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: prn 1: subframe at wn 1251 tow 277260 is missing; a stream "
        "needs consecutive subframes"]
    assert not forged.exists()


def test_forge_tsf_of_a_file_with_no_subframes_is_an_error(tmp_path, capsys):
    """A header-only vector file is a well-formed empty set, but holds
    nothing to forge: one error line, exit 1, no file written."""
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(out)])
    path = tmp_path / "empty.csv"
    path.write_text((out / "vectors.csv").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["vectors", "validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 0 pages, 0 subframes\n"
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(path),
                 "--out", str(forged)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path} holds no subframes to forge"]
    assert not forged.exists()


def test_forge_tsf_out_of_range_iono_is_an_error(tmp_path, capsys):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "5", "--out-dir", str(out)])
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(out / "vectors.csv"),
                 "--iono-a0", "3000", "--out", str(forged)]) == 1
    assert capsys.readouterr().err == \
        "error: iono_a0 3000 does not fit 11 bits\n"
    assert not forged.exists()


def test_forge_tsf_too_many_segments_is_an_error(tmp_path, capsys):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "5", "--out-dir", str(out)])
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(out / "vectors.csv"),
                 "--segments", "12", "--out", str(forged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "12 segments" in err
    assert not forged.exists()


def test_run_writes_report_and_exit_code(tmp_path):
    rc = main(["run", str(SCENARIO_DIR / "baseline.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "baseline.report.json").read_text())
    assert report["receiver"]["status"] == "authenticating"

    rc = main(["run", str(SCENARIO_DIR / "tsf_nav_only.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_run_writes_the_same_bytes_to_a_file_and_to_stdout(tmp_path, capsys):
    path = str(SCENARIO_DIR / "cr_delay_1_4.json")
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.encode() == \
        (tmp_path / "cr_delay_1_4.report.json").read_bytes()


def test_run_batch(tmp_path):
    rc = main(["run", str(SCENARIO_DIR / "baseline.json"),
               str(SCENARIO_DIR / "cr_delay_1_5.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "baseline.report.json").exists()
    assert (tmp_path / "cr_delay_1_5.report.json").exists()


def _run_after_baseline(tmp_path, capsys, cfg) -> str:
    """Run baseline then a bad file; no report may be written."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    reports = tmp_path / "reports"
    reports.mkdir()
    assert main(["run", str(SCENARIO_DIR / "baseline.json"), str(bad),
                 "--out-dir", str(reports)]) == 1
    assert list(reports.iterdir()) == []
    return capsys.readouterr().err


def test_run_checks_every_file_before_running_any(tmp_path, capsys):
    cfg = json.loads((SCENARIO_DIR / "tsr_realtime_30_5.json").read_text())
    cfg["attack"]["delay"] = cfg["attack"].pop("delay_s")
    err = _run_after_baseline(tmp_path, capsys, cfg)
    assert "bad.json: $.attack.delay: unknown key" in err


def test_run_checks_value_ranges_before_running_any(tmp_path, capsys):
    cfg = json.loads((SCENARIO_DIR / "baseline.json").read_text())
    cfg["constellation"]["wn"] = 4096
    err = _run_after_baseline(tmp_path, capsys, cfg)
    assert "bad.json: $.constellation.wn: 4096 is outside 0..4095" in err


def test_run_creates_missing_out_dir(tmp_path):
    out = tmp_path / "new" / "reports"
    assert main(["run", str(SCENARIO_DIR / "baseline.json"),
                 "--out-dir", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["baseline.report.json"]


def test_run_rejects_two_files_with_one_report_path(tmp_path, capsys):
    text = (SCENARIO_DIR / "baseline.json").read_text()
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.json").write_text(text)
    out = tmp_path / "reports"
    assert main(["run", str(tmp_path / "a" / "x.json"),
                 str(tmp_path / "b" / "x.json"), "--out-dir", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(tmp_path / "a" / "x.json") in err
    assert str(tmp_path / "b" / "x.json") in err


def test_run_missing_scenario_is_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_report_diff(tmp_path, capsys):
    main(["run", str(SCENARIO_DIR / "baseline.json"), "--out-dir", str(tmp_path)])
    a = tmp_path / "baseline.report.json"
    assert main(["report", "diff", str(a), str(a)]) == 0

    main(["run", str(SCENARIO_DIR / "cr_delay_1_4.json"),
          "--out-dir", str(tmp_path)])
    b = tmp_path / "cr_delay_1_4.report.json"
    capsys.readouterr()
    assert main(["report", "diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.strip()


def test_report_diff_missing_file_is_an_error(tmp_path, capsys):
    assert main(["report", "diff", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a.json" in err


@pytest.mark.parametrize("repeated", ("a", "b"))
def test_report_diff_repeated_key_is_an_error(tmp_path, capsys, repeated):
    """A key given twice is named, not read as its last value: the two
    reports below would otherwise compare equal."""
    paths = {name: tmp_path / f"{name}.json" for name in "ab"}
    for name, path in paths.items():
        path.write_text('{"exit_code": 0, "exit_code": 2}'
                        if name == repeated else '{"exit_code": 2}')
    assert main(["report", "diff", str(paths["a"]), str(paths["b"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {paths[repeated]}: repeated key 'exit_code'\n"


# the ids are pinned so that each case keeps its name when an entry
# leaves the table
@pytest.mark.parametrize("argv,words", [
    pytest.param(["gen-constellation", "--sats", "3", "--out-dir"],
                 "four satellites", id="argv0-four satellites"),
    pytest.param(["gen-constellation", "--subframes", "0", "--out-dir"],
                 "subframes", id="argv2-subframes"),
    pytest.param(["gen-constellation", "--subframes", "-2", "--out-dir"],
                 "subframes", id="argv3-subframes"),
])
def test_generator_bad_argument_is_an_error(tmp_path, capsys, argv, words):
    assert main([*argv, str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err
    assert not (tmp_path / "out").exists()


# the ids are pinned so that each case keeps its name when its message
# changes
@pytest.mark.parametrize("mapping,words", [
    pytest.param("{bad", "line 1", id="{bad-line 1"),
    pytest.param('{"page_index_base": "0"}',
                 "$.page_index_base: expected int, got '0'",
                 id="""{"page_index_base": "0"}-'page_index_base'"""),
    pytest.param('{"colums": {"wn": "WEEK"}}', "$.colums: unknown key",
                 id="""{"colums": {"wn": "WEEK"}}-'colums'"""),
    pytest.param('{"columns": {"week": "WEEK"}}',
                 "$.columns.week: unknown key",
                 id="""{"columns": {"week": "WEEK"}}-'week'"""),
])
def test_vectors_validate_bad_mapping_is_invalid(tmp_path, capsys, mapping,
                                                 words):
    """One `invalid:` line that names the mapping file once, then what is
    wrong with it."""
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(out)])
    path = tmp_path / "mapping.json"
    path.write_text(mapping)
    capsys.readouterr()
    assert main(["vectors", "validate", str(out / "vectors.csv"),
                 "--mapping", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"invalid: {path}: ")
    assert words in captured.err and captured.err.count(str(path)) == 1
    assert captured.err.count("\n") == 1
    assert "ok" not in captured.out


@pytest.mark.parametrize("command", ["run", "vectors validate", "report diff"])
def test_every_json_input_is_named_once(tmp_path, capsys, command):
    """Scenario, mapping and report files are read by one reader: a key
    given twice in any of them is one error line naming the file once."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1, "seed": 2}')
    argv = {"run": ["run", str(bad)],
            "vectors validate": ["vectors", "validate",
                                 str(tmp_path / "con" / "vectors.csv"),
                                 "--mapping", str(bad)],
            "report diff": ["report", "diff", str(bad), str(bad)]}[command]
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(tmp_path / "con")])
    capsys.readouterr()
    assert main(argv) == 1
    failure = "invalid" if command == "vectors validate" else "error"
    assert capsys.readouterr().err == \
        f"{failure}: {bad}: repeated key 'seed'\n"


@pytest.mark.parametrize("command", ["run", "vectors validate", "report diff"])
def test_json_nested_past_the_recursion_limit_is_one_line(tmp_path, capsys,
                                                          command):
    """A JSON input nested deeper than the parser recurses is one error
    line naming the file, not a RecursionError traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    argv = {"run": ["run", str(deep)],
            "vectors validate": ["vectors", "validate",
                                 str(tmp_path / "con" / "vectors.csv"),
                                 "--mapping", str(deep)],
            "report diff": ["report", "diff", str(deep), str(deep)]}[command]
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(tmp_path / "con")])
    capsys.readouterr()
    assert main(argv) == 1
    failure = "invalid" if command == "vectors validate" else "error"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{failure}: {deep}: maximum recursion")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,failure", [
    (["vectors", "validate", "vectors.csv"], "invalid"),
    (["forge", "tsf", "--vectors", "vectors.csv", "--out", "forged.csv"],
     "error"),
])
def test_a_repeated_column_is_one_line(tmp_path, monkeypatch, capsys, argv,
                                       failure):
    """A header that names the week column twice is rejected by name, not
    read from the last of the two: the first holds a week no GST has."""
    monkeypatch.chdir(tmp_path)
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", "."])
    lines = Path("vectors.csv").read_text().splitlines()
    Path("vectors.csv").write_text("\n".join(
        [f"wn,{lines[0]}"] + [f"99999,{line}" for line in lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"{failure}: repeated column (row 1, column 'wn')\n"
    assert not Path("forged.csv").exists()


# sha256 of the outputs of `gen-constellation --seed 3 --sats 4
# --subframes 6` and of `forge tsf` (default options) on its vector set
GEN_FORGE_DIGESTS = {
    "vectors.csv": "928649d13965171ed31d9eb6b9098c57bcf7762a7034eac3d60934c5991b9840",
    "chain.json": "521de5361a4eb47e7b28c80f66757489fd873071e4a211564fcd4fcb7b7e2bac",
    "forged.csv": "7f5232a1899ec8085a24791fca706011ad6355c4c36062e7e05b596eba6dc0ef",
    "forged_no_tags.csv": "2d002d12a0efb57926c636dd9ed2cab8d4dd1d091397257f0c00f03f23517e08",
}


def test_generated_and_forged_files_keep_their_bytes(tmp_path):
    out = tmp_path / "con"
    assert main(["gen-constellation", "--seed", "3", "--sats", "4",
                 "--subframes", "6", "--out-dir", str(out)]) == 0
    vectors = str(out / "vectors.csv")
    assert main(["forge", "tsf", "--vectors", vectors,
                 "--out", str(out / "forged.csv")]) == 0
    assert main(["forge", "tsf", "--vectors", vectors, "--no-tags",
                 "--out", str(out / "forged_no_tags.csv")]) == 0
    for name, digest in GEN_FORGE_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name


def test_forge_tsf_takes_no_target(tmp_path, capsys):
    """The forgery rewrites corrections, not positions: a target flag is
    an unknown argument."""
    forged = tmp_path / "forged.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["forge", "tsf", "--vectors", str(tmp_path / "vectors.csv"),
              "--lat", "4", "--out", str(forged)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --lat 4" in capsys.readouterr().err
    assert not forged.exists()


@pytest.mark.parametrize("texts", (("[1]", "[1, 2]"), ('{"a": 1}', "1"),
                                   ("null", '{"a": 1}')))
def test_report_diff_rejects_a_top_level_that_is_not_an_object(
        tmp_path, capsys, texts):
    """A report is a JSON object: any other top level is named as the
    first file that holds one, not compared path by path."""
    paths = [tmp_path / f"{name}.json" for name in "ab"]
    for path, text in zip(paths, texts):
        path.write_text(text + "\n")
    assert main(["report", "diff", *map(str, paths)]) == 1
    bad = paths[0] if not texts[0].startswith("{") else paths[1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {bad}: not a report: no top-level JSON object\n"
