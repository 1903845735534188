import hashlib
import json
from pathlib import Path

import pytest

from osnmasim.cli import main
from osnmasim.vectors import TestVectorSet

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_gen_chain(tmp_path):
    out = tmp_path / "chain.json"
    assert main(["gen-chain", "--seed", "5", "--n", "40",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 40


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
    row[-1] = ("f" if row[-1][0] != "f" else "0") + row[-1][1:]
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(["vectors", "validate", str(path)]) == 1
    assert "invalid" in capsys.readouterr().err


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
        "error: prn 1: subframe at wn 1251 tow 277260 is missing; forgery "
        "needs consecutive subframes"]
    assert not forged.exists()


def test_forge_tsf_out_of_range_iono_is_an_error(tmp_path, capsys):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "5", "--out-dir", str(out)])
    forged = tmp_path / "forged.csv"
    assert main(["forge", "tsf", "--vectors", str(out / "vectors.csv"),
                 "--iono-a0", "3000", "--out", str(forged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "iono_a0" in err
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


@pytest.mark.parametrize("argv,words", [
    (["gen-constellation", "--sats", "3", "--out-dir"], "four satellites"),
    (["gen-chain", "--n", "0", "--out"], "one hash step"),
    (["gen-constellation", "--subframes", "0", "--out-dir"], "subframes"),
    (["gen-constellation", "--subframes", "-2", "--out-dir"], "subframes"),
])
def test_generator_bad_argument_is_an_error(tmp_path, capsys, argv, words):
    assert main([*argv, str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mapping,words", [
    ("{bad", "line 1"),
    ('{"page_index_base": "0"}', "'page_index_base'"),
    ('{"colums": {"wn": "WEEK"}}', "'colums'"),
    ('{"columns": {"week": "WEEK"}}', "'week'"),
])
def test_vectors_validate_bad_mapping_is_invalid(tmp_path, capsys, mapping,
                                                 words):
    out = tmp_path / "con"
    main(["gen-constellation", "--seed", "3", "--sats", "4",
          "--subframes", "3", "--out-dir", str(out)])
    path = tmp_path / "mapping.json"
    path.write_text(mapping)
    capsys.readouterr()
    assert main(["vectors", "validate", str(out / "vectors.csv"),
                 "--mapping", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid:") and words in captured.err
    assert "ok" not in captured.out


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
