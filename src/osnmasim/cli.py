"""Command-line front end.

Subcommands:
    gen-constellation   write a synthetic vector set + chain description
    gen-chain           write a chain description only
    vectors validate    schema- and CRC-check a vector CSV
    forge tsf           rewrite a vector set's corrections and re-tag it
    run                 execute scenario files, write JSON reports
    report diff         compare two reports

Exit codes for `run`: 0 clean, 2 when verification-failure verdicts are
present.  Every subcommand reports bad input or an unreadable file as one
`error:` line (`invalid:` for `vectors validate`) and exits 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .attacks import TsfConfig, tsf_forge_subframes
from .gst import Gst
from .pages import SLOTS_PER_SUBFRAME
from .scenario import (
    DEFAULT_GST0,
    Scenario,
    diff_reports,
    generate_synthetic_constellation,
    run_scenario,
    write_report,
)
from .tesla import TeslaChain
from .vectors import TestVectorSet


def _cmd_gen_constellation(args) -> int:
    bundle = generate_synthetic_constellation(
        args.seed, args.sats, args.subframes, Gst(args.wn, args.tow))
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle.vectors.save(outdir / "vectors.csv")
    (outdir / "chain.json").write_text(
        json.dumps(bundle.chain_json(), indent=2, sort_keys=True) + "\n")
    rows = SLOTS_PER_SUBFRAME * sum(map(len, bundle.subframes.values()))
    print(f"wrote {outdir / 'vectors.csv'} ({rows} rows) "
          f"and {outdir / 'chain.json'}")
    return 0


def _cmd_gen_chain(args) -> int:
    rng = random.Random(args.seed)
    chain = TeslaChain.generate(rng.randbytes(16), args.n,
                                Gst(args.wn, args.tow))
    Path(args.out).write_text(
        json.dumps(chain.as_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} (chain of {chain.n} keys)")
    return 0


def _cmd_vectors_validate(args) -> int:
    vectors = TestVectorSet.load(args.path, mapping_path=args.mapping)
    count = sum(map(len, vectors.by_prn.values()))
    print(f"ok: {SLOTS_PER_SUBFRAME * count} pages, {count} subframes")
    return 0


def _cmd_forge_tsf(args) -> int:
    vectors = TestVectorSet.load(args.vectors)
    cfg = TsfConfig(seg_count=args.segments, forge_tags=not args.no_tags,
                    iono_a0=args.iono_a0)
    forged = {prn: tsf_forge_subframes(sfs, cfg)
              for prn, sfs in vectors.subframes().items()}
    TestVectorSet.from_subframes(forged).save(args.out)
    print(f"wrote {args.out}")
    return 0


def _run_one(scenario: Scenario, out: Path | None) -> int:
    report = run_scenario(scenario)
    if out is None:
        write_report(report, sys.stdout)
    else:
        with open(out, "w") as fh:
            write_report(report, fh)
    return report["exit_code"]


def _cmd_run(args) -> int:
    # every file and report path is checked before the first scenario runs
    scenarios = [Scenario.load(p) for p in args.scenario]
    outs = [None] * len(scenarios)
    if args.out_dir is not None:
        outs = [Path(args.out_dir) / (Path(p).stem + ".report.json")
                for p in args.scenario]
        for i, out in enumerate(outs):
            first = outs.index(out)
            if first != i:
                raise ValueError(f"{args.scenario[first]} and "
                                 f"{args.scenario[i]} would both write {out}")
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    codes = [_run_one(sc, out) for sc, out in zip(scenarios, outs)]
    for path, code in zip(args.scenario, codes):
        print(f"{path}: exit {code}", file=sys.stderr)
    return max(codes)


def _cmd_report_diff(args) -> int:
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    diffs = diff_reports(a, b)
    for path in diffs:
        print(path)
    return 1 if diffs else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osnmasim",
        description="Message-level OSNMA authentication and attack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-constellation",
                       help="generate a synthetic test-vector set")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sats", type=int, default=8)
    p.add_argument("--subframes", type=int, default=14)
    p.add_argument("--wn", type=int, default=DEFAULT_GST0.wn)
    p.add_argument("--tow", type=int, default=DEFAULT_GST0.tow)
    p.add_argument("--out-dir", default="constellation")
    p.set_defaults(func=_cmd_gen_constellation)

    p = sub.add_parser("gen-chain", help="generate a key chain description")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--wn", type=int, default=DEFAULT_GST0.wn)
    p.add_argument("--tow", type=int, default=DEFAULT_GST0.tow)
    p.add_argument("--out", default="chain.json")
    p.set_defaults(func=_cmd_gen_chain)

    p = sub.add_parser("vectors", help="test-vector file operations")
    vsub = p.add_subparsers(dest="vectors_command", required=True)
    v = vsub.add_parser("validate", help="schema- and CRC-check a CSV")
    v.add_argument("path")
    v.add_argument("--mapping", default=None,
                   help="JSON column-mapping file for foreign formats")
    v.set_defaults(func=_cmd_vectors_validate, failure="invalid")

    p = sub.add_parser("forge", help="attack-side forging tools")
    fsub = p.add_subparsers(dest="forge_command", required=True)
    f = fsub.add_parser("tsf", help="rewrite corrections and re-tag vectors")
    f.add_argument("--vectors", required=True)
    f.add_argument("--segments", type=int, default=6)
    f.add_argument("--iono-a0", type=int, default=0)
    f.add_argument("--no-tags", action="store_true",
                   help="forge navigation data only, keep original tags")
    f.add_argument("--out", default="forged.csv")
    f.set_defaults(func=_cmd_forge_tsf)

    p = sub.add_parser("run", help="run scenario files")
    p.add_argument("scenario", nargs="+")
    p.add_argument("--out-dir", default=None,
                   help="write <name>.report.json files instead of stdout")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="report operations")
    rsub = p.add_subparsers(dest="report_command", required=True)
    r = rsub.add_parser("diff", help="compare two JSON reports")
    r.add_argument("a")
    r.add_argument("b")
    r.set_defaults(func=_cmd_report_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:    # bad input or an unreadable file
        print(f"{getattr(args, 'failure', 'error')}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
