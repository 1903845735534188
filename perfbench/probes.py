"""Child processes of the benchmark that import the program under test.

    python3 perfbench/probes.py setup SCENARIO...
        Import osnmasim, load the scenario files and build the first
        scenario's constellation: what a user pays before the first round.
        The benchmark times the whole process from outside.

    python3 perfbench/probes.py micro
        Unit costs of the codec, CRC, tag, chain-walk, solver, round
        assembly and constellation functions on fixed inputs.  Prints one
        JSON object of medians.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SEED = 20230816
BATCHES = 7


def setup(paths) -> None:
    from osnmasim.scenario import Scenario, generate_synthetic_constellation

    scenarios = [Scenario.load(p) for p in paths]
    sc = scenarios[0]
    generate_synthetic_constellation(sc.seed, sc.n_sats, sc.n_subframes,
                                     sc.gst0, sc.site, sc.seg_count)


def per_call_s(fn, calls: int, batches: int = BATCHES) -> float:
    """Median over batches of the mean time of one call; one warm-up batch."""
    times = []
    for batch in range(batches + 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if batch:
            times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def micro() -> dict:
    from osnmasim.mack import build_auth_message, compute_tag, split_segments
    from osnmasim.navdata import subframe_nav_data
    from osnmasim.pages import (
        SUBFRAME_MS, assemble_round, crc24q, decode_page, encode_page)
    from osnmasim.positioning import forge_pseudoranges, solve_position
    from osnmasim.scenario import generate_synthetic_constellation, live_events
    from osnmasim.tesla import TeslaChain, verify_key

    bundle = generate_synthetic_constellation(SEED, 8, 16)
    subframes = bundle.vectors.subframes()
    page = subframes[1][0].pages[0]
    raw = encode_page(page)
    if decode_page(raw) != page:
        raise RuntimeError("page does not survive an encode/decode round trip")

    segment = split_segments(subframe_nav_data(subframes[1][0]), 6)[0]
    message = build_auth_message(1, 1, subframes[1][1].gst, 1, segment)
    key = bundle.chain.key_at(1).bits

    chain = TeslaChain.generate(bytes(range(16)), 200, bundle.gst0)
    if verify_key(chain.key_at(200), chain.key_at(0)) != 200:
        raise RuntimeError("chain walk over 200 steps did not verify")

    sats = list(bundle.sat_states.values())
    ranges = forge_pseudoranges(bundle.receiver_ecef, 0.0, sats)

    events = live_events(subframes)
    w0 = events[0].t_ms
    window = [e for e in events if w0 <= e.t_ms < w0 + SUBFRAME_MS]
    gst = subframes[1][0].gst
    if not assemble_round(window, gst, 1, w0).complete:
        raise RuntimeError("round assembly lost a page")

    def constellation():
        generate_synthetic_constellation(SEED, 8, 16)

    return {
        "micro.encode_page_us": 1e6 * per_call_s(lambda: encode_page(page), 200),
        "micro.decode_page_us": 1e6 * per_call_s(lambda: decode_page(raw), 200),
        "micro.crc24q_us": 1e6 * per_call_s(lambda: crc24q(raw[:25], 196), 2000),
        "micro.compute_tag_us": 1e6 * per_call_s(lambda: compute_tag(key, message), 2000),
        "micro.verify_key_200_us": 1e6 * per_call_s(
            lambda: verify_key(chain.key_at(200), chain.key_at(0)), 100),
        "micro.solve_position_us": 1e6 * per_call_s(lambda: solve_position(sats, ranges), 40),
        "micro.assemble_round_us": 1e6 * per_call_s(
            lambda: assemble_round(window, gst, 1, w0), 20),
        "micro.constellation_8x16_ms": 1e3 * per_call_s(constellation, 1, 3),
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup(sys.argv[2:])
    elif sys.argv[1:] == ["micro"]:
        print(json.dumps(micro()))
    else:
        sys.exit(__doc__)
