"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` metrics come from untraced runs (``--trace 0``) and are what
a user of ``osnmasim run`` pays.  ``PER_LAYER`` metrics come from the traced
run (``--trace 1``); each names the end-to-end metric it should move and the
workload on which it should move it, written down before any optimisation
is measured.  ``BENCHMARK.json`` at the repository root must list the same
names and units; the benchmark's tests check that.
"""

# name: (unit, better, regression bound as a share of the base median)
#
# Times are seconds on a host of reference speed: each run scales its
# measured times by how much slower than the reference the host ran a fixed
# calibration loop between its child processes (``run.calibrate``).  The
# benchmark host is shared and its speed drifts by up to 50% over half an
# hour, which no bound of at most 25% could absorb; the unscaled times are
# kept beside them as ``RAW``.  Scaled, ten runs of one workload still
# spread by 5-18% (interquartile range over median) and the median of ten
# moved by up to 10% from one set of ten to the next, so the time bounds are
# near the largest allowed.  Set-up time, whose run-to-run spread is not
# gated, has the widest bound; its median is gated so that work moved into
# set-up shows.
END_TO_END = {
    "wall_s": ("s", "lower", 0.24),
    "cpu_s": ("s", "lower", 0.24),
    "subframes_per_s": ("1/s", "higher", 0.24),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Printed and kept in the result file, never gated: the unscaled times and
# the calibration loop's own times.
RAW = {
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "cal_s": "s",
}

# ``failed_frac``, the share of scenario executions that failed, is printed
# and kept in every result file, but it is not gated: it is 0 on a correct
# program, so no bound relative to its median exists.  The last output line
# carries it as ``failed`` out of ``attempted``.

# Modules whose public functions the traced run wraps.  ``gst`` is left
# out: its calls take under a microsecond, so the wrapper would dominate.
TRACED_MODULES = ("attacks", "cli", "mack", "navdata", "pages",
                  "positioning", "receiver", "scenario", "tesla", "vectors")

# name: (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "pages.encode_per_page": ("1/page", "lower", "cpu_s on every workload; most on long_forgery"),
    "pages.decode_per_page": ("1/page", "lower", "cpu_s on every workload; most on long_clean"),
    "pages.crc_per_page": ("1/page", "lower", "cpu_s on every workload"),
    "pages.encode_us": ("us", "lower", "cpu_s on every workload"),
    "pages.decode_us": ("us", "lower", "cpu_s on every workload"),
    "pages.assemble_self_s": ("s", "lower", "cpu_s on long_clean; near zero change on paper_batch"),
    "pages.destroyed_frac": ("ratio", "lower", "none: canary, nonzero only in the cr scenarios"),
    "scenario.run_self_s": ("s", "lower", "cpu_s on long_clean; near zero change on paper_batch"),
    "scenario.generate_calls": ("count", "lower", "wall_s, cpu_s, setup_s on paper_batch; none on long_clean"),
    "scenario.generate_s": ("s", "lower", "wall_s, cpu_s, setup_s on paper_batch; none on long_clean"),
    "scenario.live_events_s": ("s", "lower", "cpu_s on every workload"),
    "vectors.subframes_s": ("s", "lower", "cpu_s on every workload"),
    "vectors.from_subframes_s": ("s", "lower", "cpu_s on every workload"),
    "mack.tag_calls": ("count", "lower", "cpu_s on long_clean"),
    "mack.tags_per_authentic": ("1/verdict", "lower", "cpu_s on long_clean"),
    "tesla.verify_key_calls": ("count", "lower", "cpu_s on long_clean"),
    "tesla.steps_walked": ("count", "lower", "cpu_s on long_clean"),
    "navdata.parse_calls": ("count", "lower", "cpu_s on long_clean"),
    "positioning.solve_calls": ("count", "lower", "cpu_s on long_clean"),
    "positioning.solve_us": ("us", "lower", "cpu_s on long_clean"),
    "receiver.round_ms_p50": ("ms", "lower", "cpu_s on long_clean and long_forgery"),
    "receiver.round_ms_tail": ("ms", "lower", "cpu_s on long_clean and long_forgery"),
    "receiver.round_tail_pct": ("%", "higher", "none: the percentile receiver.round_ms_tail reports"),
    "cli.outside_s": ("s", "lower", "wall_s and setup_s on paper_batch"),
    "trace.overhead_frac": ("ratio", "lower", "none: cost of tracing itself"),
}
for _module in TRACED_MODULES:
    PER_LAYER[f"{_module}.self_s"] = (
        "s", "lower", "cpu_s on long_forgery and paper_batch" if _module == "attacks"
        else "cpu_s on long_clean and long_forgery")

# Unit-cost probes: untraced, fixed inputs, measured in their own process.
MICRO = {
    "micro.encode_page_us": "us",
    "micro.decode_page_us": "us",
    "micro.crc24q_us": "us",
    "micro.compute_tag_us": "us",
    "micro.verify_key_200_us": "us",
    "micro.solve_position_us": "us",
    "micro.assemble_round_us": "us",
    "micro.constellation_8x16_ms": "ms",
}
for _name, _unit in MICRO.items():
    PER_LAYER[_name] = (_unit, "lower", "cpu_s on every workload, in proportion to its call count")
