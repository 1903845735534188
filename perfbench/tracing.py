"""Traced run of the osnmasim CLI, and the per-layer metrics computed from it.

Run as a script, this wraps, from outside the program, the public functions
and public methods of every traced ``osnmasim`` module at every module that
binds them (``receiver`` imports ``assemble_round`` by name, for example),
then calls ``osnmasim.cli.main`` with the remaining arguments:

    python3 perfbench/tracing.py OUT_PREFIX run SCENARIO... --out-dir DIR

Each call records a span (name, parent, start, end) in flat arrays kept in
memory; the arrays are written to ``OUT_PREFIX.bin`` and a header to
``OUT_PREFIX.json`` when the run ends.

``pages.getbitu`` and ``pages.setbitu`` are not wrapped: they are the bit
loops inside the codec, and their time belongs to the self time of
``encode_page``, ``decode_page`` and the navdata builders that call them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from enum import Enum
from pathlib import Path

from metrics import TRACED_MODULES

UNWRAPPED = {"pages.getbitu", "pages.setbitu"}

# Return values summed per function: destroyed pages and chain steps walked.
TALLIES = {
    "pages.decode_page": lambda page: page is None,
    "tesla.verify_key": lambda steps: steps or 0,
}

_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list = []
        self.arrays = {key: array(code) for key, code in _ARRAYS}
        self.tallies: dict = {}
        self._stack = [-1]
        self._wrappers: dict = {}        # original function -> wrapper

    def wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{fn.__module__.removeprefix('osnmasim.')}.{fn.__qualname__}"
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.arrays["name"], self.arrays["parent"]
        starts, ends = self.arrays["start"], self.arrays["end"]
        stack, clock = self._stack, time.perf_counter
        tally = TALLIES.get(name)
        if tally is not None:
            self.tallies[name] = 0

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                self.tallies[name] += tally(result)
            return result

        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        traced.__doc__, traced.__wrapped__ = fn.__doc__, fn
        self._wrappers[fn] = traced
        return traced

    def _wants(self, fn) -> bool:
        module = getattr(fn, "__module__", "") or ""
        short = module.removeprefix("osnmasim.")
        return (module.startswith("osnmasim.") and short in TRACED_MODULES
                and not fn.__name__.startswith("_")
                and f"{short}.{fn.__qualname__}" not in UNWRAPPED)

    def install(self) -> None:
        import osnmasim
        modules = [osnmasim] + [
            importlib.import_module(f"osnmasim.{info.name}")
            for info in pkgutil.iter_modules(osnmasim.__path__)]
        for module in modules:
            for cls in list(vars(module).values()):
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and not issubclass(cls, (Enum, BaseException))):
                    self._wrap_methods(cls)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and self._wants(obj):
                    setattr(module, attr, self.wrap(obj))

    def _wrap_methods(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, (staticmethod, classmethod)):
                if self._wants(raw.__func__):
                    setattr(cls, attr, type(raw)(self.wrap(raw.__func__)))
            elif inspect.isfunction(raw) and self._wants(raw):
                setattr(cls, attr, self.wrap(raw))

    def dump(self, prefix: str, exit_code) -> None:
        t0 = time.perf_counter()
        with open(prefix + ".bin", "wb") as fh:
            for key, _ in _ARRAYS:
                self.arrays[key].tofile(fh)
        header = {
            "names": self.names,
            "count": len(self.arrays["name"]),
            "tallies": self.tallies,
            "exit_code": exit_code,
            "dump_s": time.perf_counter() - t0,
        }
        Path(prefix + ".json").write_text(json.dumps(header))


# -- analysis (runs in the benchmark process) ----------------------------------


class Spans:
    """Spans of one traced run, with inclusive and self durations."""

    def __init__(self, prefix: str):
        self.header = json.loads(Path(prefix + ".json").read_text())
        count = self.header["count"]
        cols = {}
        with open(prefix + ".bin", "rb") as fh:
            for key, code in _ARRAYS:
                cols[key] = array(code)
                cols[key].fromfile(fh, count)
        names = self.header["names"]
        self.name = [names[i] for i in cols["name"]]
        self.parent = cols["parent"]
        self.duration = [e - s for s, e in zip(cols["start"], cols["end"])]
        covered = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        self._by_name: dict = {}
        for i, n in enumerate(self.name):
            self._by_name.setdefault(n, []).append(i)

    def of(self, name: str) -> list:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total(self, name: str, times=None) -> float:
        times = self.duration if times is None else times
        return sum(times[i] for i in self.of(name))

    def mean_us(self, name: str, times=None) -> float:
        n = self.count(name)
        return 1e6 * self.total(name, times) / n if n else 0.0

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with a span of ``ancestor`` above them."""
        under = [False] * len(self.name)
        hits = 0
        for i, p in enumerate(self.parent):
            if p >= 0:
                under[i] = under[p] or self.name[p] == ancestor
            if under[i] and self.name[i] == name:
                hits += 1
        return hits


def tail_percentile(n: int) -> int:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: Spans, *, wall_s: float, overhead: float,
                  pages: int, authentic: int) -> dict:
    """Per-layer metrics of one traced repetition (micro probes excluded).

    ``wall_s`` is the traced process's wall time and ``overhead`` the
    tracing overhead measured against untraced repetitions.
    """
    rounds_ms = [1e3 * spans.duration[i]
                 for i in spans.of("receiver.Receiver.ingest_round")]
    tail_pct = tail_percentile(len(rounds_ms))
    tag_calls = spans.count_under("mack.compute_tag", "mack.verify_tags")
    decodes = spans.count("pages.decode_page")
    tallies = spans.header["tallies"]
    out = {
        "pages.encode_per_page": spans.count("pages.encode_page") / pages,
        "pages.decode_per_page": decodes / pages,
        "pages.crc_per_page": spans.count("pages.crc24q") / pages,
        "pages.encode_us": spans.mean_us("pages.encode_page", spans.self_time),
        "pages.decode_us": spans.mean_us("pages.decode_page", spans.self_time),
        "pages.assemble_self_s": spans.total("pages.assemble_round", spans.self_time),
        "pages.destroyed_frac": (tallies.get("pages.decode_page", 0) / decodes
                                 if decodes else 0.0),
        "scenario.run_self_s": spans.total("scenario.run_scenario", spans.self_time),
        "scenario.generate_calls": spans.count("scenario.generate_synthetic_constellation"),
        "scenario.generate_s": spans.total("scenario.generate_synthetic_constellation"),
        "scenario.live_events_s": spans.total("scenario.live_events"),
        "vectors.subframes_s": spans.total("vectors.TestVectorSet.subframes"),
        "vectors.from_subframes_s": spans.total("vectors.TestVectorSet.from_subframes"),
        "mack.tag_calls": tag_calls,
        "mack.tags_per_authentic": tag_calls / authentic if authentic else 0.0,
        "tesla.verify_key_calls": spans.count("tesla.verify_key"),
        "tesla.steps_walked": tallies.get("tesla.verify_key", 0),
        "navdata.parse_calls": spans.count("navdata.parse_nav_data"),
        "positioning.solve_calls": spans.count("positioning.solve_position"),
        "positioning.solve_us": spans.mean_us("positioning.solve_position"),
        "receiver.round_ms_p50": percentile(rounds_ms, 50) if rounds_ms else 0.0,
        "receiver.round_ms_tail": percentile(rounds_ms, tail_pct) if rounds_ms else 0.0,
        "receiver.round_tail_pct": tail_pct,
        "cli.outside_s": wall_s - spans.total("cli.main") - spans.header["dump_s"],
        "trace.overhead_frac": overhead,
    }
    module_self = dict.fromkeys(TRACED_MODULES, 0.0)
    for name, t in zip(spans.name, spans.self_time):
        module_self[name.split(".", 1)[0]] += t
    for module, t in module_self.items():
        out[f"{module}.self_s"] = t
    return out


def main(argv) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import osnmasim.cli
    code = osnmasim.cli.main(cli_args)
    tracer.dump(prefix, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
