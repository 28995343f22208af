"""Run one hybridchan CLI command with spans around the package's public calls.

    python3 perfbench/tracer.py SPANS.json <hybridchan CLI arguments>

The command itself is the root span, ``cli.<command>``.  Each wrapped call
opens a span whose parent is the innermost wrapped call still open, so a
span's self time is its duration minus that of its children.  Spans are
aggregated in memory by (name, parent) and written to SPANS.json, with
the work counters, when the command returns.  The package's code is not
changed: the wrappers replace module attributes after import.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps


def _len(key):
    return lambda result: {key: len(result)}


def _recovery(result):
    summary = result[1]
    return {"recovery.attempted": summary.n_attempted,
            "recovery.recovered": summary.n_recovered}


# (module, attribute, span name, counters taken from the return value)
TARGETS = [
    ("sim", "generate_tx", "sim.generate_tx", None),
    ("sim", "apply_channel", "sim.channel", None),
    ("sim", "apply_periodic_noise", "sim.channel", None),
    ("rng", "stream", "rng.stream", lambda _: {"rng.streams": 1}),
    ("traceio", "write_trace", "traceio.write_trace", None),
    ("traceio", "load_pair", "traceio.load_pair",
     lambda t: {"traceio.records": len(t.tx) + len(t.rx)}),
    ("interleaver", "whiten_error_vector", "interleaver.whiten",
     lambda _: {"interleaver.permutations": 1}),
    ("stats", "per_frame_runs_tests", "stats.per_frame_runs_tests",
     _len("stats.corrupted_frames")),
    ("stats", "bit_position_profile", "stats.bit_position_profile", None),
    ("stats", "outcome_iid_tests", "stats.outcome_iid_tests", None),
    ("stats", "symmetry_report", "stats.symmetry_report", None),
    ("segments", "segment_corrupted_frames", "segments.segment_corrupted_frames",
     _len("segments.segments")),
    ("capacity", "capacity_report", "capacity.capacity_report",
     lambda r: {"capacity.rssi_bins": len(r.per_rssi_bins)}),
    ("recovery", "recover_trace", "recovery.recover_trace", _recovery),
]


class Tracer:
    def __init__(self) -> None:
        self.open: list[list] = []  # [name, seconds spent in children]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}

    def wrap(self, fn, name, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self.open[-1][0] if self.open else None
            frame = [name, 0.0]
            self.open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.open.pop()
                if self.open:
                    self.open[-1][1] += elapsed
                agg = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if count is not None:
                for key, n in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + n
            return result
        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the package.

        The CLI imports some functions by name (``from .traceio import
        load_pair``), so the module attribute alone is not enough.
        """
        importlib.import_module("hybridchan.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "hybridchan" or key.startswith("hybridchan.")]
        for mod_name, attr, name, count in TARGETS:
            original = getattr(sys.modules[f"hybridchan.{mod_name}"], attr)
            wrapper = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        trace_cls = sys.modules["hybridchan.trace"].Trace
        trace_cls.validate = self.wrap(trace_cls.validate, "trace.validate")

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in self.spans.items()
            ],
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["hybridchan.cli"]
    run = tracer.wrap(cli.main, f"cli.{cli_args[0]}")
    try:
        return run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
