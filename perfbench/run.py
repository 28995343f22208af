"""hybridchan benchmark: per-command CLI time and memory on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI runs from ``src/``.  A
run repeats whole rounds while the next one is expected to end within S
seconds, and always makes at least two, so every run can compare
repeated outputs byte for byte.  A
round runs ``simulate``, ``analyze``, ``capacity`` and ``recover --scrub``
as separate processes, one at a time, and checks each command's output
with perfbench/oracle.py.  An operation is one command with its
checks.

``--trace 0`` reports the end-to-end metrics (medians over the rounds):
the wall time and peak RSS of each command's process, and ``setup_s``,
the median wall time of ``hybridchan --help`` over one start before
every command of every round.
``--trace 1`` runs each command under perfbench/tracer.py instead and
reports the per-layer metrics.  The last line of stdout is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Two rounds at least, so that every run compares repeated outputs.
MIN_ROUNDS = 2
# Children still running this long after the run started are killed, so a
# run ends within the 180 s a run is allowed.
RUN_LIMIT_S = 170.0
COMMANDS = ("simulate", "analyze", "capacity", "recover")


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    frame_len: int
    r: float = 0.0
    s: float = 1.0
    p: float = 0.0
    periodic: bool = False
    period: int = 288
    burst: int = 32
    p_burst: float = 0.05
    interleave: bool = True
    rssi: bool = False

    def simulate_args(self, seed: int) -> list[str]:
        args = ["--frames", str(self.frames), "--frame-len", str(self.frame_len),
                "--seed", str(seed)]
        if self.periodic:
            return args + ["--periodic", "--period", str(self.period),
                           "--burst", str(self.burst), "--p-burst", str(self.p_burst)]
        return args + ["--r", str(self.r), "--s", str(self.s), "--p", str(self.p),
                       "--skew-ppm", "50", "--offset-us", "10000", "--jitter-us", "50"]


WORKLOADS = {wl.name: wl for wl in (
    Workload("ref-whitened", frames=10_000, frame_len=8000, r=0.1, s=0.7, p=0.005),
    Workload("periodic-raw", frames=5000, frame_len=8000, periodic=True,
             interleave=False),
    Workload("short-rssi", frames=20_000, frame_len=400, r=0.1, s=0.9, p=0.01,
             rssi=True),
)}

# name -> (unit, how the round's span totals and counters give it)
PER_LAYER = {
    "sim.generate_tx_s": ("s", lambda t: t.total("sim.generate_tx")),
    "sim.channel_s": ("s", lambda t: t.total("sim.channel")),
    "rng.stream_us": ("us", lambda t: 1e6 * t.total("rng.stream") / max(t.calls("rng.stream"), 1)),
    "rng.streams": ("count", lambda t: t.count("rng.streams")),
    "traceio.write_trace_s": ("s", lambda t: t.total("traceio.write_trace")),
    "traceio.load_pair_s": ("s", lambda t: t.total("traceio.load_pair")),
    "traceio.records": ("count", lambda t: t.count("traceio.records")),
    "trace.validate_s": ("s", lambda t: t.total("trace.validate")),
    "interleaver.whiten_s": ("s", lambda t: t.total("interleaver.whiten")),
    "interleaver.permutations": ("count", lambda t: t.count("interleaver.permutations")),
    "stats.per_frame_runs_tests_s": ("s", lambda t: t.total("stats.per_frame_runs_tests")),
    "stats.bit_position_profile_s": ("s", lambda t: t.total("stats.bit_position_profile")),
    "stats.corrupted_frames": ("count", lambda t: t.count("stats.corrupted_frames")),
    "segments.segment_corrupted_frames_s":
        ("s", lambda t: t.total("segments.segment_corrupted_frames")),
    "segments.segments": ("count", lambda t: t.count("segments.segments")),
    "stats.outcome_iid_tests_s": ("s", lambda t: t.total("stats.outcome_iid_tests")),
    "stats.symmetry_report_s": ("s", lambda t: t.total("stats.symmetry_report")),
    "cli.analyze_self_s": ("s", lambda t: t.self_time("cli.analyze")),
    "cli.capacity_self_s": ("s", lambda t: t.self_time("cli.capacity")),
    "cli.recover_self_s": ("s", lambda t: t.self_time("cli.recover")),
    "capacity.capacity_report_s": ("s", lambda t: t.total("capacity.capacity_report")),
    "capacity.rssi_bins": ("count", lambda t: t.count("capacity.rssi_bins")),
    "recovery.recover_trace_s": ("s", lambda t: t.total("recovery.recover_trace")),
    "recovery.attempted": ("count", lambda t: t.count("recovery.attempted")),
    "recovery.recovered_per_attempted":
        ("ratio", lambda t: t.count("recovery.recovered") / max(t.count("recovery.attempted"), 1)),
}
# Wall time of each command's process in the traced run; against the
# untraced <command>_s it gives the tracing overhead.
PER_LAYER.update({f"traced.{cmd}_s": ("s", lambda t, c=cmd: t.walls.get(c, 0.0)) for cmd in COMMANDS})


@dataclass
class Child:
    ok: bool
    wall_s: float
    rss_mb: float
    stdout: str
    spans: dict | None


class Runner:
    """Runs one CLI process at a time from the checkout and measures it.

    The processes are started by perfbench/spawn.py, a small helper
    process, so that their peak RSS is their own and not this process's.
    """

    def __init__(self, work: Path, traced: bool, deadline: float):
        self.work, self.traced, self.deadline = work, traced, deadline
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, label: str, args: list[str], traced: bool | None = None) -> Child:
        traced = self.traced if traced is None else traced
        spans_path = self.work / f"{label}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "hybridchan.cli", *args]
        out_path, err_path = self.work / f"{label}.out", self.work / f"{label}.err"
        request = {"argv": argv, "cwd": str(ROOT), "stdout": str(out_path),
                   "stderr": str(err_path),
                   "timeout": max(self.deadline - time.monotonic(), 0.0)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawn.py ended early")
        reply = json.loads(reply)
        ok = reply["returncode"] == 0
        if not ok:
            print(f"{label}: exit {reply['returncode']}: "
                  f"{err_path.read_text(errors='replace')[-2000:]}", file=sys.stderr)
        spans = None
        if traced and ok:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return Child(ok, reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                     out_path.read_text(encoding="utf-8", errors="replace"), spans)


@dataclass
class Round:
    walls: dict[str, float] = field(default_factory=dict)
    rss: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    # Operations (commands) that failed: a non-zero exit or a failed check.
    failed: set[str] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    def fail(self, command: str, message: str) -> None:
        self.failed.add(command)
        self.errors.append(f"{command}: {message}")
        print(f"check failed: {command}: {message}", file=sys.stderr)

    def _spans(self, name):
        return [s for dump in self.spans.values() for s in dump["spans"]
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["total_s"] for s in self._spans(name))

    def calls(self, name: str) -> int:
        return sum(s["calls"] for s in self._spans(name))

    def self_time(self, name: str) -> float:
        return sum(s["self_s"] for s in self._spans(name))

    def count(self, key: str) -> int:
        return sum(dump["counters"].get(key, 0) for dump in self.spans.values())


def _digest_dir(directory: Path, tag: str, into: dict[str, str]) -> None:
    for path in sorted(directory.iterdir()):
        into[f"{tag}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()


def _check(rnd: Round, command: str, fn, *args):
    """Run one oracle check; a failure fails the operation, it is not raised."""
    try:
        return fn(*args)
    except Exception as exc:  # an oracle crash on bad output is a failed check too
        rnd.fail(command, str(exc) if isinstance(exc, oracle.CheckFailed)
                 else traceback.format_exc())
        return None


def run_round(wl: Workload, seed: int, runner: Runner, directory: Path,
              reference: Round | None = None,
              setup_walls: list[float] | None = None) -> Round:
    """Simulate a trace pair, then analyze, capacity and recover on it.

    The first round of a run checks every output with the oracle.  A later
    round passes `reference`, the first round, and its outputs must equal
    that round's byte for byte (criterion 12): an output identical to a
    checked one needs no second check, and it keeps that check's verdict.  With `setup_walls`, one
    ``hybridchan --help`` start runs before each command and its wall time
    is appended there, so that set-up is sampled across the whole run.
    """
    rnd = Round()
    pair = None

    def start(command: str, args: list[str]) -> Child:
        if setup_walls is not None:
            setup_walls.append(help_start(runner))
        child = runner.run(command, args)
        rnd.walls[command], rnd.rss[command] = child.wall_s, child.rss_mb
        if child.spans:
            rnd.spans[command] = child.spans
        if not child.ok:
            rnd.failed.add(command)
        return child

    def verify(command: str, out: Path, check, *args, tag: str | None = None) -> None:
        """Check `command`'s outputs in `out`, digested under `tag`/."""
        tag = tag or command
        digests: dict[str, str] = {}
        _digest_dir(out, tag, digests)
        rnd.digests.update(digests)
        if reference is not None:
            first = reference.digests
            ours = {k for k in first if k.startswith(f"{tag}/")}
            if set(digests) != ours:
                rnd.fail(command, f"wrote {sorted(digests)}, the run's first round "
                                  f"wrote {sorted(ours)} (criterion 12)")
            for key in sorted(set(digests) & ours):
                if first[key] != digests[key]:
                    rnd.fail(command, f"{key} differs from the run's first round "
                                      f"(criterion 12)")
            if command in reference.failed:
                rnd.failed.add(command)
        elif pair is None and command != "simulate":
            rnd.fail(command, "not checked, the simulated pair failed its checks")
        else:
            _check(rnd, command, check, *args)

    sim_dir = directory / "simulate"
    child = start("simulate", ["simulate", *wl.simulate_args(seed), "--out", str(sim_dir)])
    if not child.ok:
        rnd.failed.update(COMMANDS)
        return rnd
    tx_path, rx_path = sim_dir / "tx.trace", sim_dir / "rx.trace"
    if reference is None:
        tx = _check(rnd, "simulate", oracle.read_side, tx_path, "tx")
        rx = _check(rnd, "simulate", oracle.read_side, rx_path, "rx")
        if tx is not None and rx is not None:
            pair = _check(rnd, "simulate", oracle.check_simulate, wl, tx, rx)
    verify("simulate", sim_dir, lambda: None)
    if wl.rssi:
        input_dir = directory / "input"
        input_dir.mkdir()
        rx_path = input_dir / "rx.trace"
        oracle.with_rssi(sim_dir / "rx.trace", rx_path, seed)
        if pair is not None:
            rx = _check(rnd, "simulate", oracle.read_side, rx_path, "rx")
            pair = oracle.Pair(tx, rx) if rx is not None else None
        # The RSSI copy is the benchmark's own step; it counts with simulate.
        verify("simulate", input_dir, lambda: None, tag="input")

    pair_args = [str(tx_path), str(rx_path)]
    commands = {
        "analyze": (["analyze", *pair_args, "--seed", str(seed)]
                    + ([] if wl.interleave else ["--no-interleave"]),
                    oracle.check_analyze),
        "capacity": (["capacity", *pair_args, "--rssi-bin", "1"], oracle.check_capacity),
        "recover": (["recover", *pair_args, "--scrub"], oracle.check_recover),
    }
    for command, (args, check) in commands.items():
        out = directory / command
        child = start(command, [*args, "--out", str(out)])
        if not child.ok:
            continue
        extra = (child.stdout,) if command == "recover" else ()
        verify(command, out, check, wl, pair, out, *extra)
    return rnd


def _median(values: list[float]) -> float:
    # A command that never ran (its simulate failed) reads 0; the run
    # reports it among the failed operations.
    return statistics.median(values) if values else 0.0


def help_start(runner: Runner) -> float:
    """Wall time of one untraced `hybridchan --help` start."""
    child = runner.run("setup", ["--help"], traced=False)
    if not child.ok:
        raise SystemExit("hybridchan --help failed")
    return child.wall_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hybridchan" / "cli.py").is_file():
        print(f"no hybridchan source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    started = time.monotonic()
    work = OUT_DIR / "work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, bool(args.trace), started + RUN_LIMIT_S)
    # Set-up is sampled only in untraced runs, which report it.
    setup_walls = None if args.trace else []
    try:
        help_start(runner)  # warm-up: file cache and lazy set-up
        rounds: list[Round] = []
        t0 = time.monotonic()
        last_s = 0.0
        # After MIN_ROUNDS, a round starts only if one as long as the last
        # ends within --seconds, so a run never overshoots by a whole round.
        while len(rounds) < MIN_ROUNDS or time.monotonic() - t0 + last_s <= args.seconds:
            round_start = time.monotonic()
            directory = work / f"round{len(rounds)}"
            directory.mkdir()
            reference = rounds[0] if rounds else None
            rounds.append(run_round(wl, args.seed, runner, directory, reference,
                                    setup_walls))
            shutil.rmtree(directory)
            last_s = time.monotonic() - round_start
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for rnd in rounds for e in rnd.errors]

    if args.trace:
        metrics = {name: (unit, _median([get(rnd) for rnd in rounds]))
                   for name, (unit, get) in PER_LAYER.items()}
    else:
        metrics = {"setup_s": ("s", statistics.median(setup_walls))}
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = ("s", _median([r.walls[cmd] for r in rounds if cmd in r.walls]))
            metrics[f"{cmd}_rss_mb"] = ("MB", _median([r.rss[cmd] for r in rounds if cmd in r.rss]))
    for name, (unit, value) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(COMMANDS) * len(rounds),
        "failed": sum(len(rnd.failed) for rnd in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    # The kept copy also holds every sample the medians came from.
    samples = {"setup_s": setup_walls,
               "rounds": [{"walls": r.walls, "rss_mb": r.rss} for r in rounds]}
    (results / f"{wl.name}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({**result, "samples": samples}, indent=1) + "\n")
    print(f"{wl.name} seed={args.seed} rounds={len(rounds)} "
          f"wall={time.monotonic() - started:.1f}s", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
