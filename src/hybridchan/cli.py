"""Command-line front end.

Subcommands cover the full pipeline: ``simulate`` writes a tx/rx trace
pair, ``analyze`` runs the statistical battery and emits plot-ready CSVs,
``capacity`` reports parameter estimates and capacities (optionally per
RSSI bin), ``recover`` re-identifies corrupted frames with damaged
headers.  Every command is deterministic given its flags; --seed
defaults to 0.  Every runs test is at the 5% level (runstest.ALPHA).
analyze's frames.csv gives each corrupted frame's runs-test z and p,
empty where no z exists, and its verdict, one of runstest.VERDICTS.

Exit codes: 0 success, 1 usage error (a bad flag or flag value), 2 trace
parse error, 3 internal error (an invariant violation or any other
ValueError).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import recovery, sim, stats
from . import trace as _trace
from .capacity import capacity_report
from .runstest import ALPHA, FAIL, PASS, VERDICTS
from .segments import mean_segment_duration, segment_corrupted_frames
from .trace import (
    STATUSES,
    UNKNOWN_SEQ,
    ChannelParams,
    Trace,
    TraceError,
    TraceFormatError,
    UsageError,
)
from .traceio import _HEAD_RECORDS, load_pair, write_run, write_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code for usage errors is 2; we reserve 2
    for trace parse failures, so remap usage errors to 1."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _add_common_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=0.0, help="erasure probability")
    p.add_argument("--s", type=float, default=1.0,
                   help="P(error-free | not erased)")
    p.add_argument("--p", type=float, default=0.0,
                   help="bit crossover probability in corrupted frames")
    p.add_argument("--rate", type=float, default=54e6, help="PHY bit rate [bits/s]")
    p.add_argument("--frame-len", type=int, default=8000,
                   help="payload length [bits]")
    p.add_argument("--interval-us", type=int, default=20000,
                   help="inter-packet interval [us]")


def build_parser() -> _Parser:
    parser = _Parser(prog="hybridchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="generate a tx/rx trace pair")
    _add_common_sim_flags(p_sim)
    p_sim.add_argument("--frames", type=int, required=True,
                       help="number of frames")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--skew-ppm", type=float, default=0.0,
                       help="rx clock rate error [ppm]")
    p_sim.add_argument("--offset-us", type=int, default=0,
                       help="rx clock offset [us]")
    p_sim.add_argument("--jitter-us", type=int, default=0,
                       help="uniform rx timestamp jitter amplitude [us]")
    p_sim.add_argument("--periodic", action="store_true",
                       help="use periodic window noise instead of the hybrid channel")
    p_sim.add_argument("--period", type=int, default=288,
                       help="window spacing for --periodic [bits]")
    p_sim.add_argument("--burst", type=int, default=32,
                       help="window length for --periodic [bits]")
    p_sim.add_argument("--p-burst", type=float, default=0.05,
                       help="flip probability inside windows for --periodic")
    p_sim.add_argument("--out", type=Path, required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="run the statistical pipeline")
    p_an.add_argument("tx_trace", type=Path)
    p_an.add_argument("rx_trace", type=Path)
    p_an.add_argument("--seed", type=int, default=0,
                      help="base key for interleaving emulation")
    p_an.add_argument("--no-interleave", action="store_true",
                      help="analyze error vectors in raw (wire) bit order")
    p_an.add_argument("--out", type=Path, required=True)

    p_cap = sub.add_parser("capacity", help="estimate parameters and capacity")
    p_cap.add_argument("tx_trace", type=Path)
    p_cap.add_argument("rx_trace", type=Path)
    p_cap.add_argument("--rssi-bin", type=int, default=1,
                       help="RSSI bin width")
    p_cap.add_argument("--out", type=Path, required=True)

    p_rec = sub.add_parser("recover", help="recover corrupted frames' seq numbers")
    p_rec.add_argument("tx_trace", type=Path)
    p_rec.add_argument("rx_trace", type=Path)
    p_rec.add_argument("--scrub", action="store_true",
                       help="ignore stored seqs and score recovery against them")
    p_rec.add_argument("--out", type=Path, required=True)
    return parser


# simulate draws and writes a block of frames at a time.  A block holds
# about 4 * trace.BLOCK_BYTES: each frame's tx and rx payload rows, plus
# about _FRAME_BYTES of its columns and channel temporaries (measured at
# 400 bits).  It is at least _HEAD_RECORDS frames, as many records as the
# writer formats heads for at once.
_FRAME_BYTES = 170


def _block_frames(frame_len: int) -> int:
    """Frames in one block of a simulate run of frame_len-bit payloads."""
    return max(_HEAD_RECORDS, 4 * _trace.BLOCK_BYTES
               // (2 * ((frame_len + 7) // 8) + _FRAME_BYTES))


@contextlib.contextmanager
def _made_dir(path: Path):
    """Make the directory path, with its parents; if the body raises,
    remove again those of them that this made and that are empty."""
    made = list(itertools.takewhile(lambda d: not d.exists(), (path, *path.parents)))
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for directory in made:  # the deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _simulate_into(out: Path, config: sim.SimConfig,
                   channel: Callable[[Trace], Trace]) -> None:
    """Write config's run through channel, which gives a tx trace's rx
    trace, to out/tx.trace and out/rx.trace, a block of frames at a time.

    Every draw is keyed by its frame, so a block's records are those of
    the whole run and the files hold the bytes write_trace gives the
    whole run.  On any exception out is left as it was (write_run).
    """
    def block(frames: range) -> tuple[Trace, Trace]:
        tx = sim.generate_tx(config, frames)
        return tx, channel(tx)

    # map holds no block once it has given it, so one block is held at a time
    n, step = config.n_frames, _block_frames(config.params.frame_len)
    blocks = map(block, (range(start, min(start + step, n))
                         for start in range(0, n, step)))
    with _made_dir(out):
        write_run(blocks, out / "tx.trace", out / "rx.trace")


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = ChannelParams(
        r=args.r, s=args.s, p=args.p, rate_bps=args.rate,
        frame_len=args.frame_len, interval_us=args.interval_us,
    )
    config = sim.SimConfig(
        params=params, seed=args.seed, n_frames=args.frames,
        clock_skew_ppm=args.skew_ppm, clock_offset_us=args.offset_us,
        timestamp_jitter_us=args.jitter_us,
    )
    if args.periodic:
        hybrid = {"--r": args.r != 0.0, "--s": args.s != 1.0, "--p": args.p != 0.0,
                  "--jitter-us": args.jitter_us != 0}
        if any(hybrid.values()):
            given = ", ".join(flag for flag, changed in hybrid.items() if changed)
            raise UsageError(f"--periodic noise does not use {given}")

        def channel(tx: Trace) -> Trace:
            return sim.apply_periodic_noise(
                tx, args.period, args.burst, args.p_burst, args.seed,
                clock_skew_ppm=args.skew_ppm, clock_offset_us=args.offset_us,
            )
        noise = (f"periodic period={args.period} burst={args.burst} "
                 f"p_in_burst={args.p_burst}")
    else:
        def channel(tx: Trace) -> Trace:
            return sim.apply_channel(tx, config)
        noise = f"hybrid r={args.r} s={args.s} p={args.p}"
    _simulate_into(args.out, config, channel)
    print(f"simulated {args.frames} frames ({noise}), seed={args.seed}")
    print(f"frame_len={args.frame_len} bits, interval={args.interval_us} us, "
          f"rate={args.rate:g} bits/s")
    print(f"wrote {args.out / 'tx.trace'} and {args.out / 'rx.trace'}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = load_pair(args.tx_trace, args.rx_trace)
    table = stats.error_table(trace, None if args.no_interleave else args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    tests = stats.per_frame_runs_tests(table)
    segs = segment_corrupted_frames(table)
    # The segments split the table's rows into consecutive runs, in order.
    seg_of = np.repeat(np.arange(len(segs)), segs.n_corrupted)

    # One line per rx record.  The table's rows are the corrupted records
    # in trace order, and only they get the test columns; the rest, and a
    # z or p that does not exist, are written as empty fields.
    rx = trace.rx
    tested = np.full((len(rx), 6), None, dtype=object)
    corrupted = rx.corrupted()
    for j, column in enumerate((
        table.n1, table.n1 / table.frame_len,
        np.where(np.isnan(tests.z), None, tests.z),
        np.where(np.isnan(tests.p), None, tests.p),
        np.array(VERDICTS, dtype=object)[tests.verdict], seg_of,
    )):
        tested[corrupted, j] = column
    tokens = [status.value for status in STATUSES]
    frame_rows = (
        ["?" if seq == UNKNOWN_SEQ else seq, ts, tokens[status], *test]
        for seq, ts, status, *test in zip(rx.seq.tolist(), rx.timestamp_us.tolist(),
                                          rx.status.tolist(), *tested.T)
    )
    _write_csv(
        args.out / "frames.csv",
        ["seq", "timestamp_us", "status", "bit_errors", "crossover",
         "runs_z", "runs_p", "runs_verdict", "segment"],
        frame_rows,
    )

    _write_csv(
        args.out / "segments.csv",
        ["segment", "start_frame", "end_frame", "n_frames", "n_corrupted",
         "duration_s", "pooled_p"],
        zip(range(len(segs)), *(col.tolist() for col in (
            segs.start_frame, segs.end_frame, segs.n_frames, segs.n_corrupted,
            segs.duration_us / 1e6, segs.pooled_p))),
    )

    if len(table):
        profile = stats.bit_position_profile(table)
        profile_rows = [[i, float(f)] for i, f in enumerate(profile)]
    else:
        profile_rows = []
    _write_csv(args.out / "profile.csv", ["position", "error_frequency"],
               profile_rows)

    outcome_report = stats.outcome_iid_tests(trace, segs)
    _write_csv(
        args.out / "outcomes.csv",
        ["outcome", "fraction", "pass_frames", "valid_frames",
         "segments_tested", "excluded"],
        [
            [frac.outcome.value, frac.fraction, frac.n_pass_frames,
             frac.n_valid_frames, frac.n_segments_tested, frac.n_excluded]
            for frac in outcome_report.fractions.values()
        ],
    )

    counts = np.bincount(tests.verdict, minlength=len(VERDICTS)).tolist()
    n_pass, n_decided = counts[PASS], counts[PASS] + counts[FAIL]
    pass_rate = n_pass / n_decided if n_decided else None
    symmetry = None
    if len(table):
        rep = stats.symmetry_report(table)
        symmetry = {
            "n1": rep.n1, "n0": rep.n0, "mu1": rep.mu1, "se1": rep.se1,
            "mu0": rep.mu0, "se0": rep.se0, "z": rep.z,
            "symmetric": rep.symmetric,
        }
    summary = {
        "alpha": ALPHA,
        "interleave_emulation": not args.no_interleave,
        "n_tx_frames": len(trace.tx),
        "n_rx_frames": len(trace.rx),
        "n_corrupted": len(table),
        "per_frame_pass_rate": pass_rate,
        "n_segments": len(segs),
        "mean_segment_duration_s": mean_segment_duration(segs),
        "covered_frames": outcome_report.covered_frames,
        "outcome_pass_fractions": {
            frac.outcome.value: frac.fraction
            for frac in outcome_report.fractions.values()
        },
        "symmetry": symmetry,
    }
    (args.out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"analyzed {len(trace.rx)} rx frames: {len(table)} corrupted, "
          f"{len(segs)} segments")
    if pass_rate is not None:
        print(f"per-frame runs-test pass rate: {pass_rate:.4f}")
    print(f"reports written to {args.out}")
    return EXIT_OK


def _cmd_capacity(args: argparse.Namespace) -> int:
    trace = load_pair(args.tx_trace, args.rx_trace)
    if not len(trace.rx):
        raise TraceFormatError("rx trace has no records", str(args.rx_trace))
    report = capacity_report(trace, rssi_bin_width=args.rssi_bin)
    args.out.mkdir(parents=True, exist_ok=True)
    if report.per_rssi_bins:
        _write_csv(
            args.out / "capacity.csv",
            ["rssi", "n", "fer", "s_hat", "p_hat", "C_hybrid", "C_erasure",
             "gain"],
            [
                [b.rssi, b.n_frames, b.fer, b.s_hat, b.p_hat, b.hybrid_bps,
                 b.erasure_bps, b.gain]
                for b in report.per_rssi_bins
            ],
        )
    est = report.params
    summary = {
        "n_frames": est.n_frames,
        "r_hat": est.r_hat,
        "s_hat": est.s_hat,
        "p_hat": est.p_hat,
        "fer_hat": est.fer_hat,
        "hybrid_bps": report.hybrid_bps,
        "erasure_bps": report.erasure_bps,
        "gain": report.gain,
        "n_rssi_bins": len(report.per_rssi_bins),
    }
    (args.out / "capacity_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"hybrid capacity:  {report.hybrid_bps:.6g} bits/s")
    print(f"erasure capacity: {report.erasure_bps:.6g} bits/s")
    if report.gain is not None:
        print(f"gain: {report.gain:.4f}")
    if report.per_rssi_bins:
        print(f"per-RSSI bins written to {args.out / 'capacity.csv'}")
    else:
        print("no RSSI data; per-bin section omitted")
    return EXIT_OK


def _cmd_recover(args: argparse.Namespace) -> int:
    trace = load_pair(args.tx_trace, args.rx_trace)
    recovered, summary = recovery.recover_trace(trace, scrub=args.scrub)
    if summary.n_anchors < 2 and summary.n_attempted:
        print("warning: fewer than two error-free frames with a known seq "
              "to fit the clock; all corrupted frames unresolved", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    write_trace(recovered, args.out / "recovered.trace")
    print(f"corrupted frames: {summary.n_corrupted}, attempted: "
          f"{summary.n_attempted}, recovered: {summary.n_recovered}, "
          f"unresolved: {summary.n_unresolved}")
    if summary.accuracy is not None:
        print(f"recovery accuracy vs ground truth: {summary.accuracy:.4f}")
    print(f"wrote {args.out / 'recovered.trace'}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "capacity": _cmd_capacity,
    "recover": _cmd_recover,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TraceFormatError as exc:
        print(f"hybridchan: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"hybridchan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"hybridchan: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"hybridchan: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
