import json
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hybridchan import (
    ChannelParams,
    ReceiveStatus,
    SimConfig,
    Trace,
    TraceMeta,
    apply_channel,
    apply_periodic_noise,
    generate_tx,
    load_pair,
    segment_corrupted_frames,
    write_trace,
)
import hybridchan.trace
from hybridchan import capacity, cli, recovery, sim, stats, traceio
from hybridchan.cli import main
from hybridchan.trace import CRC, OK, PHY

from conftest import Row, rows, side


def run_cli(args):
    return main([str(a) for a in args])


def simulate(tmp_path, name, extra=()):
    out = tmp_path / name
    code = run_cli(["simulate", "--frames", 200, "--frame-len", 500,
                    "--r", 0.1, "--s", 0.6, "--p", 0.01, "--seed", 5,
                    "--out", out, *extra])
    assert code == 0
    return out


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSimulate:
    def test_writes_trace_pair(self, tmp_path, capsys):
        out = simulate(tmp_path, "run")
        assert (out / "tx.trace").exists() and (out / "rx.trace").exists()
        assert "seed=5" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, tmp_path):
        a = simulate(tmp_path, "a")
        b = simulate(tmp_path, "b")
        assert tree_bytes(a) == tree_bytes(b)

    def test_missing_frames_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--out", tmp_path / "x"])
        assert exc.value.code == 1

    def test_invalid_probability_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["simulate", "--frames", 10, "--r", 1.5,
                        "--out", tmp_path / "x"])
        assert code == 1
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_periodic_flag_routes_to_window_noise(self, tmp_path):
        out = tmp_path / "periodic"
        code = run_cli(["simulate", "--frames", 50, "--frame-len", 600,
                        "--periodic", "--period", 288, "--burst", 32,
                        "--p-burst", 0.2, "--seed", 3, "--out", out])
        assert code == 0
        text = (out / "rx.trace").read_text()
        assert " crc " in text and " phy " not in text

    @pytest.mark.parametrize("flags, named", [
        (["--jitter-us", 500, "--r", 0.5], "--r, --jitter-us"),
        (["--s", 0.9], "--s"),
        (["--p", 0.01], "--p"),
    ])
    def test_periodic_refuses_hybrid_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "periodic"
        code = run_cli(["simulate", "--frames", 50, "--frame-len", 600,
                        "--periodic", "--seed", 3, *flags, "--out", out])
        assert code == 1
        assert f"--periodic noise does not use {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--interval-us", 100, "--jitter-us", 60], "rx timestamps could run backwards"),
        (["--skew-ppm", -2000000], "rx timestamps could run backwards"),
        (["--skew-ppm", "nan"], "clock_skew_ppm=nan must be finite"),
        (["--rate", "nan"], "rate_bps=nan must be positive and finite"),
        (["--rate", "inf"], "rate_bps=inf must be positive and finite"),
        (["--rate", "1e400"], "rate_bps=inf must be positive and finite"),
    ])
    def test_unwritable_clock_or_rate_refused_before_any_file(
            self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--frames", 50, "--frame-len", 64,
                        *flags, "--out", out])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", [[], ["--periodic"]])
    @pytest.mark.parametrize("offset_us", [10**19, 10**400, -10**400])
    def test_offset_past_18_digits_exits_3_before_any_file(
            self, tmp_path, capsys, model, offset_us):
        # 10**400 is past any float: refused before it meets one
        out = tmp_path / "run"
        code = run_cli(["simulate", "--frames", 5, "--frame-len", 600, *model,
                        "--offset-us", offset_us, "--out", out])
        assert code == 3
        assert capsys.readouterr().err == (
            "hybridchan: invariant violation: "
            "timestamp_us values must have at most 18 digits\n")
        assert not out.exists()

    def test_jitter_of_half_the_interval_writes_a_readable_pair(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--frames", 500, "--frame-len", 64,
                        "--r", 0.1, "--s", 0.5, "--p", 0.02,
                        "--interval-us", 100, "--jitter-us", 50, "--out", out])
        assert code == 0
        trace = load_pair(out / "tx.trace", out / "rx.trace")
        assert len(trace.rx) == 500

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("HYBRIDCHAN_SEED", "5")
        flags = ["simulate", "--frames", 50, "--frame-len", 200, "--r", 0.1,
                 "--s", 0.5, "--p", 0.02]
        assert run_cli([*flags, "--out", tmp_path / "default"]) == 0
        assert run_cli([*flags, "--seed", 0, "--out", tmp_path / "zero"]) == 0
        assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "zero")


# (frames per block, frames): each run crosses several block seams
BLOCK_SIZES = [(1, 23), (2, 23), (7, 50), (1024, 2100)]


def write_whole(out, tx, rx):
    """tx and rx written by write_trace, as the in-memory run's reference."""
    out.mkdir()
    write_trace(tx, out / "tx.trace")
    write_trace(rx, out / "rx.trace")
    return tree_bytes(out)


class TestSimulateBlocks:
    """simulate draws and writes a block of frames at a time; every block
    size gives the bytes of the whole run written at once."""

    @pytest.mark.parametrize("size, frames", BLOCK_SIZES)
    def test_hybrid_blocks_write_the_whole_run(self, tmp_path, monkeypatch,
                                                size, frames):
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: size)
        out = tmp_path / "run"
        assert run_cli(["simulate", "--frames", frames, "--frame-len", 125,
                        "--r", 0.2, "--s", 0.5, "--p", 0.05, "--skew-ppm", 40,
                        "--offset-us", -700, "--jitter-us", 30, "--interval-us", 1000,
                        "--seed", 17, "--out", out]) == 0
        config = SimConfig(
            params=ChannelParams(r=0.2, s=0.5, p=0.05, rate_bps=54e6,
                                 frame_len=125, interval_us=1000),
            seed=17, n_frames=frames, clock_skew_ppm=40, clock_offset_us=-700,
            timestamp_jitter_us=30)
        tx = generate_tx(config)
        rx = apply_channel(tx, config)
        assert set(rx.rx.status.tolist()) == {PHY, CRC, OK}
        assert tree_bytes(out) == write_whole(tmp_path / "whole", tx, rx)

    @pytest.mark.parametrize("size, frames", BLOCK_SIZES)
    def test_periodic_blocks_write_the_whole_run(self, tmp_path, monkeypatch,
                                                  size, frames):
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: size)
        out = tmp_path / "run"
        assert run_cli(["simulate", "--periodic", "--frames", frames,
                        "--frame-len", 300, "--period", 100, "--burst", 10,
                        "--p-burst", 0.02, "--skew-ppm", -15, "--offset-us", 90,
                        "--seed", 4, "--out", out]) == 0
        config = SimConfig(
            params=ChannelParams(r=0.0, s=1.0, p=0.0, rate_bps=54e6,
                                 frame_len=300, interval_us=20000),
            seed=4, n_frames=frames)
        tx = generate_tx(config)
        rx = apply_periodic_noise(tx, 100, 10, 0.02, 4, clock_skew_ppm=-15,
                                  clock_offset_us=90)
        assert set(rx.rx.status.tolist()) == {CRC, OK}
        assert tree_bytes(out) == write_whole(tmp_path / "whole", tx, rx)

    @pytest.mark.parametrize("size, frames", BLOCK_SIZES)
    def test_drift_at_a_seam(self, tmp_path, monkeypatch, size, frames):
        """A drift_schedule whose first change starts a block and whose
        second falls inside one, unless blocks are single frames."""
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: size)

        def params(r, s, p):
            return ChannelParams(r=r, s=s, p=p, rate_bps=11e6, frame_len=77,
                                 interval_us=500)

        config = SimConfig(
            params=params(0.05, 0.8, 0.01), seed=-9, n_frames=frames,
            clock_skew_ppm=-12.5, clock_offset_us=300, timestamp_jitter_us=20,
            drift_schedule=((2 * size, params(0.5, 0.1, 0.2)),
                            (2 * size + 1, params(0.0, 0.3, 0.001))))
        cli._simulate_into(tmp_path / "run", config,
                           lambda tx: apply_channel(tx, config))
        tx = generate_tx(config)
        rx = apply_channel(tx, config)
        assert tree_bytes(tmp_path / "run") == write_whole(tmp_path / "whole", tx, rx)

    def test_one_block_is_held_at_a_time(self, tmp_path, monkeypatch):
        """Every earlier block is gone when the next is drawn."""
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: 7)
        drawn, real = [], sim.generate_tx

        def generate_tx(config, frames):
            assert all(block() is None for block in drawn), len(drawn)
            tx = real(config, frames)
            drawn.append(weakref.ref(tx))
            return tx

        monkeypatch.setattr(sim, "generate_tx", generate_tx)
        assert run_cli(["simulate", "--frames", 30, "--frame-len", 64, "--r", 0.2,
                        "--s", 0.5, "--p", 0.1, "--out", tmp_path / "run"]) == 0
        assert len(drawn) == 5

    def test_peak_grows_by_columns_not_payload_rows(self, tmp_path):
        """At 2 000-bit frames, 6 000 more frames add 3 MB of payload rows
        to the two sides; simulate holds only their columns."""
        assert cli._block_frames(2000) <= 2000  # both runs span whole blocks
        flags = ["--frame-len", 2000, "--r", 0.1, "--s", 0.5, "--p", 0.01,
                 "--jitter-us", 50, "--skew-ppm", 20]
        assert run_cli(["simulate", "--frames", 10, *flags,
                        "--out", tmp_path / "warm"]) == 0
        peaks = []
        for n in (2000, 8000):
            tracemalloc.start()
            try:
                assert run_cli(["simulate", "--frames", n, *flags,
                                "--out", tmp_path / str(n)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The columns of both sides are about 50 bytes a frame.
        assert peaks[1] - peaks[0] < 6000 * 100


class TestSimulateAllOrNothing:
    """A simulate run that fails leaves --out as it found it: the pair
    already there byte-identical, and no temporary file."""

    @pytest.fixture
    def pair(self, tmp_path):
        """A directory holding a trace pair, and its files' bytes."""
        out = simulate(tmp_path, "run")
        return out, tree_bytes(out)

    def test_failure_mid_stream(self, pair, capsys, monkeypatch):
        out, before = pair
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: 100)
        seen = []

        def third_block_fails(tx, config):
            seen.append(sorted(p.name for p in out.iterdir()))
            if len(seen) == 3:
                raise ValueError("a numpy call refused its input")
            return apply_channel(tx, config)

        monkeypatch.setattr(sim, "apply_channel", third_block_fails)
        assert run_cli(["simulate", "--frames", 500, "--frame-len", 500,
                        "--r", 0.1, "--s", 0.6, "--p", 0.01, "--out", out]) == 3
        assert capsys.readouterr().err == (
            "hybridchan: internal error: a numpy call refused its input\n")
        # the temporaries were there while the blocks were written
        assert len(seen) == 3 and len(seen[2]) == 4
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("flags", [
        # rx timestamps pass 18 digits at frame 2667, in the third block
        ["--frames", 3000, "--interval-us", 3 * 10**14, "--offset-us", 2 * 10**17],
        # tx timestamps pass 18 digits at frame 3334, in the fourth block
        ["--frames", 5000, "--interval-us", 3 * 10**14],
    ], ids=["rx", "tx"])
    def test_timestamp_past_18_digits(self, pair, capsys, monkeypatch, flags):
        out, before = pair
        monkeypatch.setattr(cli, "_block_frames", lambda frame_len: 1024)
        assert run_cli(["simulate", "--frame-len", 64, *flags, "--out", out]) == 3
        assert capsys.readouterr().err == (
            "hybridchan: invariant violation: "
            "timestamp_us values must have at most 18 digits\n")
        assert tree_bytes(out) == before

    def test_refused_clock(self, pair, capsys):
        out, before = pair
        assert run_cli(["simulate", "--frames", 50, "--interval-us", 100,
                        "--jitter-us", 60, "--out", out]) == 1
        assert "rx timestamps could run backwards" in capsys.readouterr().err
        assert tree_bytes(out) == before

    def test_new_directories_are_removed(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert run_cli(["simulate", "--frames", 5, "--frame-len", 64,
                        "--interval-us", 10**18, "--out", out]) == 3
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    """A bad argument exits 1; a ValueError from inside the program exits 3."""

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--frames", 10, "--r", 1.5], "r=1.5 outside [0, 1]"),
        (["simulate", "--frames", 10, "--frame-len", 0], "frame_len=0 must be positive"),
        (["simulate", "--frames", 0], "n_frames must be positive"),
        (["simulate", "--frames", 10, "--jitter-us", -1],
         "timestamp_jitter_us must be non-negative"),
        (["simulate", "--frames", 10, "--periodic", "--p", 0.1],
         "--periodic noise does not use --p"),
        (["simulate", "--frames", 10, "--frame-len", 600, "--periodic",
          "--burst", 300], "need 0 < burst_len <= period <= frame_len"),
        (["capacity", "{run}/tx.trace", "{run}/rx.trace", "--rssi-bin", 0],
         "rssi_bin_width=0 must be positive"),
    ])
    def test_argument_error_exits_1(self, tmp_path, capsys, args, message):
        run = simulate(tmp_path, "run")
        code = run_cli([str(a).format(run=run) for a in args]
                       + ["--out", tmp_path / "out"])
        assert code == 1
        assert f"hybridchan: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, target", [
        ("simulate", "hybridchan.sim.apply_channel"),
        ("analyze", "hybridchan.stats.error_table"),
        ("capacity", "hybridchan.cli.capacity_report"),
        ("recover", "hybridchan.recovery.recover_trace"),
    ])
    def test_value_error_inside_a_library_call_exits_3(
            self, tmp_path, capsys, monkeypatch, command, target):
        run = simulate(tmp_path, "run")

        def broken(*args, **kwargs):
            raise ValueError("a numpy call refused its input")

        monkeypatch.setattr(target, broken)
        args = (["--frames", 10] if command == "simulate"
                else [run / "tx.trace", run / "rx.trace"])
        assert run_cli([command, *args, "--out", tmp_path / "out"]) == 3
        assert ("hybridchan: internal error: a numpy call refused its input"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["analyze", "capacity", "recover"])
    @pytest.mark.parametrize("tx_name", ["meta-only.trace", "rx.trace"])
    def test_rx_records_without_tx_records_exit_2(self, tmp_path, capsys,
                                                  command, tx_name):
        """A tx file of only its #meta line, or the rx file given as both
        files, pairs rx records with no tx record."""
        run = simulate(tmp_path, "run")
        meta_line = (run / "tx.trace").read_text().splitlines(keepends=True)[0]
        (run / "meta-only.trace").write_text(meta_line)
        out = tmp_path / "out"
        assert run_cli([command, run / tx_name, run / "rx.trace", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"hybridchan: parse error: {run / 'rx.trace'}:2: "
            "more rx records than tx records\n")
        assert not out.exists()


class TestUnusablePaths:
    """An input that cannot be read exits 2 and an --out that cannot be made
    exits 1, each with the path and the reason on one line of stderr."""

    @pytest.mark.parametrize("command", ["analyze", "capacity", "recover"])
    @pytest.mark.parametrize("which", ["tx", "rx", "both"])
    @pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                              ("directory", "Is a directory")])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, command, which, kind,
                                      reason):
        run = simulate(tmp_path, "run")
        pair = [run / "tx.trace", run / "rx.trace"]
        for i, name in enumerate(("tx", "rx")):
            if which in (name, "both"):
                pair[i] = tmp_path / f"bad-{name}.trace"
                if kind == "directory":
                    pair[i].mkdir()
        out = tmp_path / "out"
        assert run_cli([command, *pair, "--out", out]) == 2
        # of two unreadable files the tx file is named
        named = pair[0] if which != "rx" else pair[1]
        assert capsys.readouterr().err == f"hybridchan: {named}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze", "capacity", "recover"])
    @pytest.mark.parametrize("under, reason", [(False, "File exists"),
                                               (True, "Not a directory")])
    def test_out_that_cannot_be_made_exits_1_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, command, under, reason):
        run = simulate(tmp_path, "run")
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "out" if under else blocker

        def loaded(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_pair", loaded)
        monkeypatch.setattr(cli, "_simulate_into", loaded)
        args = (["--frames", 10] if command == "simulate"
                else [run / "tx.trace", run / "rx.trace"])
        assert run_cli([command, *args, "--out", out]) == 1
        assert capsys.readouterr().err == f"hybridchan: {out}: {reason}\n"
        assert blocker.read_text() == "kept"


class TestOneBudget:
    """trace.BLOCK_BYTES sizes every blocked pass, and no output depends on it."""

    def outputs(self, root):
        """The bytes of every file that simulate, analyze, capacity and
        recover --scrub write under root."""
        run = simulate(root, "run")
        pair = [run / "tx.trace", run / "rx.trace"]
        for command, flags in (("analyze", []), ("capacity", []),
                               ("recover", ["--scrub"])):
            assert run_cli([command, *pair, *flags, "--out", root / command]) == 0
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    def test_a_small_budget_writes_the_same_bytes(self, tmp_path, monkeypatch):
        want = self.outputs(tmp_path / "default")
        # the most blocks one call gave, per call site of trace.row_blocks
        blocks = {}

        def counted(n_rows, row_bytes):
            caller = sys._getframe(1)
            got = list(hybridchan.trace.row_blocks(n_rows, row_bytes))
            site = caller.f_code.co_name, caller.f_lineno
            blocks[site] = max(blocks.get(site, 0), len(got))
            return iter(got)

        for module in (sim, stats, capacity, recovery, traceio):
            monkeypatch.setattr(module, "row_blocks", counted)
        # 500-bit frames: a block of 256 bytes holds 4 payloads' words, one
        # frame's gap words, 2 frames' tx and rx rows, one recovery row,
        # a quarter of a read block and one written line
        monkeypatch.setattr(hybridchan.trace, "BLOCK_BYTES", 256)
        got = self.outputs(tmp_path / "small")
        assert got == want
        assert {path.parts[0] for path in got} == {"run", "analyze", "capacity",
                                                   "recover"}
        crossed = [site for site, most in blocks.items() if most > 1]
        assert sorted(name for name, _ in crossed) == sorted([
            "generate_tx", "apply_channel", "_flips", "error_table", "_flip_counts",
            "recover_trace", "_distances", "_record_blocks", "_line_spans",
            "_read_block", "_read_block"])


class TestAnalyze:
    def test_reports_on_simulated_trace(self, tmp_path):
        run = simulate(tmp_path, "run")
        out = tmp_path / "reports"
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--seed", 5, "--out", out])
        assert code == 0
        for name in ("frames.csv", "segments.csv", "profile.csv",
                     "outcomes.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_rx_frames"] == 200
        assert summary["n_corrupted"] > 0
        assert summary["n_segments"] >= 1
        assert summary["symmetry"]["symmetric"] in (True, False)
        frames = (out / "frames.csv").read_text().splitlines()
        assert frames[0].startswith("seq,timestamp_us,status")
        assert len(frames) == 201

    def test_segment_count_matches_reports(self, tmp_path):
        # perfbench/tracer.py counts segments.segments as the length of
        # what segment_corrupted_frames returns
        run, out = tmp_path / "run", tmp_path / "reports"
        run_cli(["simulate", "--frames", 500, "--frame-len", 1000,
                 "--periodic", "--seed", 3, "--out", run])
        assert run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--no-interleave", "--out", out]) == 0
        table = stats.error_table(load_pair(run / "tx.trace", run / "rx.trace"))
        n_rows = (out / "segments.csv").read_text().count("\n") - 1
        summary = json.loads((out / "summary.json").read_text())
        # a periodic frame that draws no flip is received clean
        n_crc = sum(line.split(" ")[3] == "crc" for line in
                    (run / "rx.trace").read_text().splitlines()[1:])
        assert len(table) == n_crc > 400
        assert len(segment_corrupted_frames(table)) == n_rows \
            == summary["n_segments"] > 1

    def test_alpha_is_not_a_flag(self, tmp_path, capsys):
        run = simulate(tmp_path, "run")
        with pytest.raises(SystemExit) as exc:
            run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                     "--alpha", 0.01, "--out", tmp_path / "reports"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err
        assert run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "reports"]) == 0
        summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
        assert summary["alpha"] == 0.05

    def test_deterministic_reports(self, tmp_path):
        run = simulate(tmp_path, "run")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                     "--seed", 5, "--out", out])
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_empty_rx_gives_empty_reports(self, tmp_path):
        meta = TraceMeta(rate_bps=54e6, frame_len=16, interval_us=100)
        payload = np.ones(16, dtype=np.uint8)
        tx = Trace(meta, tx=side([Row(
            seq=0, timestamp_us=0, status=ReceiveStatus.OK, payload=payload)]))
        rx = Trace(meta=meta)
        write_trace(tx, tmp_path / "tx.trace")
        write_trace(rx, tmp_path / "rx.trace")
        out = tmp_path / "reports"
        code = run_cli(["analyze", tmp_path / "tx.trace",
                        tmp_path / "rx.trace", "--out", out])
        assert code == 0
        assert (out / "frames.csv").read_text().count("\n") == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_corrupted"] == 0
        assert summary["symmetry"] is None

    def test_no_interleave_flag_exposes_periodic_structure(self, tmp_path):
        out = tmp_path / "periodic"
        run_cli(["simulate", "--frames", 300, "--frame-len", 8000,
                 "--periodic", "--seed", 9, "--out", out])
        raw = tmp_path / "raw"
        whitened = tmp_path / "whitened"
        run_cli(["analyze", out / "tx.trace", out / "rx.trace",
                 "--no-interleave", "--seed", 9, "--out", raw])
        run_cli(["analyze", out / "tx.trace", out / "rx.trace",
                 "--seed", 9, "--out", whitened])
        rate_raw = json.loads(
            (raw / "summary.json").read_text())["per_frame_pass_rate"]
        rate_whitened = json.loads(
            (whitened / "summary.json").read_text())["per_frame_pass_rate"]
        assert rate_whitened >= 0.9
        assert rate_raw < rate_whitened - 0.3

    def test_duplicate_rx_seq_is_parse_error(self, tmp_path, capsys):
        run = simulate(tmp_path, "run")
        lines = (run / "rx.trace").read_text().splitlines()
        meta, first, second = lines[0], lines[1].split(" "), lines[2].split(" ")
        second[1] = first[1]
        (run / "rx.trace").write_text(
            "\n".join([meta, " ".join(first), " ".join(second)]) + "\n")
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"rx seq {first[1]} appears more than once" in err

    def test_nonmonotone_rx_seqs_is_parse_error(self, tmp_path, capsys):
        run = simulate(tmp_path, "run")
        lines = (run / "rx.trace").read_text().splitlines()
        records = [line.split(" ") for line in lines[1:]]
        for i in range(0, len(records) - 1, 7):
            records[i][1], records[i + 1][1] = records[i + 1][1], records[i][1]
        (run / "rx.trace").write_text(
            "\n".join([lines[0]] + [" ".join(r) for r in records]) + "\n")
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "x"])
        assert code == 2
        assert "known rx seqs must increase in trace order" \
            in capsys.readouterr().err

    def test_truncated_tx_is_parse_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run_cli(["simulate", "--frames", 20, "--frame-len", 64,
                 "--r", 0.1, "--s", 0.5, "--p", 0.05, "--seed", 3,
                 "--out", run])
        lines = (run / "tx.trace").read_text().splitlines()
        (run / "tx.trace").write_text("\n".join(lines[:6]) + "\n")
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "x"])
        assert code == 2
        assert "rx.trace:7: more rx records than tx records" \
            in capsys.readouterr().err

    def test_non_utf8_rx_is_parse_error(self, tmp_path, capsys):
        run = simulate(tmp_path, "run")
        lines = (run / "rx.trace").read_bytes().split(b"\n")
        lines[3] = lines[3][:-4] + b"\xff" + lines[3][-3:]
        (run / "rx.trace").write_bytes(b"\n".join(lines))
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "x"])
        assert code == 2
        assert f"{run / 'rx.trace'}:4: not UTF-8 text (byte 0xff)" \
            in capsys.readouterr().err

    def test_uppercase_payload_is_parse_error(self, tmp_path, capsys):
        run = simulate(tmp_path, "run")
        lines = (run / "rx.trace").read_text().split("\n")
        fields = lines[2].split(" ")
        fields[5] = fields[5].upper()
        assert fields[5] != fields[5].lower()
        lines[2] = " ".join(fields)
        (run / "rx.trace").write_text("\n".join(lines))
        code = run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--out", tmp_path / "x"])
        assert code == 2
        assert f"{run / 'rx.trace'}:3: payload must be lowercase hex digits" \
            in capsys.readouterr().err

    @staticmethod
    def crc_frame_rows(tmp_path, frame_len, p):
        """frames.csv rows and summary of a run of 200 frames, 80% corrupted."""
        run, out = tmp_path / f"run-{frame_len}", tmp_path / f"reports-{frame_len}"
        assert run_cli(["simulate", "--frames", 200, "--frame-len", frame_len,
                        "--r", 0, "--s", 0.2, "--p", p, "--seed", 4,
                        "--out", run]) == 0
        assert run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--seed", 4, "--out", out]) == 0
        rows = [line.split(",") for line in
                (out / "frames.csv").read_text().splitlines()[1:]]
        summary = json.loads((out / "summary.json").read_text())
        return [row for row in rows if row[2] == "crc"], summary

    def test_small_sample_frames_have_no_verdict(self, tmp_path):
        # 16-bit error vectors are below the runs test's normal-length
        # cutoff, so a frame's runs test decides nothing even with a p-value
        rows, summary = self.crc_frame_rows(tmp_path, 16, 0.3)
        verdicts = [row[7] for row in rows]
        assert len(verdicts) > 100
        assert set(verdicts) <= {"small_sample", "degenerate"}
        assert verdicts.count("small_sample") > 100
        # a small sample with a z-score still reports it
        assert any(row[5] != "" for row in rows if row[7] == "small_sample")
        assert summary["per_frame_pass_rate"] is None
        # A corrupted 2-bit frame at p = 0.5 has no error or two errors, a
        # run count with no variance, with chance 1/2, so the chance that
        # none of ~160 is degenerate is 2**-160.  One error and one clean
        # bit make a small sample without a z.
        rows, summary = self.crc_frame_rows(tmp_path, 2, 0.5)
        verdicts = [row[7] for row in rows]
        assert set(verdicts) == {"small_sample", "degenerate"}
        assert all(row[5] == "" for row in rows)
        assert summary["per_frame_pass_rate"] is None

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        code = run_cli(["analyze", bad, bad, "--out", tmp_path / "x"])
        assert code == 2
        assert "parse error" in capsys.readouterr().err


class TestCapacityCmd:
    def test_all_ok_trace_reports_full_rate(self, tmp_path, capsys):
        out = tmp_path / "clean"
        run_cli(["simulate", "--frames", 50, "--frame-len", 200,
                 "--r", 0, "--s", 1, "--seed", 1, "--out", out])
        rep = tmp_path / "cap"
        code = run_cli(["capacity", out / "tx.trace", out / "rx.trace",
                        "--out", rep])
        assert code == 0
        summary = json.loads((rep / "capacity_summary.json").read_text())
        assert summary["hybrid_bps"] == 54e6
        assert summary["erasure_bps"] == 54e6
        assert not (rep / "capacity.csv").exists()
        assert "per-bin section omitted" in capsys.readouterr().out

    def test_rssi_bins_written_when_present(self, tmp_path):
        gen = np.random.default_rng(2)
        meta = TraceMeta(rate_bps=54e6, frame_len=100, interval_us=100)
        tx_recs, rx_recs = [], []
        for seq in range(60):
            payload = gen.integers(0, 2, 100, dtype=np.uint8)
            tx_recs.append(Row(seq=seq, timestamp_us=100 * seq,
                               status=ReceiveStatus.OK, payload=payload))
            if seq % 3 == 0:
                received = payload.copy()
                received[:2] ^= 1
                rec = Row(seq=seq, timestamp_us=100 * seq,
                          status=ReceiveStatus.CRC_ERROR,
                          payload=received, rssi=-60 - (seq % 2))
            else:
                rec = Row(seq=seq, timestamp_us=100 * seq,
                          status=ReceiveStatus.OK, payload=payload,
                          rssi=-60 - (seq % 2))
            rx_recs.append(rec)
        write_trace(Trace(meta, tx=side(tx_recs)), tmp_path / "tx.trace")
        write_trace(Trace(meta, rx=side(rx_recs)), tmp_path / "rx.trace")
        rep = tmp_path / "cap"
        code = run_cli(["capacity", tmp_path / "tx.trace",
                        tmp_path / "rx.trace", "--rssi-bin", 1, "--out", rep])
        assert code == 0
        lines = (rep / "capacity.csv").read_text().splitlines()
        assert lines[0] == "rssi,n,fer,s_hat,p_hat,C_hybrid,C_erasure,gain"
        assert len(lines) == 3

    def test_empty_rx_is_parse_error(self, tmp_path, capsys):
        meta = TraceMeta(rate_bps=54e6, frame_len=16, interval_us=100)
        write_trace(Trace(meta, tx=side([Row(
            seq=0, timestamp_us=0, status=ReceiveStatus.OK,
            payload=np.ones(16, dtype=np.uint8))])), tmp_path / "tx.trace")
        write_trace(Trace(meta=meta), tmp_path / "rx.trace")
        rep = tmp_path / "cap"
        code = run_cli(["capacity", tmp_path / "tx.trace", tmp_path / "rx.trace",
                        "--out", rep])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hybridchan: parse error: {tmp_path / 'rx.trace'}: rx trace has no records\n")
        assert not rep.exists()


class TestCorruptedOnlyLoad:
    """analyze and capacity load only the payloads of corrupted frames and
    of their tx records, and write what a full load gives."""

    @staticmethod
    def edit_rx(run, edit):
        """Rewrite each rx record line of run as edit(index, fields) says."""
        lines = (run / "rx.trace").read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            fields = line.split(" ")
            edit(i, fields)
            lines[i] = " ".join(fields)
        (run / "rx.trace").write_text("\n".join(lines) + "\n")

    def unknown_seqs(self, run):
        def edit(i, fields):
            if fields[3] == "crc" and i % 3 == 0:
                fields[1] = "?"
        self.edit_rx(run, edit)

    def rssi(self, run):
        def edit(i, fields):
            fields[4] = str(-60 - i % 7)
        self.edit_rx(run, edit)

    @pytest.mark.parametrize("flags, edit", [
        ([], None),
        (["--s", 1], None),  # no corrupted frame
        (["--p", 0], None),  # corrupted frames without a flip
        ([], "unknown_seqs"),  # corrupted records with seq ?, not loaded
        ([], "rssi"),
    ], ids=["hybrid", "s1", "p0", "unknown-seq", "rssi"])
    def test_outputs_equal_full_load(self, tmp_path, capsys, monkeypatch, flags, edit):
        run = simulate(tmp_path, "run", flags)
        if edit:
            getattr(self, edit)(run)
        pair = [run / "tx.trace", run / "rx.trace"]
        commands = [("analyze", ["--seed", 5]), ("analyze", ["--no-interleave"]),
                    ("capacity", ["--rssi-bin", 2])]
        capsys.readouterr()

        def outputs(name):
            printed = []
            for k, (command, extra) in enumerate(commands):
                assert run_cli([command, *pair, *extra,
                                "--out", tmp_path / name / str(k)]) == 0
                printed.append(capsys.readouterr().out.replace(str(tmp_path / name), ""))
            return printed, {path.relative_to(tmp_path / name): path.read_bytes()
                             for path in sorted((tmp_path / name).rglob("*"))
                             if path.is_file()}

        loads = []
        monkeypatch.setattr(cli, "load_pair", lambda tx, rx, **kwargs: (
            loads.append(kwargs) or load_pair(tx, rx, **kwargs)))
        partial = outputs("partial")
        assert loads == [{"hold": "corrupted"}] * 3
        monkeypatch.setattr(cli, "load_pair", lambda tx, rx, **kwargs: load_pair(tx, rx))
        assert outputs("full") == partial
        corrupted = load_pair(*pair, hold="corrupted").rx.corrupted()
        assert (corrupted.size == 0) == (flags == ["--s", 1])

    @pytest.mark.parametrize("command", ["analyze", "capacity"])
    def test_bad_hex_on_a_row_not_loaded_exits_2(self, tmp_path, capsys, command):
        run = simulate(tmp_path, "run")
        rx = load_pair(run / "tx.trace", run / "rx.trace", hold="corrupted")
        clean = int(rx.rx.seq[rx.rx.status == OK][0])
        assert rx.tx.row[clean] == hybridchan.trace.NOT_LOADED
        lines = (run / "tx.trace").read_text().splitlines()
        lines[1 + clean] = lines[1 + clean][:-1] + "g"
        (run / "tx.trace").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli([command, run / "tx.trace", run / "rx.trace", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"hybridchan: parse error: {run / 'tx.trace'}:{clean + 2}: "
            "payload must be lowercase hex digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "capacity", "recover"])
    def test_of_two_bad_files_the_tx_file_is_named(self, tmp_path, capsys, command):
        run = simulate(tmp_path, "run")
        for name in ("tx", "rx"):
            with (run / f"{name}.trace").open("a") as fh:
                fh.write(f"{name} 999 0 ok - zz\n")
        out = tmp_path / "out"
        assert run_cli([command, run / "tx.trace", run / "rx.trace", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"hybridchan: parse error: {run / 'tx.trace'}:202: "
            "payload hex has 2 digits, expected 126 for 500 bits\n")


class TestRecoverCmd:
    def test_scrub_reports_accuracy(self, tmp_path, capsys):
        run = tmp_path / "run"
        run_cli(["simulate", "--frames", 300, "--frame-len", 800,
                 "--r", 0, "--s", 0.5, "--p", 0.01, "--seed", 8,
                 "--skew-ppm", 50, "--offset-us", 10000, "--out", run])
        out = tmp_path / "rec"
        code = run_cli(["recover", run / "tx.trace", run / "rx.trace",
                        "--scrub", "--out", out])
        assert code == 0
        assert "accuracy vs ground truth: 1.0000" in capsys.readouterr().out
        # the recovered trace is an rx trace, labelled as the rx file is
        first = (out / "recovered.trace").read_text().splitlines()[0]
        assert first == (run / "rx.trace").read_text().splitlines()[0]
        assert 'desc="rx seed=8"' in first

    def test_without_ok_frames_warns(self, tmp_path, capsys):
        run = tmp_path / "run"
        run_cli(["simulate", "--frames", 40, "--frame-len", 400,
                 "--r", 0, "--s", 0, "--p", 0.02, "--seed", 2, "--out", run])
        trace = load_pair(run / "tx.trace", run / "rx.trace")
        # then the first frame comes through clean: one anchor fixes no clock
        rx = rows(trace.rx)
        rx[0] = rows(trace.tx)[0]
        one = tmp_path / "one"
        one.mkdir()
        write_trace(Trace(trace.meta, rx=side(rx)), one / "rx.trace")
        for n_anchors, rx_trace in ((0, run / "rx.trace"), (1, one / "rx.trace")):
            out = tmp_path / f"rec{n_anchors}"
            code = run_cli(["recover", run / "tx.trace", rx_trace,
                            "--scrub", "--out", out])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: fewer than two error-free frames with a known seq "
                "to fit the clock; all corrupted frames unresolved\n")
            assert (f"attempted: {40 - n_anchors}, recovered: 0, "
                    f"unresolved: {40 - n_anchors}") in captured.out

    @pytest.mark.parametrize("scrub", [True, False])
    @pytest.mark.parametrize("n_clean", [0, 1, 2])
    def test_warns_exactly_below_two_anchors(self, tmp_path, capsys, n_clean, scrub):
        run = tmp_path / "run"
        run_cli(["simulate", "--frames", 40, "--frame-len", 400,
                 "--r", 0, "--s", 0, "--p", 0.02, "--seed", 2, "--out", run])
        trace = load_pair(run / "tx.trace", run / "rx.trace")
        # the first n_clean frames come through clean; without --scrub no
        # frame is attempted, since every corrupted frame keeps its seq
        rx = rows(trace.rx)
        rx[:n_clean] = rows(trace.tx)[:n_clean]
        write_trace(Trace(trace.meta, rx=side(rx)), tmp_path / "rx.trace")
        _, summary = recovery.recover_trace(
            load_pair(run / "tx.trace", tmp_path / "rx.trace"), scrub=scrub)
        assert summary.n_anchors == n_clean
        capsys.readouterr()
        assert run_cli(["recover", run / "tx.trace", tmp_path / "rx.trace",
                        *(["--scrub"] if scrub else []), "--out", tmp_path / "rec"]) == 0
        warned = "warning:" in capsys.readouterr().err
        assert warned == (summary.n_anchors < 2 and summary.n_attempted > 0)
        assert summary.n_attempted == (40 - n_clean if scrub else 0)

    @pytest.mark.parametrize("tx_ts, rx_ts", [
        ([0, 0, 0, 0], [0, 10, 20, 30]),      # every anchor at one tx time
        ([0, 10, 20, 30], [50, 50, 50, 50]),  # every anchor at one rx time
    ])
    def test_degenerate_clock_fit_leaves_frame_unresolved(self, tmp_path, capsys,
                                                          tx_ts, rx_ts):
        meta = TraceMeta(rate_bps=54e6, frame_len=8, interval_us=10)
        payload = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        tx = [Row(seq=k, timestamp_us=t, status=ReceiveStatus.OK,
                  payload=payload) for k, t in enumerate(tx_ts)]
        rx = [Row(seq=k, timestamp_us=rx_ts[k], status=ReceiveStatus.OK,
                  payload=payload) for k in range(3)]
        rx.append(Row(seq=None, timestamp_us=rx_ts[3],
                      status=ReceiveStatus.CRC_ERROR, payload=payload))
        write_trace(Trace(meta, tx=side(tx)), tmp_path / "tx.trace")
        write_trace(Trace(meta, rx=side(rx)), tmp_path / "rx.trace")
        code = run_cli(["recover", tmp_path / "tx.trace", tmp_path / "rx.trace",
                        "--out", tmp_path / "rec"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "attempted: 1, recovered: 0, unresolved: 1" in captured.out
        last = (tmp_path / "rec" / "recovered.trace").read_text().splitlines()[-1]
        assert last.startswith(f"rx ? {rx_ts[3]} crc ")

    @pytest.mark.parametrize("flag", ["--window", "--candidates", "--threshold"])
    def test_tuning_flags_are_unknown(self, tmp_path, capsys, flag):
        run = simulate(tmp_path, "run")
        with pytest.raises(SystemExit) as exc:
            run_cli(["recover", run / "tx.trace", run / "rx.trace",
                     flag, 10, "--out", tmp_path / "rec"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
