import json

import numpy as np
import pytest

from hybridchan import (
    FrameRecord,
    ReceiveStatus,
    Trace,
    TraceMeta,
    load_pair,
    write_trace,
)
from hybridchan.cli import main


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
        tx = Trace.from_records(meta, tx=[FrameRecord(
            seq=0, timestamp_us=0, status=ReceiveStatus.OK, payload=payload)])
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

    def test_small_sample_frames_have_no_verdict(self, tmp_path):
        # 16-bit error vectors are below the runs test's normal-length
        # cutoff, so a frame's runs test decides nothing even with a p-value
        run = tmp_path / "run"
        assert run_cli(["simulate", "--frames", 200, "--frame-len", 16,
                        "--r", 0, "--s", 0.2, "--p", 0.3, "--seed", 4,
                        "--out", run]) == 0
        out = tmp_path / "reports"
        assert run_cli(["analyze", run / "tx.trace", run / "rx.trace",
                        "--seed", 4, "--out", out]) == 0
        rows = [line.split(",") for line in
                (out / "frames.csv").read_text().splitlines()[1:]]
        verdicts = [row[7] for row in rows if row[2] == "crc"]
        assert len(verdicts) > 100
        assert set(verdicts) == {"small_sample", "degenerate"}
        assert verdicts.count("small_sample") > 100
        # a small sample with a z-score still reports it
        assert any(row[5] != "" for row in rows if row[7] == "small_sample")
        summary = json.loads((out / "summary.json").read_text())
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
            tx_recs.append(FrameRecord(seq=seq, timestamp_us=100 * seq,
                                       status=ReceiveStatus.OK,
                                       payload=payload))
            if seq % 3 == 0:
                received = payload.copy()
                received[:2] ^= 1
                rec = FrameRecord(seq=seq, timestamp_us=100 * seq,
                                  status=ReceiveStatus.CRC_ERROR,
                                  payload=received, rssi=-60 - (seq % 2))
            else:
                rec = FrameRecord(seq=seq, timestamp_us=100 * seq,
                                  status=ReceiveStatus.OK, payload=payload,
                                  rssi=-60 - (seq % 2))
            rx_recs.append(rec)
        write_trace(Trace.from_records(meta, tx=tx_recs), tmp_path / "tx.trace")
        write_trace(Trace.from_records(meta, rx=rx_recs), tmp_path / "rx.trace")
        rep = tmp_path / "cap"
        code = run_cli(["capacity", tmp_path / "tx.trace",
                        tmp_path / "rx.trace", "--rssi-bin", 1, "--out", rep])
        assert code == 0
        lines = (rep / "capacity.csv").read_text().splitlines()
        assert lines[0] == "rssi,n,fer,s_hat,p_hat,C_hybrid,C_erasure,gain"
        assert len(lines) == 3

    def test_empty_rx_is_parse_error(self, tmp_path, capsys):
        meta = TraceMeta(rate_bps=54e6, frame_len=16, interval_us=100)
        write_trace(Trace.from_records(meta, tx=[FrameRecord(
            seq=0, timestamp_us=0, status=ReceiveStatus.OK,
            payload=np.ones(16, dtype=np.uint8))]), tmp_path / "tx.trace")
        write_trace(Trace(meta=meta), tmp_path / "rx.trace")
        rep = tmp_path / "cap"
        code = run_cli(["capacity", tmp_path / "tx.trace", tmp_path / "rx.trace",
                        "--out", rep])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hybridchan: parse error: {tmp_path / 'rx.trace'}: rx trace has no records\n")
        assert not rep.exists()


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
        out = tmp_path / "rec"
        code = run_cli(["recover", run / "tx.trace", run / "rx.trace",
                        "--scrub", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: no error-free frames" in captured.err
        assert "unresolved: " in captured.out

    @pytest.mark.parametrize("tx_ts, rx_ts", [
        ([0, 0, 0, 0], [0, 10, 20, 30]),      # every anchor at one tx time
        ([0, 10, 20, 30], [50, 50, 50, 50]),  # every anchor at one rx time
    ])
    def test_degenerate_clock_fit_leaves_frame_unresolved(self, tmp_path, capsys,
                                                          tx_ts, rx_ts):
        meta = TraceMeta(rate_bps=54e6, frame_len=8, interval_us=10)
        payload = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        tx = [FrameRecord(seq=k, timestamp_us=t, status=ReceiveStatus.OK,
                          payload=payload) for k, t in enumerate(tx_ts)]
        rx = [FrameRecord(seq=k, timestamp_us=rx_ts[k], status=ReceiveStatus.OK,
                          payload=payload) for k in range(3)]
        rx.append(FrameRecord(seq=None, timestamp_us=rx_ts[3],
                              status=ReceiveStatus.CRC_ERROR, payload=payload))
        write_trace(Trace.from_records(meta, tx=tx), tmp_path / "tx.trace")
        write_trace(Trace.from_records(meta, rx=rx), tmp_path / "rx.trace")
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


def test_commands_never_build_a_record(tmp_path, monkeypatch, capsys):
    """Every command works on the columns, with no record object per frame."""
    def no_record(self, *args, **kwargs):
        raise AssertionError("a FrameRecord was built")

    monkeypatch.setattr(FrameRecord, "__init__", no_record)
    run = simulate(tmp_path, "run")
    periodic = tmp_path / "periodic"
    assert run_cli(["simulate", "--frames", 200, "--frame-len", 500, "--seed", 5,
                    "--periodic", "--period", 100, "--burst", 10,
                    "--p-burst", 0.1, "--out", periodic]) == 0
    for pair in ([run / "tx.trace", run / "rx.trace"],
                 [periodic / "tx.trace", periodic / "rx.trace"]):
        out = tmp_path / "out" / pair[0].parent.name
        assert run_cli(["analyze", *pair, "--out", out / "a"]) == 0
        assert run_cli(["analyze", *pair, "--no-interleave", "--out", out / "b"]) == 0
        assert run_cli(["capacity", *pair, "--out", out / "c"]) == 0
        assert run_cli(["recover", *pair, "--scrub", "--out", out / "d"]) == 0
    assert "recovery accuracy" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="FrameRecord was built"):
        FrameRecord(seq=0, timestamp_us=0, status=ReceiveStatus.PHY_ERROR)


def test_commands_never_unpack_a_record(tmp_path, monkeypatch, capsys):
    """analyze, capacity and recover work on packed payload bytes only."""
    run = simulate(tmp_path, "run")

    def unpacked(self):
        raise AssertionError("a record's payload was unpacked")

    monkeypatch.setattr(FrameRecord, "payload", property(unpacked))
    pair = [run / "tx.trace", run / "rx.trace"]
    assert run_cli(["analyze", *pair, "--out", tmp_path / "a"]) == 0
    assert run_cli(["analyze", *pair, "--no-interleave", "--out", tmp_path / "b"]) == 0
    assert run_cli(["capacity", *pair, "--out", tmp_path / "c"]) == 0
    assert run_cli(["recover", *pair, "--scrub", "--out", tmp_path / "d"]) == 0
    assert "recovery accuracy" in capsys.readouterr().out
