"""Output checks for the benchmark.

A reader of the trace format of its own, plus checks on what each CLI
command writes.  The checks are recomputations from the trace files or
properties of the method; no check compares against a stored copy of an
earlier output.  Nothing here imports hybridchan, so a fault in the
package's reader or in a statistic cannot hide itself.

Every check raises CheckFailed with a message naming the file and the
value that disagrees.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# Relative tolerance for floats the program derives by a formula the check
# writes down independently (capacities, z-scores); exact recounts compare
# with ==.
FORMULA_RTOL = 1e-12
Z_RTOL = 1e-9
# Binomial frequencies and pass counts must lie within this many standard
# errors of their expectation (a false alarm rate of 6e-5 per check).
N_SE = 4.0
# recover's default accept threshold on the normalised Hamming distance.
MATCH_THRESHOLD = 0.4
# Criterion 10's floor on recovery accuracy.
RECOVERY_FLOOR = 0.99
SYMMETRY_Z = 1.96

_META = re.compile(r'^#meta R=(\S+) frame_len=(\d+) interval_us=(\d+) desc=".*"$')
_RECOVER_LINE = re.compile(
    r"corrupted frames: (\d+), attempted: (\d+), recovered: (\d+), "
    r"unresolved: (\d+)"
)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


@dataclass
class Side:
    """The records of one trace file as parallel arrays, in file order."""

    rate_bps: float
    frame_len: int
    interval_us: int
    seq: np.ndarray  # int64; -1 where the file has "?"
    ts: np.ndarray  # int64
    status: np.ndarray  # "ok" / "crc" / "phy"
    rssi: np.ndarray  # int64; valid where has_rssi
    has_rssi: np.ndarray
    has_payload: np.ndarray
    packed: np.ndarray  # uint8 (n, bytes); zero rows where the payload is "-"

    def __len__(self) -> int:
        return self.seq.size


def read_side(path: Path, side: str) -> Side:
    """Parse a trace file whose records all belong to `side` (tx or rx)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta = _META.match(lines[0]) if lines else None
    require(meta is not None, f"{path}:1: malformed #meta line")
    frame_len = int(meta.group(2))
    n_bytes = (frame_len + 7) // 8
    records = [line.split(" ") for line in lines[1:] if line]
    n = len(records)
    seq = np.empty(n, np.int64)
    ts = np.empty(n, np.int64)
    rssi = np.zeros(n, np.int64)
    has_rssi = np.zeros(n, bool)
    status = np.empty(n, "<U3")
    payload_rows, hexes = [], []
    for i, fields in enumerate(records):
        where = f"{path}:{i + 2}"
        require(len(fields) == 6 and fields[0] == side,
                f"{where}: expected a 6-field {side} record")
        seq[i] = -1 if fields[1] == "?" else int(fields[1])
        ts[i] = int(fields[2])
        require(fields[3] in ("ok", "crc", "phy"), f"{where}: bad status")
        status[i] = fields[3]
        if fields[4] != "-":
            rssi[i], has_rssi[i] = int(fields[4]), True
        if fields[5] != "-":
            require(len(fields[5]) == 2 * n_bytes, f"{where}: payload length")
            payload_rows.append(i)
            hexes.append(fields[5])
    packed = np.zeros((n, n_bytes), np.uint8)
    if hexes:
        packed[payload_rows] = np.frombuffer(
            bytes.fromhex("".join(hexes)), np.uint8
        ).reshape(len(hexes), n_bytes)
    has_payload = np.zeros(n, bool)
    has_payload[payload_rows] = True
    return Side(float(meta.group(1)), frame_len, int(meta.group(3)), seq, ts,
                status, rssi, has_rssi, has_payload, packed)


def with_rssi(rx_path: Path, out_path: Path, seed: int) -> None:
    """Copy an rx trace, giving every non-PHY record an RSSI in dBm.

    The values are synthetic: clean frames draw from N(-66, 5), corrupted
    frames from N(-74, 5), rounded and clipped to [-89, -60].  The centres
    and spread are chosen to give about 30 one-dB bins for
    ``capacity --rssi-bin 1``, with fewer clean frames in the lower bins;
    they are not taken from measured traces.
    """
    lines = Path(rx_path).read_text(encoding="utf-8").splitlines()
    gen = np.random.default_rng([seed, 0x2551])
    draws = np.rint(gen.normal(0.0, 5.0, len(lines))).astype(int)
    out = [lines[0]]
    for line, draw in zip(lines[1:], draws):
        fields = line.split(" ")
        if fields[3] != "phy":
            centre = -66 if fields[3] == "ok" else -74
            fields[4] = str(min(max(centre + draw, -89), -60))
        out.append(" ".join(fields))
    Path(out_path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a ^ b).sum(axis=1, dtype=np.int64)


class Pair:
    """A simulated tx/rx pair and the corrupted frames' raw error bits."""

    def __init__(self, tx: Side, rx: Side):
        self.tx, self.rx = tx, rx
        self.n = tx.frame_len
        self.crc = np.flatnonzero(rx.status == "crc")
        self.crc_seqs = rx.seq[self.crc]
        xor = tx.packed[self.crc_seqs] ^ rx.packed[self.crc]
        self.ev = np.unpackbits(xor, axis=1, count=self.n)
        self.flips = self.ev.sum(axis=1, dtype=np.int64)
        tx_bits = tx.packed[self.crc_seqs]
        self.tx_ones = int(np.bitwise_count(tx_bits).sum(dtype=np.int64))
        self.flipped_ones = int(np.bitwise_count(xor & tx_bits).sum(dtype=np.int64))

    @property
    def total_flips(self) -> int:
        return int(self.flips.sum())


def _within_se(name: str, hits: int, trials: int, p: float) -> None:
    rate = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    require(abs(rate - p) <= N_SE * se,
            f"{name}: frequency {rate:.6g} over {trials} is more than "
            f"{N_SE:g} SE ({se:.3g}) from {p}")


# --- simulate ---------------------------------------------------------------

def check_simulate(wl, tx: Side, rx: Side) -> Pair:
    """Check the simulated pair and return it for the later commands' checks."""
    require(len(tx) == wl.frames and np.array_equal(tx.seq, np.arange(wl.frames)),
            "tx.trace: seqs are not 0..frames-1")
    require(bool((tx.status == "ok").all() and tx.has_payload.all()),
            "tx.trace: every tx record must be ok with a payload")
    require(tx.frame_len == wl.frame_len, "tx.trace: frame_len")
    require(len(rx) <= len(tx), "rx.trace: more rx than tx records")
    require(bool(((rx.seq >= 0) & (rx.seq < len(tx))).all())
            and np.unique(rx.seq).size == len(rx),
            "rx.trace: an rx seq has no tx record or repeats")
    require(np.array_equal(rx.has_payload, rx.status != "phy"),
            "rx.trace: payload present iff not a PHY error")
    ok = np.flatnonzero(rx.status == "ok")
    require(np.array_equal(tx.packed[rx.seq[ok]], rx.packed[ok]),
            "rx.trace: an ok frame differs from its tx payload")
    pair = Pair(tx, rx)
    if wl.periodic:
        window = np.arange(wl.frame_len) % wl.period < wl.burst
        require(not pair.ev[:, ~window].any(), "rx.trace: a flip outside the windows")
        n_body = int((rx.status != "phy").sum())
        _within_se("in-window flip", int(pair.ev[:, window].sum()),
                   n_body * int(window.sum()), wl.p_burst)
    else:
        n_phy = int((rx.status == "phy").sum())
        _within_se("r", n_phy, len(rx), wl.r)
        _within_se("s", ok.size, len(rx) - n_phy, wl.s)
        _within_se("p", pair.total_flips, pair.crc.size * wl.frame_len, wl.p)
    return pair


# --- analyze ----------------------------------------------------------------

def _csv(path: Path) -> list[dict[str, str]]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _runs_z(n_runs: int, n1: int, n: int) -> float:
    """Wald-Wolfowitz z without continuity correction."""
    n0 = n - n1
    mu = 2.0 * n1 * n0 / n + 1.0
    return (n_runs - mu) / math.sqrt((mu - 1.0) * (mu - 2.0) / (n - 1.0))


@lru_cache(maxsize=None)
def iid_pass_probability(n1: int, n: int, alpha: float) -> float:
    """Exact chance that a frame with n1 uniformly placed errors passes.

    Sums the exact null law of the run count given n1 ones and n0 zeros
    (every arrangement equally likely) over the counts whose two-sided
    normal p-value is at least alpha.
    """
    n0 = n - n1
    passing = 0
    for runs in range(2, 2 * min(n1, n0) + 2):
        k, odd = divmod(runs, 2)
        if odd:
            ways = (math.comb(n1 - 1, k - 1) * math.comb(n0 - 1, k)
                    + math.comb(n1 - 1, k) * math.comb(n0 - 1, k - 1))
        else:
            ways = 2 * math.comb(n1 - 1, k - 1) * math.comb(n0 - 1, k - 1)
        z = _runs_z(runs, n1, n)
        if ways and math.erfc(abs(z) / math.sqrt(2.0)) >= alpha:
            passing += ways
    return passing / math.comb(n, n1)


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def check_analyze(wl, pair: Pair, out: Path, alpha: float = 0.05) -> None:
    tx, rx, n = pair.tx, pair.rx, pair.n
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    require(summary["interleave_emulation"] == wl.interleave,
            "summary.json: interleave_emulation")
    require((summary["n_tx_frames"], summary["n_rx_frames"]) == (len(tx), len(rx)),
            "summary.json: frame counts")
    require(summary["n_corrupted"] == pair.crc.size,
            f"summary.json: n_corrupted {summary['n_corrupted']} != "
            f"{pair.crc.size} crc lines")

    frames = _csv(out / "frames.csv")
    require(len(frames) == len(rx), "frames.csv: one row per rx record")
    crc_rows = [frames[i] for i in pair.crc]
    for i, row in enumerate(frames):
        require(row["seq"] == str(rx.seq[i]) and row["status"] == rx.status[i]
                and row["timestamp_us"] == str(rx.ts[i]),
                f"frames.csv row {i}: seq/status/timestamp differ from rx.trace")
        if rx.status[i] != "crc":
            require(all(row[k] == "" for k in
                        ("bit_errors", "runs_z", "runs_verdict", "segment")),
                    f"frames.csv row {i}: statistics on a non-corrupted frame")
    bit_errors = np.array([int(r["bit_errors"]) for r in crc_rows], np.int64)
    require(np.array_equal(bit_errors, pair.flips),
            "frames.csv: bit_errors differ from the Hamming counts")
    n_pass = n_fail = 0
    for row, flips in zip(crc_rows, pair.flips):
        require(float(row["crossover"]) == int(flips) / n, "frames.csv: crossover")
        p_value = _opt_float(row["runs_p"])
        if p_value is None:
            require(row["runs_verdict"] in ("degenerate", "small_sample")
                    and (flips > 0 or row["runs_verdict"] == "degenerate"),
                    f"frames.csv seq {row['seq']}: verdict without a p-value")
        else:
            verdict = "pass" if p_value >= alpha else "fail"
            require(row["runs_verdict"] == verdict,
                    f"frames.csv seq {row['seq']}: verdict {row['runs_verdict']} "
                    f"for p={p_value}")
            n_pass += verdict == "pass"
            n_fail += verdict == "fail"
    decided = n_pass + n_fail
    require(summary["per_frame_pass_rate"] == (n_pass / decided if decided else None),
            "summary.json: per_frame_pass_rate is not passes over decided")

    if not wl.interleave:
        runs = 1 + np.count_nonzero(pair.ev[:, 1:] != pair.ev[:, :-1], axis=1)
        for row, ones, count in zip(crc_rows, pair.flips, runs):
            z = _opt_float(row["runs_z"])
            if 0 < ones < n:
                want = _runs_z(int(count), int(ones), n)
                require(z is not None and close(z, want, Z_RTOL),
                        f"frames.csv seq {row['seq']}: runs_z {z} != {want}")
                p_want = math.erfc(abs(want) / math.sqrt(2.0))
                require(close(float(row["runs_p"]), p_want, Z_RTOL),
                        f"frames.csv seq {row['seq']}: runs_p")
            else:
                require(z is None, f"frames.csv seq {row['seq']}: z on a constant vector")
    if not wl.periodic:
        # Whitening leaves each frame's error count alone and, under i.i.d.
        # flips, places the errors uniformly, so each decided frame passes
        # with the exact probability for its n1.
        probs = np.array([iid_pass_probability(int(k), n, alpha)
                          for k in pair.flips if 0 < k < n])
        require(probs.size == decided, "frames.csv: decided frames != non-constant vectors")
        expect, var = probs.sum(), (probs * (1.0 - probs)).sum()
        require(abs(n_pass - expect) <= N_SE * math.sqrt(var),
                f"per-frame pass count {n_pass} of {decided} is more than "
                f"{N_SE:g} SE from its exact i.i.d. expectation {expect:.1f}")

    segments = _csv(out / "segments.csv")
    require(summary["n_segments"] == len(segments), "summary.json: n_segments")
    at, covered = 0, 0
    for k, seg in enumerate(segments):
        start, end = int(seg["start_frame"]), int(seg["end_frame"])
        count = int(seg["n_corrupted"])
        stop = at + count
        require(count > 0 and stop <= pair.crc.size
                and pair.crc_seqs[at] == start and pair.crc_seqs[stop - 1] == end,
                f"segments.csv row {k}: does not continue the tiling of the "
                f"corrupted frames")
        require(int(seg["n_frames"]) == end - start + 1, f"segments.csv row {k}: n_frames")
        require(float(seg["duration_s"]) == (end - start + 1) * tx.interval_us / 1e6,
                f"segments.csv row {k}: duration_s")
        pooled = int(pair.flips[at:stop].sum()) / (count * n)
        require(float(seg["pooled_p"]) == pooled,
                f"segments.csv row {k}: pooled_p {seg['pooled_p']} != {pooled!r}")
        require(all(r["segment"] == str(k) for r in crc_rows[at:stop]),
                f"frames.csv: frames of segment {k} name another segment")
        at, covered = stop, covered + end - start + 1
    require(at == pair.crc.size, "segments.csv: corrupted frames left untiled")
    require(summary["covered_frames"] == covered, "summary.json: covered_frames")
    if segments:
        mean = covered * tx.interval_us / 1e6 / len(segments)
        require(summary["mean_segment_duration_s"] == mean,
                "summary.json: mean_segment_duration_s")

    profile = _csv(out / "profile.csv")
    if pair.crc.size:
        freq = np.array([float(r["error_frequency"]) for r in profile])
        require(freq.size == n, "profile.csv: one row per bit position")
        require(close(float(freq.sum()) * pair.crc.size, pair.total_flips, 1e-9),
                "profile.csv: sum(profile) x n_corrupted != total flips")
        if not wl.interleave:
            exact = pair.ev.sum(axis=0, dtype=np.int64) / pair.crc.size
            require(np.array_equal(freq, exact), "profile.csv: differs from a recount")
        if wl.periodic:
            window = np.arange(n) % wl.period < wl.burst
            require(not freq[~window].any(), "profile.csv: errors outside the windows")

    sym = summary["symmetry"]
    if pair.crc.size:
        ones = pair.tx_ones
        zeros = pair.crc.size * n - ones
        flips1 = pair.flipped_ones
        flips0 = pair.total_flips - flips1
        require((sym["n1"], sym["n0"]) == (ones, zeros), "summary.json: symmetry n1/n0")
        require(sym["mu1"] == flips1 / ones and sym["mu0"] == flips0 / zeros,
                "summary.json: symmetry flip rates")
        pooled = (flips1 + flips0) / (ones + zeros)
        z = (flips1 / ones - flips0 / zeros) / math.sqrt(
            pooled * (1.0 - pooled) * (1.0 / ones + 1.0 / zeros))
        require(close(sym["z"], z, Z_RTOL), f"summary.json: symmetry z {sym['z']} != {z}")
        require(sym["symmetric"] == (abs(z) < SYMMETRY_Z), "summary.json: symmetric")


# --- capacity ---------------------------------------------------------------

def entropy(p: float) -> float:
    """Binary entropy in bits, 0 at p = 0 and p = 1."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _capacities(rate: float, r: float, s: float, p: float) -> tuple[float, float]:
    return (rate * (1.0 - r) * (s + (1.0 - s) * (1.0 - entropy(p))),
            rate * (1.0 - r) * s)


def check_capacity(wl, pair: Pair, out: Path) -> None:
    rx, n = pair.rx, pair.n
    summary = json.loads((out / "capacity_summary.json").read_text(encoding="utf-8"))
    n_phy = int((rx.status == "phy").sum())
    n_ok = int((rx.status == "ok").sum())
    n_crc = pair.crc.size
    want = {
        "n_frames": len(rx),
        "r_hat": n_phy / len(rx),
        "s_hat": n_ok / (n_ok + n_crc),
        "p_hat": pair.total_flips / (n_crc * n) if n_crc else None,
        "fer_hat": (n_phy + n_crc) / len(rx),
    }
    for key, value in want.items():
        require(summary[key] == value,
                f"capacity_summary.json: {key} {summary[key]!r} != recount {value!r}")
    hybrid, erasure = _capacities(pair.tx.rate_bps, want["r_hat"], want["s_hat"],
                                  want["p_hat"] or 0.0)
    require(close(summary["hybrid_bps"], hybrid, FORMULA_RTOL)
            and close(summary["erasure_bps"], erasure, FORMULA_RTOL),
            f"capacity_summary.json: capacities {summary['hybrid_bps']}, "
            f"{summary['erasure_bps']} != {hybrid}, {erasure}")

    body = np.flatnonzero((rx.status != "phy") & rx.has_rssi)
    path = out / "capacity.csv"
    require(summary["n_rssi_bins"] == np.unique(rx.rssi[body]).size,
            "capacity_summary.json: n_rssi_bins != distinct RSSI values")
    if body.size == 0:
        require(not path.exists(), "capacity.csv written without RSSI data")
        return
    flips_of = dict(zip(pair.crc.tolist(), pair.flips.tolist()))
    rows = _csv(path)
    keys = np.unique(rx.rssi[body])
    require([int(r["rssi"]) for r in rows] == keys.tolist(),
            "capacity.csv: bins differ from the distinct RSSI values")
    for row, key in zip(rows, keys):
        members = body[rx.rssi[body] == key]
        ok = int((rx.status[members] == "ok").sum())
        crc = members[rx.status[members] == "crc"]
        s_hat = ok / members.size
        p_hat = sum(flips_of[i] for i in crc) / (crc.size * n) if crc.size else None
        require(int(row["n"]) == members.size and float(row["s_hat"]) == s_hat
                and _opt_float(row["p_hat"]) == p_hat,
                f"capacity.csv rssi {key}: n/s_hat/p_hat differ from a recount")
        hybrid, erasure = _capacities(pair.tx.rate_bps, 0.0, s_hat, p_hat or 0.0)
        got_h, got_e = float(row["C_hybrid"]), float(row["C_erasure"])
        require(close(got_h, hybrid, FORMULA_RTOL) and close(got_e, erasure, FORMULA_RTOL),
                f"capacity.csv rssi {key}: capacities differ from the formula")
        require(got_h >= got_e, f"capacity.csv rssi {key}: hybrid below erasure")


# --- recover --scrub --------------------------------------------------------

def check_recover(wl, pair: Pair, out: Path, stdout: str) -> None:
    rx = pair.rx
    m = _RECOVER_LINE.search(stdout)
    require(m is not None, "recover: no summary line on stdout")
    corrupted, attempted, recovered, unresolved = map(int, m.groups())
    require(corrupted == attempted == pair.crc.size,
            "recover: --scrub must attempt every corrupted frame")
    require(recovered + unresolved == corrupted, "recover: recovered + unresolved")
    got = read_side(out / "recovered.trace", "rx")
    require(len(got) == len(rx) and np.array_equal(got.status, rx.status)
            and np.array_equal(got.ts, rx.ts) and np.array_equal(got.packed, rx.packed)
            and np.array_equal(got.rssi, rx.rssi),
            "recovered.trace: records other than seq changed")
    other = rx.status != "crc"
    require(np.array_equal(got.seq[other], rx.seq[other]),
            "recovered.trace: a non-corrupted frame's seq changed")
    seqs = got.seq[pair.crc]
    hit = seqs >= 0
    require(int(hit.sum()) == recovered, "recovered.trace: recovered count")
    if wl.periodic:
        require(recovered == 0, "recover: frames recovered without clean anchors")
        return
    correct = int((seqs[hit] == pair.crc_seqs[hit]).sum())
    require(recovered > 0 and correct >= RECOVERY_FLOOR * recovered,
            f"recover: {correct} of {recovered} recovered seqs are right, "
            f"below {RECOVERY_FLOOR}")
    dist = _hamming(pair.tx.packed[seqs[hit]], rx.packed[pair.crc[hit]])
    require(bool((dist / pair.n < MATCH_THRESHOLD).all()),
            "recover: a recovered frame is farther than the threshold from its tx")
