"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest -s`` to see them all).  Monte-Carlo criteria use fixed
seeds so the whole suite is deterministic; configurations below were
cross-checked against independent oracles (exact binomial moments,
high-precision formula evaluation) before the expected values were frozen.
"""

import json
import time
from math import erfc, sqrt

import numpy as np
import pytest

import hybridchan as hc
from hybridchan import rng as hrng
from hybridchan.cli import main as cli_main
from hybridchan.runstest import FAIL, PASS, VERDICTS
from hybridchan.segments import Segment
from hybridchan.stats import error_table, per_frame_runs_tests

from conftest import joined, make_params, sim_pair
from test_capacity import binned_trace


def report(num: str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>3}: {status} - {name} ({detail})")


def test_criterion_01_runs_test_formulas():
    seq = np.array([1, 1, 0, 0, 1, 1, 0, 1, 1, 1], dtype=np.uint8)
    start = time.perf_counter()
    res = hc.runs_test(seq)
    elapsed = time.perf_counter() - start
    [(n_runs, n1, n0, mu, sigma2)] = zip(
        *(col.tolist() for col in (res.n_runs, res.n1, res.n0, res.mu, res.sigma2)))
    ok = (
        n_runs == 5
        and n1 == 7
        and n0 == 3
        and abs(mu - 5.2) <= 1e-12 * 5.2
        and abs(sigma2 - 1.4933333333333333) <= 1e-12 * sigma2
        and elapsed < 1e-3
    )
    report("1", "runs-test formulas on 1100110111", ok,
           f"n_runs={n_runs} mu={mu} sigma2={sigma2} "
           f"t={elapsed * 1e6:.0f}us")
    assert ok


def test_criterion_02_calibration():
    start = time.perf_counter()
    rates = {}
    for p in (0.002, 0.01, 0.05):
        n_pass = n_valid = 0
        for i in range(1000):
            gen = hrng.stream(i, hrng.ROLE_CHANNEL, 0)
            seq = (gen.random(8000) < p).astype(np.uint8)
            [verdict] = hc.runs_test(seq).verdict.tolist()
            if verdict in (PASS, FAIL):
                n_valid += 1
                n_pass += verdict == PASS
        rates[p] = n_pass / n_valid
    elapsed = time.perf_counter() - start
    ok = all(0.93 <= r <= 0.97 for r in rates.values()) and elapsed < 30
    report("2", "calibration 95% +/- 2% on i.i.d. Bernoulli", ok,
           f"rates={ {p: round(r, 4) for p, r in rates.items()} } "
           f"t={elapsed:.1f}s")
    assert ok


# in-window flip probability of the criterion-03 dataset; exact power of the
# raw per-frame runs test there is 0.9868 (see criterion 03a)
P_IN_BURST = 0.10


def _periodic_pair(p_in_burst):
    cfg = hc.SimConfig(params=make_params(frame_len=8000), seed=33,
                       n_frames=5000)
    tx = hc.generate_tx(cfg)
    rx = hc.apply_periodic_noise(tx, period=288, burst_len=32,
                                 p_in_burst=p_in_burst, seed=33)
    return tx, rx


@pytest.fixture(scope="module")
def periodic_run():
    return _periodic_pair(P_IN_BURST)


def _decided(tests):
    """Frames that pass and frames that fail among per-frame runs tests."""
    counts = np.bincount(tests.verdict, minlength=len(VERDICTS)).tolist()
    return counts[PASS], counts[FAIL]


def _decided_rates(tests):
    n_pass, n_fail = _decided(tests)
    return n_fail / (n_pass + n_fail), 1 - n_fail / (n_pass + n_fail)


def exact_periodic_power(frame_len, period, burst_len, p_in_burst):
    """Exact rejection rate of the two-sided runs test on periodic noise.

    Oracle independent of ``hybridchan.runstest``: the null moments are the
    textbook mu = 2*n1*n0/N + 1 and sigma2 = (mu-1)(mu-2)/(N-1).  Bits
    inside the windows flip i.i.d. with ``p_in_burst``; the last frame bit
    must lie outside every window, so the run count of an error vector is
    1 + 2*(n1 - a) - f with a the number of adjacent flip pairs and f the
    value of bit 0.  A dynamic program over (f, previous bit, n1, a) along
    the window bits gives the joint law of (n1, a, f).  States with more
    than 200 flips are dropped; the dropped mass is checked to be
    negligible.  Returns the rejection rate at alpha = 0.05 among corrupted
    frames.
    """
    max_ones = 200
    window = np.concatenate([np.arange(s, min(s + burst_len, frame_len))
                             for s in range(0, frame_len, period)])
    assert window[-1] < frame_len - 1
    q = 1.0 - p_in_burst
    # d[f, prev, n1, a]
    d = np.zeros((2, 2, max_ones + 1, max_ones + 1))
    d[0, 0, 0, 0] = q
    d[1, 1, 1, 0] = p_in_burst
    for t in range(1, window.size):
        if window[t] != window[t - 1] + 1:
            # a gap of never-flipped bits separates the windows
            d[:, 0] += d[:, 1]
            d[:, 1] = 0.0
        zero = q * d.sum(axis=1)
        d[:, 1, 1:, 1:] = d[:, 1, :-1, :-1]    # 1 after 1: n1+1, a+1
        d[:, 1, :, 0] = 0.0
        d[:, 1, 1:] += d[:, 0, :-1]            # 1 after 0: n1+1
        d[:, 1, 0] = 0.0
        d[:, 1] *= p_in_burst
        d[:, 0] = zero
    dist = d.sum(axis=1)
    assert abs(dist.sum() - 1.0) < 1e-9, "max_ones too small"

    reject = 0.0
    for f, n1, a in zip(*np.nonzero(dist)):
        if n1 == 0:
            continue
        mu = 2.0 * n1 * (frame_len - n1) / frame_len + 1.0
        sigma2 = (mu - 1.0) * (mu - 2.0) / (frame_len - 1.0)
        z = (1 + 2 * (n1 - a) - f - mu) / sqrt(sigma2)
        if erfc(abs(z) / sqrt(2.0)) < 0.05:
            reject += dist[f, n1, a]
    return reject / (1.0 - q ** window.size)


def test_criterion_03a_exact_power_oracle():
    """The raw runs test rejects at the rate its exact power predicts.

    At p_in_burst=0.05 the exact power is 0.6825: the measured raw fail
    rate on the same 5000 frames must lie within 3 binomial standard
    errors of it.  At the dataset's P_IN_BURST the power clears the
    criterion-03a bound of 0.9 by a wide margin.
    """
    low = exact_periodic_power(8000, 288, 32, 0.05)
    tx, rx = _periodic_pair(0.05)
    tests = per_frame_runs_tests(error_table(joined(tx, rx)))
    n_valid = sum(_decided(tests))
    fail_rate, _ = _decided_rates(tests)
    se = sqrt(low * (1 - low) / n_valid)
    power = exact_periodic_power(8000, 288, 32, P_IN_BURST)
    ok = abs(low - 0.6825) < 5e-5 and abs(fail_rate - low) <= 3 * se \
        and power >= 0.95
    report("3a", "raw runs-test fail rate matches exact power", ok,
           f"exact(0.05)={low:.4f} measured={fail_rate:.4f} se={se:.4f} "
           f"exact({P_IN_BURST})={power:.4f}")
    assert ok


def test_criterion_03a_periodic_noise_fails_before_interleaving(periodic_run):
    """Position-locked noise fails the raw per-frame runs test >= 90%.

    Flips fall only inside the 28 windows of 32 bits (period 288) of an
    8000-bit frame; bit 0 lies in a window and bit 7999 does not.  Every
    maximal block of flips therefore adds two run boundaries, except one
    starting at bit 0, so the run count is exactly 1 + 2*(n1 - a) - f with
    a the adjacent flip pairs and f bit 0.  The exact law of (n1, a, f)
    (``exact_periodic_power``) gives the two-sided test's power from the
    closed-form null moments alone:

        p_in_burst   exact power   measured (seed 33)
        0.05         0.6825        0.6824
        0.08         0.9394        0.9408
        0.10         0.9868        0.9874

    At 0.05 no implementation of the test can reach 0.9 (even a one-sided
    test reaches only 0.755), so the dataset uses P_IN_BURST = 0.10; the
    0.05 agreement is checked by ``test_criterion_03a_exact_power_oracle``.
    """
    tx, rx = periodic_run
    start = time.perf_counter()
    fail_rate, _ = _decided_rates(per_frame_runs_tests(error_table(joined(tx, rx))))
    elapsed = time.perf_counter() - start
    ok = fail_rate >= 0.9 and elapsed < 120
    report("3a", "per-frame runs test fails >=90% before interleaving", ok,
           f"fail_rate={fail_rate:.4f} t={elapsed:.0f}s")
    assert ok


def test_criterion_03b_interleaving_whitens(periodic_run):
    tx, rx = periodic_run
    start = time.perf_counter()
    tests = per_frame_runs_tests(error_table(joined(tx, rx), key=33))
    _, pass_rate = _decided_rates(tests)
    elapsed = time.perf_counter() - start
    ok = pass_rate >= 0.9 and elapsed < 120
    report("3b", "per-frame runs test passes >=90% after interleaving", ok,
           f"pass_rate={pass_rate:.4f} t={elapsed:.0f}s")
    assert ok


def test_criterion_04_parameter_recovery():
    counts = {}
    for r, s, p in [(0.1, 0.7, 0.005), (0.02, 0.9, 0.002)]:
        hits = {"r": 0, "s": 0, "p": 0}
        for seed in range(100):
            tx, rx = sim_pair(r=r, s=s, p=p, n_frames=10000, frame_len=400,
                              seed=seed)
            est = hc.estimate_params(joined(tx, rx))
            hits["r"] += abs(est.r_hat - r) <= 3 * est.r_se
            hits["s"] += abs(est.s_hat - s) <= 3 * est.s_se
            hits["p"] += abs(est.p_hat - p) <= 3 * est.p_se
        counts[(r, s, p)] = hits
    ok = all(v >= 99 for hits in counts.values() for v in hits.values())
    report("4", "estimates within 3 SE in >=99/100 seeds", ok,
           "; ".join(f"{cfg}: {hits}" for cfg, hits in counts.items()))
    assert ok


def test_criterion_05_segmentation():
    coverages = []
    for seed in range(100):
        tx, rx = sim_pair(r=0.0, s=0.9577, p=0.003, n_frames=10000,
                          frame_len=2000, seed=seed)
        segs = hc.segment_corrupted_frames(error_table(joined(tx, rx)))
        total = sum(s.n_corrupted for s in segs)
        coverages.append(max(s.n_corrupted for s in segs) / total)
    median_cov = float(np.median(coverages))

    localized = 0
    base = make_params(r=0.0, s=0.7, p=0.002, frame_len=2000)
    high = make_params(r=0.0, s=0.7, p=0.05, frame_len=2000)
    for seed in range(100):
        cfg = hc.SimConfig(params=base, seed=seed, n_frames=10000,
                           drift_schedule=((5000, high),))
        tx = hc.generate_tx(cfg)
        rx = hc.apply_channel(tx, cfg)
        table = error_table(joined(tx, rx))
        segs = hc.segment_corrupted_frames(table)
        seqs = table.seqs.tolist()
        idx_of = {s: i for i, s in enumerate(seqs)}
        cp_idx = next(i for i, s in enumerate(seqs) if s >= 5000)
        bounds = [idx_of[seg.start_frame] for seg in segs[1:]]
        if bounds and min(abs(b - cp_idx) for b in bounds) <= 50:
            localized += 1

    ok = median_cov >= 0.95 and localized >= 90
    report("5", "dominant segment and change-point localization", ok,
           f"median_coverage={median_cov:.4f} localized={localized}/100")
    assert ok


def test_criterion_06_segment_duration_arithmetic():
    def seg(n):
        return Segment(start_frame=0, end_frame=n - 1, n_frames=n,
                       n_corrupted=n, duration_us=n * 20000, pooled_p=0.001)

    d1 = hc.mean_segment_duration([seg(3865)])
    d2 = hc.mean_segment_duration([seg(6118)])
    ok = d1 == 77.3 and d2 == 122.36
    report("6", "segment durations 3865->77.3s and 6118->122.36s", ok,
           f"d1={d1} d2={d2}")
    assert ok


def test_criterion_07_symmetry():
    n_symmetric = 0
    for seed in range(300, 400):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.005, n_frames=1000,
                          frame_len=1000, seed=seed)
        n_symmetric += hc.symmetry_report(error_table(joined(tx, rx))).symmetric

    # reference operating point: 54 Mbps, FER 0.0835, crossover 0.0018,
    # 10000 frames, all frame errors CRC
    tx, rx = sim_pair(r=0.0, s=1 - 0.0835, p=0.0018, n_frames=10000,
                      frame_len=8000, seed=3)
    rep = hc.symmetry_report(error_table(joined(tx, rx)))
    row_ok = (
        0.0016 <= rep.mu1 <= 0.0020
        and 0.0016 <= rep.mu0 <= 0.0020
        and 1.5e-5 <= rep.se1 <= 3.0e-5
        and 1.5e-5 <= rep.se0 <= 3.0e-5
    )
    ok = n_symmetric >= 94 and row_ok
    report("7", "symmetry declared and flip-rate row reproduced", ok,
           f"symmetric={n_symmetric}/100 mu1={rep.mu1:.5f} se1={rep.se1:.2e} "
           f"mu0={rep.mu0:.5f} se0={rep.se0:.2e}")
    assert ok


def test_criterion_08_capacity_formula():
    c = hc.hybrid_capacity(54e6, r=0.0, s=0.0, p=0.0018)
    entropy_ok = hc.binary_entropy(0.5) == 1.0 and hc.binary_entropy(0.0) == 0.0
    gen = np.random.default_rng(88)
    dominated = all(
        hc.hybrid_capacity(54e6, ri, si, pi)
        >= hc.erasure_capacity(54e6, ri, si)
        for ri, si, pi in zip(gen.random(100_000), gen.random(100_000),
                              gen.random(100_000))
    )
    ok = abs(c - 52.97e6) <= 0.02e6 and entropy_ok and dominated
    report("8", "hybrid capacity formula and dominance", ok,
           f"C={c:.6g} H(0.5)={hc.binary_entropy(0.5)} dominance={dominated}")
    assert ok


def test_criterion_09_capacity_gain():
    tx, rx = binned_trace([
        (-70, 20, 80, 10),   # s=0.20, p=0.010
        (-65, 33, 67, 2),    # s=0.33, p=0.002
        (-60, 25, 75, 5),    # s=0.25, p=0.005
    ])
    bins = hc.capacity_report(joined(tx, rx)).per_rssi_bins
    gains = {b.rssi: b.gain for b in bins}
    ok = len(bins) == 3 and all(b.gain > 1.0 for b in bins)
    report("9", "gain > 100% for s<=0.33, p<=0.01 bins", ok,
           f"gains={ {k: round(v, 3) for k, v in gains.items()} }")
    assert ok


def test_criterion_10_sequence_recovery():
    start = time.perf_counter()
    acc = {}
    for p, floor in ((0.01, 0.99), (0.05, 0.95)):
        tx, rx = sim_pair(r=0.0, s=0.5, p=p, n_frames=2200, frame_len=2000,
                          seed=42, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        _, summary = hc.recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted >= 1000
        acc[p] = (summary.accuracy, floor)
    elapsed = time.perf_counter() - start
    ok = all(a >= floor for a, floor in acc.values()) and elapsed < 60
    report("10", "sequence recovery under skew/offset/jitter", ok,
           f"accuracy={ {p: round(a, 4) for p, (a, _) in acc.items()} } "
           f"t={elapsed:.0f}s")
    assert ok


def test_criterion_11_outcome_iid_fractions():
    tx, rx = sim_pair(r=0.1, s=0.7, p=0.005, n_frames=10000, frame_len=2000,
                      seed=0)
    segs = hc.segment_corrupted_frames(error_table(joined(tx, rx)))
    fractions = {
        frac.outcome.value: frac.fraction
        for frac in hc.outcome_iid_tests(joined(tx, rx), segs).fractions.values()
    }
    ok = all(f is not None and f >= 0.8 for f in fractions.values())
    report("11", "outcome i.i.d. pass fractions >= 0.8", ok,
           f"fractions={ {k: round(v, 3) for k, v in fractions.items()} }")
    assert ok


def test_criterion_12_cli_determinism(tmp_path):
    def run_once(tag):
        root = tmp_path / tag
        sim = root / "sim"
        cli_main(["simulate", "--frames", "200", "--frame-len", "500",
                  "--r", "0.1", "--s", "0.6", "--p", "0.01", "--seed", "7",
                  "--skew-ppm", "50", "--offset-us", "10000",
                  "--out", str(sim)])
        cli_main(["analyze", str(sim / "tx.trace"), str(sim / "rx.trace"),
                  "--seed", "7", "--out", str(root / "reports")])
        cli_main(["capacity", str(sim / "tx.trace"), str(sim / "rx.trace"),
                  "--out", str(root / "cap")])
        cli_main(["recover", str(sim / "tx.trace"), str(sim / "rx.trace"),
                  "--scrub", "--out", str(root / "rec")])
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run_once("a")
    second = run_once("b")
    ok = first == second and len(first) >= 9
    report("12", "repeated CLI invocations byte-identical", ok,
           f"files={len(first)} identical={first == second}")
    assert ok
