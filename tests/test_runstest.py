import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import RunsFlag, runs_test
from hybridchan.runstest import ALPHA, _result_from_counts
from hybridchan import rng as hrng

from exact_law import exact_pass_probability


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestKnownSequences:
    def test_textbook_example(self):
        # 1100110111: runs are 11|00|11|0|111
        res = runs_test(bits("1100110111"))
        assert res.n_runs == 5
        assert res.n1 == 7 and res.n0 == 3
        assert res.mu == 5.2
        assert res.sigma2 == pytest.approx(1.4933333333333333, rel=1e-12)
        assert res.z == pytest.approx(-0.16366341767699428, rel=1e-12)
        assert res.p_value == pytest.approx(0.8699961176213896, rel=1e-12)
        assert res.passed is True
        assert res.flag is RunsFlag.SMALL_SAMPLE

    def test_alternating_sequence_rejects(self):
        seq = np.tile([0, 1], 50)
        res = runs_test(seq)
        assert res.n_runs == 100
        assert res.mu == 51.0
        assert res.z == pytest.approx(9.849873095629202, rel=1e-12)
        assert res.passed is False
        assert res.flag is RunsFlag.NORMAL

    def test_degenerate_all_zeros(self):
        res = runs_test(np.zeros(50, dtype=np.uint8))
        assert res.flag is RunsFlag.DEGENERATE
        assert res.n_runs == 1
        assert res.z is None and res.p_value is None and res.passed is None
        assert not res.rejects

    def test_degenerate_all_ones(self):
        res = runs_test(np.ones(30, dtype=np.uint8))
        assert res.flag is RunsFlag.DEGENERATE

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            runs_test(np.array([], dtype=np.uint8))

    def test_small_sample_flag_threshold(self):
        assert runs_test(bits("0101010101010101010")).flag is RunsFlag.SMALL_SAMPLE
        assert runs_test(bits("01010101010101010101")).flag is RunsFlag.NORMAL


binary_seqs = st.lists(st.integers(0, 1), min_size=2, max_size=400).filter(
    lambda raw: 0 < sum(raw) < len(raw)
)


@given(binary_seqs)
@settings(max_examples=100)
def test_null_moment_identities(raw):
    seq = np.array(raw, dtype=np.uint8)
    res = runs_test(seq)
    n = res.n1 + res.n0
    assert res.mu == pytest.approx(2 * res.n1 * res.n0 / n + 1, rel=1e-12)
    assert res.sigma2 == pytest.approx(
        (res.mu - 1) * (res.mu - 2) / (n - 1), rel=1e-12
    )
    if res.z is not None:
        assert (res.p_value >= ALPHA) == res.passed


@given(binary_seqs)
@settings(max_examples=100)
def test_label_inversion_symmetry(raw):
    seq = np.array(raw, dtype=np.uint8)
    a = runs_test(seq)
    b = runs_test(1 - seq)
    assert a.n_runs == b.n_runs
    assert a.mu == b.mu and a.sigma2 == b.sigma2
    if a.z is None:
        assert b.z is None
    else:
        assert a.z == pytest.approx(b.z, rel=1e-12)


def test_calibration_on_iid_bernoulli():
    # Bernoulli(0.3) at length 8000: pass rate 95% +/- 2% over 1000 draws
    n_pass = n_valid = 0
    for i in range(1000):
        gen = hrng.stream(i, hrng.ROLE_CHANNEL, 0)
        seq = (gen.random(8000) < 0.3).astype(np.uint8)
        res = runs_test(seq)
        if res.flag is RunsFlag.NORMAL:
            n_valid += 1
            n_pass += res.passed
    assert n_valid == 1000
    assert 0.93 <= n_pass / n_valid <= 0.97



@pytest.mark.parametrize("n", range(1, 17))
def test_exact_pass_law_equals_enumeration(n):
    # every arrangement of n bits, tallied by (ones, runs), each tally passed
    # or failed by the package's own test
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    ones = bits.sum(axis=1)
    runs = 1 + np.count_nonzero(np.diff(bits, axis=1), axis=1)
    tally = np.bincount(ones * (n + 1) + runs, minlength=(n + 1) ** 2)
    passing = np.zeros(n + 1, dtype=np.int64)
    for cell in np.flatnonzero(tally):
        n1, n_runs = divmod(int(cell), n + 1)
        if _result_from_counts(n_runs, n1, n - n1).passed:
            passing[n1] += tally[cell]
    for n1 in range(n + 1):
        assert exact_pass_probability(n1, n) == passing[n1] / math.comb(n, n1)

