import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import runs_test, runs_tests
from hybridchan.runstest import ALPHA, MIN_NORMAL_LENGTH, VERDICTS, rejects
from hybridchan import rng as hrng

from exact_law import exact_pass_probability


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def verdict(res):
    """The verdict of a test of one sequence, by name."""
    [v] = res.verdict.tolist()
    return VERDICTS[v]


class TestKnownSequences:
    def test_textbook_example(self):
        # 1100110111: runs are 11|00|11|0|111
        res = runs_test(bits("1100110111"))
        assert res.n_runs[0] == 5
        assert res.n1[0] == 7 and res.n0[0] == 3
        assert res.mu[0] == 5.2
        assert res.sigma2[0] == pytest.approx(1.4933333333333333, rel=1e-12)
        assert res.z[0] == pytest.approx(-0.16366341767699428, rel=1e-12)
        assert res.p[0] == pytest.approx(0.8699961176213896, rel=1e-12)
        assert res.p[0] >= ALPHA
        assert verdict(res) == "small_sample"

    def test_alternating_sequence_rejects(self):
        seq = np.tile([0, 1], 50)
        res = runs_test(seq)
        assert res.n_runs[0] == 100
        assert res.mu[0] == 51.0
        assert res.z[0] == pytest.approx(9.849873095629202, rel=1e-12)
        assert verdict(res) == "fail"
        assert rejects(100, 50, 50)

    def test_degenerate_all_zeros(self):
        res = runs_test(np.zeros(50, dtype=np.uint8))
        assert verdict(res) == "degenerate"
        assert res.n_runs[0] == 1
        assert np.isnan(res.z[0]) and np.isnan(res.p[0])
        assert not rejects(1, 0, 50)

    def test_degenerate_all_ones(self):
        res = runs_test(np.ones(30, dtype=np.uint8))
        assert verdict(res) == "degenerate"

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            runs_test(np.array([], dtype=np.uint8))
        with pytest.raises(ValueError):
            runs_tests([1, 1], [3, 0], [2, 0])

    def test_small_sample_flag_threshold(self):
        assert verdict(runs_test(bits("0101010101010101010"))) == "small_sample"
        assert verdict(runs_test(bits("01010101010101010101"))) == "fail"
        assert not rejects(19, 9, 10) and rejects(20, 10, 10)


def closed_form(n_runs, n1, n0):
    """mu, sigma2, z, p and the verdict of one test, from the textbook
    moments in math's double precision; z and p are None where no z exists."""
    n = n1 + n0
    mu = 2.0 * n1 * n0 / n + 1.0
    sigma2 = (mu - 1.0) * (mu - 2.0) / (n - 1.0) if n > 1 else 0.0
    if n1 == 0 or n0 == 0:
        return mu, sigma2, None, None, "degenerate"
    if sigma2 == 0.0:  # n1 == n0 == 1
        return mu, sigma2, None, None, "small_sample"
    z = (n_runs - mu) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    if n < MIN_NORMAL_LENGTH:
        return mu, sigma2, z, p, "small_sample"
    return mu, sigma2, z, p, "pass" if p >= ALPHA else "fail"


def assert_closed_form(counts):
    """runs_tests on columns of counts equals closed_form bit for bit."""
    res = runs_tests(*zip(*counts))
    assert len(res) == len(counts)
    for i, (n_runs, n1, n0) in enumerate(counts):
        mu, sigma2, z, p, name = closed_form(n_runs, n1, n0)
        assert (res.n_runs[i], res.n1[i], res.n0[i]) == (n_runs, n1, n0)
        assert (res.mu[i], res.sigma2[i]) == (mu, sigma2)
        if z is None:
            assert np.isnan(res.z[i]) and np.isnan(res.p[i])
        else:
            assert (res.z[i], res.p[i]) == (z, p)
        assert VERDICTS[res.verdict[i]] == name
        assert rejects(n_runs, n1, n0) == (name == "fail")


def test_every_short_count_matches_closed_form():
    # every run count a length-n sequence could have, n1 = n0 = 1 included
    assert_closed_form([(n_runs, n1, n - n1) for n in range(1, 17)
                        for n1 in range(n + 1) for n_runs in range(1, n + 1)])


@st.composite
def counts(draw):
    n = draw(st.integers(1, 8000))
    n1 = draw(st.integers(0, n))
    return draw(st.integers(1, n)), n1, n - n1


@given(st.lists(counts(), min_size=1, max_size=50))
@settings(max_examples=200)
def test_long_counts_match_closed_form(batch):
    assert_closed_form(batch)


binary_seqs = st.lists(st.integers(0, 1), min_size=2, max_size=400).filter(
    lambda raw: 0 < sum(raw) < len(raw)
)


@given(binary_seqs)
@settings(max_examples=100)
def test_null_moment_identities(raw):
    seq = np.array(raw, dtype=np.uint8)
    res = runs_test(seq)
    n1, n0 = int(res.n1[0]), int(res.n0[0])
    n = n1 + n0
    assert n == seq.size and n1 == seq.sum()
    assert res.mu[0] == pytest.approx(2 * n1 * n0 / n + 1, rel=1e-12)
    assert res.sigma2[0] == pytest.approx(
        (res.mu[0] - 1) * (res.mu[0] - 2) / (n - 1), rel=1e-12
    )
    if n >= MIN_NORMAL_LENGTH:
        assert verdict(res) == ("pass" if res.p[0] >= ALPHA else "fail")


@given(binary_seqs)
@settings(max_examples=100)
def test_label_inversion_symmetry(raw):
    seq = np.array(raw, dtype=np.uint8)
    a = runs_test(seq)
    b = runs_test(1 - seq)
    assert a.n_runs[0] == b.n_runs[0]
    assert a.mu[0] == b.mu[0] and a.sigma2[0] == b.sigma2[0]
    if np.isnan(a.z[0]):
        assert np.isnan(b.z[0])
    else:
        assert a.z[0] == pytest.approx(b.z[0], rel=1e-12)


def test_calibration_on_iid_bernoulli():
    # Bernoulli(0.3) at length 8000: pass rate 95% +/- 2% over 1000 draws
    n_pass = n_valid = 0
    for i in range(1000):
        gen = hrng.stream(i, hrng.ROLE_CHANNEL, 0)
        seq = (gen.random(8000) < 0.3).astype(np.uint8)
        name = verdict(runs_test(seq))
        if name in ("pass", "fail"):
            n_valid += 1
            n_pass += name == "pass"
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
    cells = np.flatnonzero(tally)
    n1, n_runs = np.divmod(cells, n + 1)
    passed = runs_tests(n_runs, n1, n - n1).p >= ALPHA
    passing = np.bincount(n1[passed], tally[cells[passed]], minlength=n + 1)
    for k in range(n + 1):
        assert exact_pass_probability(k, n) == passing[k] / math.comb(n, k)
