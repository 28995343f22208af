"""Wald-Wolfowitz runs test for binary sequences.

The test statistic is the count of maximal constant runs.  Under the
i.i.d. null hypothesis the count is approximately normal with

    mu     = 2*n1*n0 / N + 1
    sigma2 = (mu - 1)(mu - 2) / (N - 1)

where n1 and n0 count the ones and zeros and N = n1 + n0.  The normal
approximation needs a minimum length; sequences shorter than
MIN_NORMAL_LENGTH get the verdict small_sample and aggregate statistics
count them as neither pass nor fail.  Sequences of a single symbol are
degenerate: no z-score exists, the test cannot reject.

Tests are given as counts (n_runs, n1, n0), one test per entry of three
columns (runs_tests), or one test at a time where each decision depends
on the last (rejects, for segmentation).  Both take mu, sigma2, z and p
from _z_p.  Every test runs at the paper's one significance level,
ALPHA = 5%: per frame, in segmentation and on the outcome sequence inside
each segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, nan, sqrt

import numpy as np

MIN_NORMAL_LENGTH = 20
ALPHA = 0.05

# A verdict column holds indices into VERDICTS.  pass and fail decide;
# small_sample (below MIN_NORMAL_LENGTH) and degenerate (one symbol) do not.
VERDICTS = ("pass", "fail", "small_sample", "degenerate")
PASS, FAIL, SMALL_SAMPLE, DEGENERATE = range(len(VERDICTS))


def _z_p(n_runs: int, n1: int, n0: int) -> tuple[float, float, float, float]:
    """mu, sigma2, z and the two-sided p-value of one test (n1 + n0 > 0).

    z and p are NaN where sigma2 is 0: a sequence of one symbol, or
    n1 == n0 == 1, whose run count is deterministic.
    """
    n = n1 + n0
    mu = 2.0 * n1 * n0 / n + 1.0
    sigma2 = (mu - 1.0) * (mu - 2.0) / (n - 1.0) if n > 1 else 0.0
    if sigma2 <= 0.0:
        return mu, sigma2, nan, nan
    z = (n_runs - mu) / sqrt(sigma2)
    return mu, sigma2, z, erfc(abs(z) / sqrt(2.0))


def rejects(n_runs: int, n1: int, n0: int) -> bool:
    """Whether one test rejects the i.i.d. null: its verdict is fail."""
    return n1 + n0 >= MIN_NORMAL_LENGTH and _z_p(n_runs, n1, n0)[3] < ALPHA


@dataclass(frozen=True, eq=False)
class RunsTests:
    """Columns of runs tests, one entry per test: the counts tested, the
    null moments, z and p (NaN where no z exists) and the verdict, an
    index into VERDICTS."""

    n_runs: np.ndarray
    n1: np.ndarray
    n0: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    z: np.ndarray
    p: np.ndarray
    verdict: np.ndarray

    def __len__(self) -> int:
        return self.verdict.size


def runs_tests(n_runs, n1, n0) -> RunsTests:
    """Two-sided runs tests from the counts of each sequence, no
    continuity correction.  Raises ValueError on an empty sequence."""
    n_runs, n1, n0 = (np.asarray(c, dtype=np.int64) for c in (n_runs, n1, n0))
    n = n1 + n0
    if not n.all():
        raise ValueError("empty sequence")
    mu, sigma2, z, p = np.array(
        list(map(_z_p, n_runs.tolist(), n1.tolist(), n0.tolist())),
        dtype=np.float64).reshape(-1, 4).T
    verdict = np.where(p >= ALPHA, PASS, FAIL).astype(np.int8)
    verdict[n < MIN_NORMAL_LENGTH] = SMALL_SAMPLE
    verdict[(n1 == 0) | (n0 == 0)] = DEGENERATE
    return RunsTests(n_runs, n1, n0, mu, sigma2, z, p, verdict)


def runs_test(seq: np.ndarray) -> RunsTests:
    """The runs test of one 0/1 sequence, as columns of length 1."""
    seq = np.asarray(seq, dtype=np.uint8)
    n1 = int(seq.sum())
    n_runs = 1 + int(np.count_nonzero(np.diff(seq)))
    return runs_tests([n_runs], [n1], [seq.size - n1])
