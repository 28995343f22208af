"""Wald-Wolfowitz runs test for binary sequences.

The test statistic is the count of maximal constant runs.  Under the
i.i.d. null hypothesis the count is approximately normal with

    mu     = 2*n1*n0 / N + 1
    sigma2 = (mu - 1)(mu - 2) / (N - 1)

where n1 and n0 count the ones and zeros and N = n1 + n0.  The normal
approximation needs a minimum length; sequences shorter than
MIN_NORMAL_LENGTH are flagged SMALL_SAMPLE and aggregate statistics count
them as neither pass nor fail.  Sequences of a single symbol are flagged
DEGENERATE: no z-score exists, the test cannot reject.

Every test runs at the paper's one significance level, ALPHA = 5%: per
frame, in segmentation and on the outcome sequence inside each segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import erfc, sqrt

import numpy as np

MIN_NORMAL_LENGTH = 20
ALPHA = 0.05


class RunsFlag(Enum):
    NORMAL = "normal"
    SMALL_SAMPLE = "small_sample"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class RunsTestResult:
    """Run count, null moments, z-score, and the two-sided p-value."""

    n_runs: int
    n1: int
    n0: int
    mu: float
    sigma2: float
    z: float | None
    p_value: float | None
    flag: RunsFlag

    @property
    def passed(self) -> bool | None:
        """True when the null is not rejected; None when undecidable."""
        if self.p_value is None:
            return None
        return self.p_value >= ALPHA

    @property
    def rejects(self) -> bool:
        """Whether this result is a usable rejection of the i.i.d. null."""
        return self.flag is RunsFlag.NORMAL and self.passed is False


def _result_from_counts(n_runs: int, n1: int, n0: int) -> RunsTestResult:
    n = n1 + n0
    if n == 0:
        raise ValueError("empty sequence")
    mu = 2.0 * n1 * n0 / n + 1.0
    sigma2 = (mu - 1.0) * (mu - 2.0) / (n - 1.0) if n > 1 else 0.0
    if n1 == 0 or n0 == 0:
        return RunsTestResult(
            n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
            z=None, p_value=None, flag=RunsFlag.DEGENERATE,
        )
    if sigma2 == 0.0:
        # n1 == n0 == 1: the run count is deterministic, no z exists
        return RunsTestResult(
            n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
            z=None, p_value=None, flag=RunsFlag.SMALL_SAMPLE,
        )
    z = (n_runs - mu) / sqrt(sigma2)
    p_value = erfc(abs(z) / sqrt(2.0))
    flag = RunsFlag.NORMAL if n >= MIN_NORMAL_LENGTH else RunsFlag.SMALL_SAMPLE
    return RunsTestResult(
        n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
        z=z, p_value=p_value, flag=flag,
    )


def runs_test(seq: np.ndarray) -> RunsTestResult:
    """Two-sided runs test on a 0/1 sequence, no continuity correction."""
    seq = np.asarray(seq, dtype=np.uint8)
    n1 = int(seq.sum())
    n_runs = 1 + int(np.count_nonzero(np.diff(seq)))
    return _result_from_counts(n_runs, n1, seq.size - n1)
