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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import erfc, sqrt

import numpy as np

MIN_NORMAL_LENGTH = 20
DEFAULT_ALPHA = 0.05


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
    alpha: float
    flag: RunsFlag

    @property
    def passed(self) -> bool | None:
        """True when the null is not rejected; None when undecidable."""
        if self.p_value is None:
            return None
        return self.p_value >= self.alpha

    @property
    def rejects(self) -> bool:
        """Whether this result is a usable rejection of the i.i.d. null."""
        return self.flag is RunsFlag.NORMAL and self.passed is False


def _result_from_counts(
    n_runs: int, n1: int, n0: int, alpha: float
) -> RunsTestResult:
    n = n1 + n0
    if n == 0:
        raise ValueError("empty sequence")
    mu = 2.0 * n1 * n0 / n + 1.0
    sigma2 = (mu - 1.0) * (mu - 2.0) / (n - 1.0) if n > 1 else 0.0
    if n1 == 0 or n0 == 0:
        return RunsTestResult(
            n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
            z=None, p_value=None, alpha=alpha, flag=RunsFlag.DEGENERATE,
        )
    if sigma2 == 0.0:
        # n1 == n0 == 1: the run count is deterministic, no z exists
        return RunsTestResult(
            n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
            z=None, p_value=None, alpha=alpha, flag=RunsFlag.SMALL_SAMPLE,
        )
    z = (n_runs - mu) / sqrt(sigma2)
    p_value = erfc(abs(z) / sqrt(2.0))
    flag = RunsFlag.NORMAL if n >= MIN_NORMAL_LENGTH else RunsFlag.SMALL_SAMPLE
    return RunsTestResult(
        n_runs=n_runs, n1=n1, n0=n0, mu=mu, sigma2=sigma2,
        z=z, p_value=p_value, alpha=alpha, flag=flag,
    )


def count_runs(seq: np.ndarray) -> int:
    """Number of maximal constant runs in a non-empty binary sequence."""
    seq = np.asarray(seq, dtype=np.uint8)
    if seq.size == 0:
        raise ValueError("empty sequence")
    return 1 + int(np.count_nonzero(np.diff(seq)))


def runs_test(seq: np.ndarray, alpha: float = DEFAULT_ALPHA) -> RunsTestResult:
    """Two-sided runs test on a 0/1 sequence, no continuity correction."""
    seq = np.asarray(seq, dtype=np.uint8)
    n_runs = count_runs(seq)
    n1 = int(seq.sum())
    return _result_from_counts(n_runs, n1, seq.size - n1, alpha)


@dataclass
class RunsAccumulator:
    """Incremental run/count bookkeeping across concatenated chunks.

    Appending chunk by chunk, each known by its counts and end bits, yields
    exactly the statistics of the single concatenated sequence: a chunk
    whose first bit equals the previous chunk's last bit merges two runs
    into one.
    """

    n1: int = 0
    n0: int = 0
    n_runs: int = 0
    last_bit: int | None = None

    def add_counts(
        self, n1: int, n0: int, n_runs: int, first_bit: int, last_bit: int
    ) -> None:
        """Append a non-empty chunk known only by its counts and end bits."""
        if self.last_bit is not None and first_bit == self.last_bit:
            n_runs -= 1
        self.n_runs += n_runs
        self.n1 += n1
        self.n0 += n0
        self.last_bit = last_bit

    def copy(self) -> RunsAccumulator:
        return replace(self)

    @property
    def length(self) -> int:
        return self.n1 + self.n0

    def result(self, alpha: float = DEFAULT_ALPHA) -> RunsTestResult:
        if self.length == 0:
            raise ValueError("no data accumulated")
        return _result_from_counts(self.n_runs, self.n1, self.n0, alpha)
