"""Exact pass law of the per-frame runs test on uniformly placed errors.

A frame with n1 errors in n bits, each arrangement equally likely (what
i.i.d. flips give, before or after a keyed permutation), passes the runs
test at runstest.ALPHA with the probability exact_pass_probability
returns.  It is the exact null law of the run count (Wald & Wolfowitz
1940; Swed & Eisenhart 1943), the closed form of
perfbench/oracle.py:iid_pass_probability, kept here as its own copy so
that neither the oracle nor the package vouches for the other.
"""

import math
from functools import cache

import numpy as np

from hybridchan.runstest import ALPHA

# Pass counts must lie within this many standard errors of the law's
# expectation, the oracle's bound.
N_SE = 4.0


@cache
def exact_pass_probability(n1: int, n: int) -> float:
    """Chance that n1 uniformly placed errors in n bits pass at ALPHA.

    Sums the exact law of the run count given n1 ones and n0 zeros over
    the counts whose two-sided normal p-value (no continuity correction)
    is at least ALPHA.  A count with no z (zero null variance) never
    passes.
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
        mu = 2.0 * n1 * n0 / n + 1.0
        var = (mu - 1.0) * (mu - 2.0) / (n - 1.0)
        if ways and var > 0.0 and math.erfc(
                abs((runs - mu) / math.sqrt(var)) / math.sqrt(2.0)) >= ALPHA:
            passing += ways
    return passing / math.comb(n, n1)


def pass_count_z(rows, n: int) -> float:
    """z of the passing frames among per_frame_runs_tests rows with a verdict,
    against the law's expectation given each frame's error count."""
    decided = [row for row in rows if row.result.passed is not None]
    probs = np.array([exact_pass_probability(row.n_bit_errors, n) for row in decided])
    n_pass = sum(row.result.passed for row in decided)
    return (n_pass - probs.sum()) / math.sqrt((probs * (1.0 - probs)).sum())
