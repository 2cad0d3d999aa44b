"""Chi-square goodness-of-fit test with a closed-form p-value.

For an integer number of degrees of freedom d the chi-square tail is a
finite sum (Abramowitz & Stegun, Handbook of Mathematical Functions,
26.4.4-26.4.5).  With h = x/2,

    Q(x | d) = [erfc(sqrt(h)) if d is odd] + sum_i h^i e^-h / Gamma(i + 1),

where i runs over 0, 1, ... (d even) or 1/2, 3/2, ... (d odd) below d/2.
Each term is formed from its logarithm, so none overflows.
"""

import math
from dataclasses import dataclass


def chi_square_pvalue(statistic: float, df: int) -> float:
    """P(chi-square with df degrees of freedom > statistic)."""
    if df < 0:
        raise ValueError(f"degrees of freedom must be >= 0, got {df}")
    if statistic < 0:
        raise ValueError(f"statistic must be non-negative, got {statistic}")
    if df == 0 or statistic == 0:
        return 1.0
    h = statistic / 2.0
    log_h = math.log(h)
    first = (df % 2) / 2.0  # i starts at 0 for an even df, at 1/2 for an odd one
    q = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for j in range(df // 2):
        i = first + j
        q += math.exp(i * log_h - h - math.lgamma(i + 1.0))
    return min(q, 1.0)  # rounding can carry a sum near 1 just past it


@dataclass
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    significance: float

    @property
    def passed(self) -> bool:
        return self.p_value > self.significance


def chi_square_test(counts, expected_probs, significance: float = 0.001) -> ChiSquareResult:
    """Test observed category counts against exact expected probabilities.

    ``counts[i]`` is the observed tally for category i; expected counts
    are total * expected_probs[i].  Categories with zero expected mass
    must have zero observations (and contribute no degrees of freedom).
    """
    if len(counts) != len(expected_probs):
        raise ValueError("counts and expected_probs must have equal length")
    total = sum(counts)
    statistic = 0.0
    df = -1
    for observed, prob in zip(counts, expected_probs):
        expected = total * float(prob)
        if expected == 0.0:
            if observed:
                raise ValueError(f"observed {observed} events in a zero-probability category")
            continue
        df += 1
        statistic += (observed - expected) ** 2 / expected
    df = max(df, 0)
    return ChiSquareResult(statistic, df, chi_square_pvalue(statistic, df), significance)
