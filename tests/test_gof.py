import math
from fractions import Fraction

import pytest

from coindice import (
    ProbabilityVector,
    SeededSource,
    chi_square_test,
    roll_many,
)
from coindice.gof import chi_square_pvalue, regularized_gamma_q

# classic chi-square critical values: P(X2_df > x) = alpha
CRITICAL_VALUES = [
    (1, 3.841459, 0.05),
    (2, 5.991465, 0.05),
    (5, 11.070498, 0.05),
    (10, 23.209251, 0.01),
    (11, 31.264134, 0.001),
]


@pytest.mark.parametrize("df, x, alpha", CRITICAL_VALUES)
def test_pvalue_matches_table(df, x, alpha):
    assert math.isclose(chi_square_pvalue(x, df), alpha, rel_tol=1e-4)


def test_gamma_q_edges():
    assert regularized_gamma_q(0.5, 0.0) == 1.0
    assert regularized_gamma_q(3.0, 1e9) < 1e-12
    with pytest.raises(ValueError):
        regularized_gamma_q(-1.0, 1.0)


def test_gamma_q_against_scipy_when_available():
    scipy_special = pytest.importorskip("scipy.special")
    import random

    rng = random.Random(7)
    for _ in range(300):
        a = rng.uniform(0.05, 50.0)
        x = rng.uniform(0.0, 100.0)
        assert math.isclose(
            regularized_gamma_q(a, x),
            float(scipy_special.gammaincc(a, x)),
            abs_tol=1e-10,
        )


def test_uniform_counts_pass():
    result = chi_square_test([100, 100, 100, 100], [Fraction(1, 4)] * 4)
    assert result.statistic == 0.0
    assert result.df == 3
    assert result.p_value == 1.0
    assert result.passed


def test_biased_counts_fail():
    result = chi_square_test([400, 0, 0, 0], [Fraction(1, 4)] * 4)
    assert not result.passed
    assert result.p_value < 1e-9


def test_single_category_is_trivially_uniform():
    result = chi_square_test([100], [Fraction(1)])
    assert result.df == 0
    assert result.p_value == 1.0
    assert result.passed


def test_zero_probability_category_with_observations_rejected():
    with pytest.raises(ValueError):
        chi_square_test([10, 5], [Fraction(1), Fraction(0)])


def test_sampler_output_passes_gof():
    source = SeededSource(9)
    counts = [0] * 6
    for r in roll_many(6, 60_000, source):
        counts[r.outcome - 1] += 1
    result = chi_square_test(counts, [Fraction(1, 6)] * 6)
    assert result.passed
    assert 0.001 < result.p_value <= 1.0
