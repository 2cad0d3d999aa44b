import math
from fractions import Fraction

import pytest

from coindice import (
    SeededSource,
    chi_square_test,
    roll_many,
)
from coindice.gof import chi_square_pvalue

# The second route to the chi-square tail: the general regularized upper
# incomplete gamma Q(a, x) by the classic series / continued-fraction
# pair (Numerical Recipes 6.2), for any real shape a.
_EPS = 1e-14
_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) by its power series; converges fast for x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a, x) by a modified Lentz continued fraction; for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), the upper regularized gamma."""
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _grid():
    """(df, statistic) pairs from near 0 through far in the tail."""
    for df in range(1, 301):
        for x in (1e-9, 0.5, df / 2, df, 2 * df + 5, 10 * df + 50, 1e4):
            yield df, x

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


def test_pvalue_edges():
    assert chi_square_pvalue(0.0, 1) == 1.0
    assert chi_square_pvalue(2e9, 6) < 1e-12
    with pytest.raises(ValueError):
        chi_square_pvalue(1.0, -1)
    with pytest.raises(ValueError) as exc:
        chi_square_pvalue(-1.0, 3)
    assert str(exc.value) == "statistic must be non-negative, got -1.0"


def test_pvalue_matches_incomplete_gamma():
    for df, x in _grid():
        assert math.isclose(
            chi_square_pvalue(x, df), regularized_gamma_q(df / 2, x / 2), rel_tol=0, abs_tol=1e-12
        ), (df, x)


def test_pvalue_against_scipy_when_available():
    scipy_special = pytest.importorskip("scipy.special")
    for df, x in _grid():
        assert math.isclose(
            chi_square_pvalue(x, df), float(scipy_special.chdtrc(df, x)), rel_tol=0, abs_tol=1e-12
        ), (df, x)


@pytest.mark.parametrize("x", [0.3, 4.0, 37.5, 400.0])
def test_pvalue_recurrence_in_df(x):
    # Q(df + 2, x) - Q(df, x) = h^(df/2) e^-h / Gamma(df/2 + 1), h = x/2
    h = x / 2
    for df in range(1, 200):
        step = math.exp(df / 2 * math.log(h) - h - math.lgamma(df / 2 + 1))
        gap = chi_square_pvalue(x, df + 2) - chi_square_pvalue(x, df)
        assert math.isclose(gap, step, rel_tol=0, abs_tol=1e-12), (df, x)


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


def test_a_p_value_equal_to_its_significance_does_not_pass():
    # the test passes only when p exceeds the significance, at any level
    halves = [Fraction(1, 2)] * 2
    p_value = chi_square_test([60, 40], halves).p_value
    assert 0.04 < p_value < 0.05
    result = chi_square_test([60, 40], halves, significance=p_value)
    assert result.p_value == result.significance
    assert not result.passed
    assert chi_square_test([60, 40], halves, significance=math.nextafter(p_value, 0)).passed
    assert not chi_square_test([100] * 4, [Fraction(1, 4)] * 4, significance=1.0).passed


def test_single_category_is_trivially_uniform():
    result = chi_square_test([100], [Fraction(1)])
    assert result.df == 0
    assert result.p_value == 1.0
    assert result.passed


def test_counts_and_probabilities_of_unequal_length_rejected():
    # zip alone would drop the third count and test [3, 3] against halves
    for counts, probs in [([3, 3, 9], [Fraction(1, 2)] * 2), ([6], [Fraction(1, 2)] * 2)]:
        with pytest.raises(ValueError) as exc:
            chi_square_test(counts, probs)
        assert str(exc.value) == "counts and expected_probs must have equal length"


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
