import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, interpolate, optimize, special

from cachecast import analysis
from cachecast.analysis import (
    acc_over_mn_large_b,
    acc_over_mn_low_snr,
    acc_rate_exact_integral,
    acc_rate_large_b,
    acc_rate_low_snr,
    capacity_sum_cdf,
    exact_mn_rate,
    h_order_stat,
    mean_log1p_snr,
    mn_gain_exact,
    mn_rate_low_snr,
    psi,
    std_log1p_snr,
)
from cachecast.errors import NumericsError, ParameterError
from cachecast.rates import mc_average_rate
from cachecast.system import Scheme, SystemConfig

LN2 = math.log(2.0)


def mc_acc_rate(rho, users_per_group, gain, trials, seed):
    config = SystemConfig.from_gain(gain, users_per_group, rho)
    return mc_average_rate(config, Scheme.ACC, trials, seed)


# ---------------------------------------------------------------- exact MN

def test_tdm_closed_form_value():
    result = exact_mn_rate(1.0, 1)
    assert result.value == pytest.approx(0.86034738227089, abs=1e-12)
    assert result.method == analysis.EXACT_MN


def test_exact_mn_is_positive_and_scales_without_overflow():
    # gain/rho = 1e7 would overflow the raw exp * Ei product
    assert exact_mn_rate(1e-6, 10).value > 0.0


def test_exact_mn_matches_mpmath_at_gain_over_snr_9():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = float(9 / mpmath.log(2) * mpmath.exp(9) * mpmath.e1(9))
    assert exact_mn_rate(1.0, 9).value == pytest.approx(expected, rel=1e-13)


def test_exact_mn_high_snr_logarithmic_growth():
    ratios = []
    for rho in (1e3, 1e6, 1e9):
        value = exact_mn_rate(rho, 4).value
        ratios.append(value / (4 * math.log2(rho / 4)))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


def test_mc_matches_exact_mn_across_gains():
    for gain in (2, 10):
        config = SystemConfig.from_gain(gain, 1, avg_snr=1.0)
        estimate = mc_average_rate(config, Scheme.MN, 150_000, base_seed=gain)
        assert abs(estimate.mean - exact_mn_rate(1.0, gain).value) < 3 * estimate.std_err


# ---------------------------------------------------------------- MN gain

def test_gain_is_identity_for_a_single_group():
    for rho in (1e-3, 1.0, 1e5):
        assert mn_gain_exact(rho, 1) == 1.0


def test_gain_collapses_at_low_snr():
    assert 1.0 <= mn_gain_exact(0.01, 10) <= 1.05
    # high-precision reference for the same point
    assert mn_gain_exact(0.01, 10) == pytest.approx(1.00889498756, abs=1e-9)
    assert mn_gain_exact(1e-3, 10) == pytest.approx(1.0008989231, abs=1e-9)


def test_gain_recovers_nominal_only_logarithmically():
    # the limit is the nominal gain, but convergence goes like 1/ln(rho):
    # still ~10% short at 60 dB for gain 10
    assert mn_gain_exact(1e6, 10) == pytest.approx(8.26074466858, abs=1e-8)
    grid = [mn_gain_exact(10.0 ** k, 10) for k in (2, 6, 30, 100, 300)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert grid[-1] == pytest.approx(10.0, rel=5e-3)


def test_gain_stays_inside_the_unit_to_nominal_band():
    for rho in (1e-3, 0.1, 1.0, 10.0, 1e4):
        for gain in (2, 5, 10):
            value = mn_gain_exact(rho, gain)
            assert 1.0 < value < gain


# ---------------------------------------------------------------- MN low-SNR form

def test_low_snr_mn_accuracy_bands():
    # relative error against the exact form peaks near rho/gain ~ 1-3
    # (just under 5%) and falls off on both sides of it
    def rel_err(rho, gain):
        approx = mn_rate_low_snr(rho, gain).value
        exact = exact_mn_rate(rho, gain).value
        return abs(approx - exact) / exact

    assert rel_err(1.0, 4) == pytest.approx(0.01552, abs=2e-4)
    for rho, gain in [(0.01, 4), (0.1, 4), (0.1, 10), (1.0, 10)]:
        assert rel_err(rho, gain) < 0.006, f"rho={rho}, gain={gain}"
    for rho, gain in [(1.0, 4), (10.0, 4), (100.0, 4), (100.0, 10)]:
        assert rel_err(rho, gain) < 0.05, f"rho={rho}, gain={gain}"
    # accuracy improves monotonically toward low SNR
    errors = [rel_err(rho, 4) for rho in (4.0, 1.0, 0.25, 0.06)]
    assert errors == sorted(errors, reverse=True)


def test_low_snr_mn_first_order_limit():
    for gain in (1, 3, 10):
        value = mn_rate_low_snr(1e-5, gain).value
        assert value / (1e-5 / LN2) == pytest.approx(1.0, abs=2e-4)


def test_low_snr_mn_spot_value():
    expected = (math.log(1.1) - 0.01 / (2 * 1.1 ** 2)) / LN2
    assert mn_rate_low_snr(0.1, 1).value == pytest.approx(expected, rel=1e-14)
    assert mn_rate_low_snr(0.1, 1).value == pytest.approx(0.1315, abs=5e-5)


# ---------------------------------------------------------------- multinomial constant

def compositions(total, parts):
    """Every vector of `parts` nonnegative integers summing to `total`
    (stars-and-bars order); there are C(total+parts-1, parts-1)."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        vector = []
        for bar in bars + (total + parts - 1,):
            vector.append(bar - prev - 1)
            prev = bar
        yield tuple(vector)


def psi_composition_oracle(gain, users_per_group):
    """The paper's multinomial form of psi: a sum over the compositions of
    `gain` into `users_per_group` slots, with log-domain coefficients."""
    lgam = [math.lgamma(i + 1) for i in range(max(gain, (users_per_group - 1) * gain) + 1)]
    log_terms = []
    for vector in compositions(gain, users_per_group):
        k = sum(t * part for t, part in enumerate(vector))
        log_terms.append(lgam[gain] + lgam[k] - (1 + k) * math.log(gain)
                         - sum(lgam[part] + part * lgam[t] for t, part in enumerate(vector)))
    shift = max(log_terms)
    return math.exp(shift) * math.fsum(math.exp(term - shift) for term in log_terms)


def psi_mpmath_oracle(gain, users_per_group):
    """psi as the survival integral in 30-digit arithmetic, split where
    Q^gain ~ exp(-(x/x0)^b) changes scale, with x0 = (b!/gain)^(1/b)."""
    mpmath = pytest.importorskip("mpmath")
    b = users_per_group
    with mpmath.workdps(30):
        x0 = (mpmath.factorial(b) / gain) ** (mpmath.mpf(1) / b)
        points = sorted({mpmath.mpf(0), *(x0 * 2 ** k for k in range(5)),
                         mpmath.mpf(b) / 2, mpmath.mpf(b), mpmath.mpf(2 * b + 10)})
        return float(mpmath.quad(
            lambda x: mpmath.gammainc(b, x, mpmath.inf, regularized=True) ** gain,
            points + [mpmath.inf]))


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=5))
def test_compositions_enumerate_the_simplex(total, parts):
    vectors = list(compositions(total, parts))
    assert len(vectors) == math.comb(total + parts - 1, parts - 1)
    assert len(set(vectors)) == len(vectors)
    for vector in vectors:
        assert len(vector) == parts
        assert sum(vector) == total
        assert all(part >= 0 for part in vector)


def psi_survival_oracle(gain, users_per_group):
    """E[min of `gain` Gamma(B,1)] as the integral of the survival power."""
    value, err = integrate.quad(
        lambda y: special.gammaincc(users_per_group, y) ** gain,
        0.0, users_per_group + 40.0 * math.sqrt(users_per_group), limit=400)
    assert err < 1e-6  # conservative QUADPACK estimate; true error is far smaller
    return value


@pytest.mark.parametrize("gain", [1, 2, 3, 7, 10 ** 6])
def test_psi_single_user_per_group(gain):
    assert psi(gain, 1) == pytest.approx(1.0 / gain, rel=1e-13)


@pytest.mark.parametrize("users", [1, 2, 5, 12])
def test_psi_single_group(users):
    assert psi(1, users) == pytest.approx(float(users), rel=1e-13)


def test_psi_two_by_two_exact():
    assert psi(2, 2) == pytest.approx(1.25, rel=1e-13)
    # independent oracle: integral of (e^-y (1+y))^2
    assert psi_survival_oracle(2, 2) == pytest.approx(1.25, abs=1e-10)


@pytest.mark.parametrize("gain,users", [(2, 3), (3, 2), (4, 3), (5, 4), (2, 8), (10, 6)])
def test_psi_matches_survival_integral_oracle(gain, users):
    assert psi(gain, users) == pytest.approx(psi_survival_oracle(gain, users), abs=1e-8)


#: the criterion-4 pairs and the fig4 grid
PSI_ORACLE_SHAPES = sorted(
    {(g, b) for g in range(1, 10) for b in range(1, 11 - g)}
    | {(g, b) for g, b_max in ((2, 16), (5, 16), (10, 12)) for b in range(1, b_max + 1)})


def test_psi_matches_composition_sum_oracle():
    for gain, users in PSI_ORACLE_SHAPES:
        assert psi(gain, users) == pytest.approx(
            psi_composition_oracle(gain, users), rel=1e-13), f"gain={gain}, users={users}"


@pytest.mark.parametrize("gain,users", [(16, 16), (10, 32), (50, 50), (1000, 3),
                                        (10 ** 6, 2), (10 ** 8, 3)])
def test_psi_matches_mpmath_on_large_shapes(gain, users):
    # 5e5 to 5e28 composition terms; at the large gains the minimum sits
    # at ~(b!/gain)^(1/b), far below the group size
    assert psi(gain, users) == pytest.approx(psi_mpmath_oracle(gain, users), rel=1e-13)


def ufunc_psi(gain, users_per_group):
    """psi with its survival integrand on the `special` ufuncs, given the
    integer shape, and everything else as psi computes it."""
    g, b = gain, users_per_group

    def survival(x):
        p = special.gammainc(b, x)
        return math.exp(g * math.log1p(-p)) if p < 0.5 else special.gammaincc(b, x) ** g

    t = 4.0 ** np.arange(-5, 5) / g
    edges = np.concatenate(([0.0], np.where(t < 1.0, special.gammaincinv(b, -np.expm1(-t)),
                                            special.gammainccinv(b, np.exp(-t)))))
    return math.fsum(analysis._checked_quad(survival, lo, hi, abs_tol=0.0, rel_tol=1e-13)
                     for lo, hi in zip(edges, edges[1:]))


def test_psi_is_the_ufunc_integrand_byte_for_byte():
    for gain in (1, 2, 3, 5, 10, 20, 100):
        for users in (1, 2, 3, 4, 6, 8, 16, 32, 64, 128):
            assert psi(gain, users).hex() == ufunc_psi(gain, users).hex(), (gain, users)


def test_psi_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        psi(0, 2)
    with pytest.raises(ParameterError):
        psi(2, 0)


def test_low_snr_acc_forms_check_users_per_group_before_dividing():
    with pytest.raises(ParameterError):
        acc_rate_low_snr(1.0, 0, 2)
    with pytest.raises(ParameterError):
        acc_over_mn_low_snr(2, 0)


# ---------------------------------------------------------------- low-SNR ACC

def test_low_snr_acc_single_user_reduces_to_first_order_mn():
    for gain in (1, 2, 6):
        value = acc_rate_low_snr(0.37, 1, gain).value
        assert value == pytest.approx(0.37 / LN2, rel=1e-12)


def test_low_snr_acc_spot_value():
    result = acc_rate_low_snr(0.01, 2, 2)
    assert result.value == pytest.approx(0.01 * 2 / (2 * LN2) * 1.25, rel=1e-12)
    assert result.value == pytest.approx(0.018034, abs=2e-6)
    assert result.method == analysis.LOW_SNR_ACC_MULTINOMIAL


def test_low_snr_acc_accuracy_improves_with_gain():
    relative_errors = {}
    for gain in (2, 8):
        approx = acc_rate_low_snr(1.0, 2, gain).value
        mc = mc_acc_rate(1.0, 2, gain, 200_000, seed=gain + 40)
        relative_errors[gain] = abs(approx - mc.mean) / mc.mean
    assert relative_errors[8] < relative_errors[2]


# ---------------------------------------------------------------- ratio limits

def test_ratio_low_snr_is_unity_without_group_aggregation():
    for gain in (1, 2, 5):
        assert acc_over_mn_low_snr(gain, 1) == pytest.approx(1.0, rel=1e-13)


def test_ratio_low_snr_two_by_two():
    assert acc_over_mn_low_snr(2, 2) == pytest.approx(1.25, rel=1e-13)


def test_ratio_low_snr_climbs_toward_the_nominal_gain():
    values = [acc_over_mn_low_snr(4, b) for b in (1, 4, 16, 64)]
    assert values == sorted(values)
    assert all(v < 4.0 for v in values)
    # exact composition sum at B=64 (survival-integral oracle agrees)
    assert values[-1] == pytest.approx(3.4977615438, abs=1e-8)


def test_ratio_large_b_identity_gain_one():
    for rho in (1e-3, 1.0, 1e4):
        assert acc_over_mn_large_b(rho, 1) == 1.0


def test_ratio_large_b_low_snr_recovers_nominal_gain():
    value = acc_over_mn_large_b(1e-3, 4)
    assert value == pytest.approx(3.99700672853, abs=1e-9)
    assert abs(value - 4.0) / 4.0 < 0.02


def test_ratio_large_b_equals_scaled_rate_ratio():
    for rho, gain in [(1.0, 4), (0.3, 7), (25.0, 2)]:
        expected = exact_mn_rate(rho, 1).value / (exact_mn_rate(rho, gain).value / gain)
        assert acc_over_mn_large_b(rho, gain) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rho", [1e-3, 0.03, 1.0, 30.0, 1e3])
def test_ratio_large_b_sandwich(rho):
    # bounds produced by applying the Ei inequality pair in both directions
    gain = 6
    a1, ag = 1.0 / rho, gain / rho
    upper = math.log1p(1.0 / a1) / (0.5 * math.log1p(2.0 / ag))
    lower = 0.5 * math.log1p(2.0 / a1) / math.log1p(1.0 / ag)
    value = acc_over_mn_large_b(rho, gain)
    assert lower <= value <= upper
    assert 1.0 <= value <= gain


# ---------------------------------------------------------------- expected extreme of normals

def test_h_closed_form_table():
    assert h_order_stat(1, "table") == 0.0
    assert h_order_stat(2, "table") == pytest.approx(math.pi ** -0.5, abs=1e-15)
    assert h_order_stat(3, "table") == pytest.approx(1.5 * math.pi ** -0.5, abs=1e-15)
    assert h_order_stat(4, "table") == pytest.approx(
        3 * math.pi ** -1.5 * math.acos(-1 / 3), abs=1e-15)
    assert h_order_stat(5, "table") == pytest.approx(
        2.5 * math.pi ** -1.5 * math.acos(-23 / 27), abs=1e-15)


@pytest.mark.parametrize("gain", [1, 2, 3, 4, 5])
def test_h_integral_matches_table(gain):
    assert h_order_stat(gain, "integral") == pytest.approx(
        h_order_stat(gain, "table"), abs=1e-8)


def test_h_ghq_seven_nodes_is_close_for_small_gains():
    assert abs(h_order_stat(3, "ghq", ghq_order=7)
               - h_order_stat(3, "table")) < 1e-3


def test_h_asymptotic_form():
    assert h_order_stat(20, "asymptotic") == pytest.approx(math.sqrt(2 * math.log(20)))
    assert h_order_stat(1, "asymptotic") == 0.0


def test_h_monotone_in_gain():
    values = [h_order_stat(g, "integral") for g in (2, 3, 5, 10, 30, 100)]
    assert values == sorted(values)


def test_h_default_method_switches_at_the_table_boundary():
    assert h_order_stat(5) == h_order_stat(5, "table")
    assert h_order_stat(6) == h_order_stat(6, "integral")
    assert h_order_stat(9) == h_order_stat(9, "integral")


def test_h_bounds_hold_for_moderate_gains():
    for gain in (2, 5, 17, 200):
        h = h_order_stat(gain, "integral")
        assert h <= math.sqrt(2 * math.log(gain)) + 1e-9
        assert h >= math.sqrt(math.log(gain) / (math.pi * math.log(2))) - 1e-9


def test_h_method_validation():
    with pytest.raises(ParameterError):
        h_order_stat(6, "table")
    with pytest.raises(ParameterError):
        h_order_stat(3, "chebyshev")
    with pytest.raises(ParameterError):
        h_order_stat(3, "ghq", ghq_order=65)


# ---------------------------------------------------------------- large-B normal form

def test_large_b_rate_approaches_the_mean_cap():
    mu = mean_log1p_snr(1.0)
    cap = 4 / LN2 * mu
    value = acc_rate_large_b(1.0, 10 ** 6, 4).value
    assert value <= cap
    assert value == pytest.approx(cap, rel=1e-3)


def test_large_b_rate_monotone_in_group_size():
    values = [acc_rate_large_b(1.0, b, 4).value for b in (2, 5, 20, 100)]
    assert values == sorted(values)


@pytest.mark.parametrize("gain", [10, 20])
def test_large_b_default_h_matches_the_integral(gain):
    # past the table the default H is the integral itself; an error dH in H
    # moves the rate by gain/ln2 * sigma/sqrt(b) * |dH|, held to |dH| <= 1e-3
    # should the default ever change
    rho, b = 1.0, 6
    tol = gain / LN2 * std_log1p_snr(rho) / math.sqrt(b) * 1e-3
    auto = acc_rate_large_b(rho, b, gain, h_method="auto").value
    reference = acc_rate_large_b(rho, b, gain, h_method="integral").value
    assert abs(auto - reference) <= tol


def test_large_b_rate_requires_two_users():
    with pytest.raises(ParameterError):
        acc_rate_large_b(1.0, 1, 4)


def test_moments_are_positive_and_monotone_in_rho():
    mus = [mean_log1p_snr(r) for r in (0.01, 0.1, 1.0, 10.0, 1e3)]
    sds = [std_log1p_snr(r) for r in (0.01, 0.1, 1.0, 10.0, 1e3)]
    assert all(m > 0 for m in mus) and mus == sorted(mus)
    assert all(s > 0 for s in sds) and sds == sorted(sds)
    assert std_log1p_snr(1.0) == pytest.approx(0.41988164226957, abs=1e-9)


# ---------------------------------------------------------------- exact ACC integral

def test_exact_integral_at_one_user_per_group_is_exact_mn():
    # the group sum is one user's ln(1+SNR), so the worst group is MN's
    # worst user: an independent oracle of the lattice at b = 1
    for rho_db in (-40.0, -20.0, 0.0, 30.0, 60.0):
        rho = 10.0 ** (rho_db / 10.0)
        for gain in (1, 2, 10, 20):
            lattice = acc_rate_exact_integral(rho, 1, gain).value
            exact = exact_mn_rate(rho, gain).value
            assert abs(lattice - exact) <= 1e-12 * exact, (rho_db, gain)


def test_capacity_sum_cdf_is_a_cdf():
    grid = np.linspace(1e-3, 12.0, 60)
    values = [capacity_sum_cdf(y, 1.0, 2) for y in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    # nondecreasing within the documented 1e-8 inversion budget
    assert all(b - a > -2e-8 for a, b in zip(values, values[1:]))
    assert values[0] < 1e-3
    assert values[-1] > 1.0 - 1e-6
    assert capacity_sum_cdf(0.0, 1.0, 2) == 0.0


def log1p_snr_sum_cdf_two_users(y, rho):
    """P(X1 + X2 <= y), X = ln(1+SNR) with SNR ~ Exp(mean rho), by the direct
    convolution of X's density f(u) = e^u exp(-(e^u-1)/rho)/rho with its CDF
    F(v) = 1 - exp(-(e^v-1)/rho) over [0, y]."""
    def integrand(u):
        return (math.exp(u - math.expm1(u) / rho) / rho
                * -math.expm1(-math.expm1(y - u) / rho))

    return integrate.quad(integrand, 0.0, y, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


def log1p_snr_sum_chernoff_bound(y, rho, users_per_group):
    """Lower-tail Chernoff bound P(X1+...+Xb <= y) <= e^(s y) E[(1+SNR)^-s]^b,
    minimized over s > 0."""
    def log_bound(s):
        moment = integrate.quad(lambda t: (1.0 + rho * t) ** -s * math.exp(-t),
                                0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        return s * y + users_per_group * math.log(moment)

    best = optimize.minimize_scalar(log_bound, bounds=(1e-6, 60.0), method="bounded",
                                    options={"xatol": 1e-8})
    return math.exp(best.fun)


def two_user_expected_min(rho, gain):
    """E[min over `gain` groups of X1 + X2] = integral over y >= 0 of
    (1 - P(X1 + X2 <= y))^gain, split at pair sums of SNR quantile scales."""
    edges = [0.0] + [2.0 * math.log1p(rho * x) for x in (0.25, 1.0, 3.0, 40.0)]
    return math.fsum(
        integrate.quad(lambda y: (1.0 - log1p_snr_sum_cdf_two_users(y, rho)) ** gain,
                       lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges, edges[1:]))


@pytest.mark.parametrize("rho_db", [-40.0, -20.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize("gain", [2, 4])
def test_exact_integral_meets_its_budget_across_the_domain(rho_db, gain):
    rho = 10.0 ** (rho_db / 10.0)
    expected = gain / (2.0 * LN2) * two_user_expected_min(rho, gain)
    value = acc_rate_exact_integral(rho, 2, gain).value
    assert abs(value - expected) <= 1e-9 * expected


def test_exact_integral_matches_a_triple_quadrature_at_three_users_per_group():
    # P(X1 + X2 + X3 <= y) as the density of X1 against the two-user CDF
    rho, gain = 10.0, 4

    def cdf_three(y):
        return integrate.quad(
            lambda u: (math.exp(u - math.expm1(u) / rho) / rho
                       * log1p_snr_sum_cdf_two_users(y - u, rho)),
            0.0, y, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    edges = [0.0] + [3.0 * math.log1p(rho * x) for x in (0.25, 1.0, 3.0, 40.0)]
    expected_min = math.fsum(
        integrate.quad(lambda y: (1.0 - cdf_three(y)) ** gain, lo, hi, epsabs=0.0,
                       epsrel=1e-10, limit=200)[0]
        for lo, hi in zip(edges, edges[1:]))
    expected = gain / (3.0 * LN2) * expected_min
    assert abs(acc_rate_exact_integral(rho, 3, gain).value - expected) <= 1e-9 * expected


@pytest.mark.parametrize("rho_db", [-40.0, -20.0, 0.0, 30.0, 60.0])
def test_exact_integral_is_finite_or_names_its_budget_on_the_grid(rho_db):
    rho = 10.0 ** (rho_db / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (1, 2, 3, 16, 64):
            for gain in (1, 2, 10, 20):
                try:
                    value = acc_rate_exact_integral(rho, b, gain).value
                except NumericsError as exc:
                    assert "budget" in str(exc), (b, gain, str(exc))
                else:
                    assert math.isfinite(value) and value > 0.0, (b, gain, value)


def test_lattice_raises_naming_its_budget_at_the_cell_cap(monkeypatch):
    monkeypatch.setattr(analysis, "LATTICE_MAX_CELLS", 4096)
    with pytest.raises(NumericsError, match="budget"):
        acc_rate_exact_integral(1e-4, 64, 20)


@pytest.mark.parametrize("gain", [1, 4, 10])
def test_lattice_takes_any_cell_cdf(gain):
    # ln E for E ~ Exp(1): the minimum over `gain` copies is ln(E/gain),
    # whose mean is -gamma - ln(gain)
    value = analysis.lattice_expected_min(lambda y: -np.expm1(-np.exp(y)),
                                          -40.0, math.log(60.0), 1, gain)
    assert abs(value - (-np.euler_gamma - math.log(gain))) <= 1e-10


@pytest.mark.xfail(strict=True, reason="known defect: the inversion misses its 1e-8 "
                                       "CDF budget at two users per group (3.3e-8 here)")
def test_capacity_sum_cdf_meets_its_budget_at_two_users_per_group():
    # 8 dB, two standard deviations below the mean of the group sum
    rho, y = 10 ** 0.8, 0.989
    assert abs(capacity_sum_cdf(y, rho, 2) - log1p_snr_sum_cdf_two_users(y, rho)) <= 1e-8


@pytest.mark.xfail(strict=True, reason="known defect: in the far lower tail at high SNR "
                                       "the inversion returns 4.6e-7 above a 2.5e-9 bound")
def test_capacity_sum_cdf_respects_the_chernoff_bound_at_high_snr():
    rho, b, y = 100.0, 6, 4.15
    assert capacity_sum_cdf(y, rho, b) <= log1p_snr_sum_chernoff_bound(y, rho, b) + 1e-8


def test_exact_integral_agrees_with_monte_carlo():
    result = acc_rate_exact_integral(1.0, 2, 2)
    assert result.method == analysis.EXACT_ACC_INTEGRAL
    mc = mc_acc_rate(1.0, 2, 2, 200_000, seed=77)
    assert abs(result.value - mc.mean) < 3 * mc.std_err


def test_exact_integral_holds_at_high_snr():
    # the truncation envelope must not collapse when the density of
    # ln(1+SNR) flattens out (total variation ~2/e instead of ~2/rho)
    result = acc_rate_exact_integral(100.0, 3, 2)
    mc = mc_acc_rate(100.0, 3, 2, 200_000, seed=78)
    assert abs(result.value - mc.mean) < 3 * mc.std_err


def test_exact_integral_consistent_with_large_b_form():
    exact = acc_rate_exact_integral(1.0, 24, 3).value
    approx = acc_rate_large_b(1.0, 24, 3).value
    assert abs(exact - approx) / exact < 0.02


# ---------------------------------------------------------------- inversion table and tail

def closure_char_fn_table(table):
    """(re, im) of `table` rebuilt with one closure density per frequency
    and no memo, as every node was computed before the memo."""
    rho, boundary, tmax = table.rho, table.boundary, table.tmax
    sparse = np.concatenate([np.linspace(0.0, boundary, table.SPARSE_LINEAR),
                             np.geomspace(boundary, tmax, table.SPARSE_LOG)[1:]])
    ymax = math.log1p(760.0 * rho)
    values = np.empty(sparse.size, dtype=complex)
    values[0] = 1.0
    for i, t in enumerate(sparse[1:].tolist(), start=1):
        def density(y):
            return math.exp(y - math.expm1(y) / rho) / rho

        parts = [integrate.quad(density, 0.0, ymax, weight=weight, wvar=t, epsabs=1e-11,
                                epsrel=1e-11, limit=300, full_output=1)[0]
                 for weight in ("cos", "sin")]
        values[i] = complex(*parts)
    return (interpolate.CubicSpline(sparse, values.real)(table.t_grid),
            interpolate.CubicSpline(sparse, values.imag)(table.t_grid))


@pytest.mark.parametrize("rho", [0.3, 7.0])
def test_char_fn_table_is_the_closure_density_rebuild_byte_for_byte(rho):
    table = analysis._CharFnTable(rho)
    re, im = closure_char_fn_table(table)
    assert table.re.tobytes() == re.tobytes()
    assert table.im.tobytes() == im.tobytes()


def piecewise_tail_survival(inv, y):
    """P(S > y) with the inversion's Gauss-Legendre part on [0, boundary]
    and its tail on [boundary, tmax] integrated piece by piece in long
    double. On [t_k, t_k+1] the linear f = f_k + s_k (t - t_k) gives
    int f cos(yt) = [f sin(yt) / y] + s_k (cos(y t_k+1) - cos(y t_k)) / y^2
    and int f sin(yt) = [-f cos(yt) / y] + s_k (sin(y t_k+1) - sin(y t_k)) / y^2,
    the differences taken as products of sines and cosines of the piece's
    midpoint and half-width, which narrow pieces do not cancel."""
    table, a = inv.table, inv.table.boundary
    nodes, weights = np.polynomial.legendre.leggauss(
        min(4096, 64 + 14 * int(y * a / (2.0 * math.pi) + 1)))
    t = 0.5 * a * (nodes + 1.0)
    phi_b = table.phi(t) ** inv.b
    integrand = (phi_b.imag * np.cos(y * t) - phi_b.real * np.sin(y * t)) / t
    low = 0.5 * a * float(np.sum(weights * integrand))

    t = table.t_grid[table.t_grid >= a]
    f = table.phi(t) ** inv.b / t
    t, y_ld = t.astype(np.longdouble), np.longdouble(y)
    im, re = f.imag.astype(np.longdouble), f.real.astype(np.longdouble)
    mid, half = y_ld * (t[1:] + t[:-1]) / 2, np.sin(y_ld * np.diff(t) / 2)
    cos_part = ((im[-1] * np.sin(y_ld * t[-1]) - im[0] * np.sin(y_ld * t[0])) / y_ld
                - np.sum(np.diff(im) / np.diff(t) * 2 * np.sin(mid) * half) / y_ld ** 2)
    sin_part = ((re[0] * np.cos(y_ld * t[0]) - re[-1] * np.cos(y_ld * t[-1])) / y_ld
                + np.sum(np.diff(re) / np.diff(t) * 2 * np.cos(mid) * half) / y_ld ** 2)
    return 0.5 + (low + float(cos_part - sin_part)) / math.pi


@pytest.mark.parametrize("rho, b, y", [
    (10 ** 0.8, 6, 11.186937961303292),
    (10 ** 0.8, 6, 0.01 * 6 * mean_log1p_snr(10 ** 0.8)),
    (1.0, 2, 0.01 * 2 * mean_log1p_snr(1.0)),
    (1.0, 2, 4.0),
])
def test_inversion_tail_is_the_exact_integral_of_the_interpolants(rho, b, y):
    # the tail is the exact integral of the linear interpolants of
    # Im(phi^B)/t and Re(phi^B)/t between the table's nodes, also at 0.01 of
    # the mean sum, where its by-parts terms cancel the most
    inv = analysis._inversion(rho, b)
    assert abs(inv.survival(y) - piecewise_tail_survival(inv, y)) <= 1e-11


def test_building_an_inversion_holds_no_list_copies():
    # A fresh inversion holds five float64 arrays of n nodes: the table's
    # t_grid, re and im, and the inversion's im/t and re/t. Building it also
    # needs phi(t_grid): two interpolated parts, the complex 1j*im and the
    # complex sum, six arrays' worth on top of the table's three, so nine in
    # all at the peak. A list copy of one array (about four arrays' worth of
    # float objects and pointers) exceeds either bound.
    tracemalloc.start()
    try:
        inv = analysis._MinSumInversion(2.9, 3)  # a rho no other test builds
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array_bytes = inv.table.t_grid.nbytes
    assert held < 6 * array_bytes
    assert peak < 10 * array_bytes
