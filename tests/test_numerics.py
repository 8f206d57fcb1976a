import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from cachecast import numerics
from cachecast.errors import NumericsError, ParameterError
from cachecast.numerics import (
    SECOND_MOMENT_REL_TOL,
    exp_scaled_e1,
    gauss_hermite_rule,
    log_char_moment,
    second_moment_log1p,
)


def ei_oracle(x: float) -> float:
    """Adaptive quadrature of the defining integral -int_{-x}^inf e^-u/u du."""
    value, err = integrate.quad(lambda u: math.exp(-u) / u, -x, np.inf, limit=300)
    assert err < 1e-9  # QUADPACK's estimate is conservative
    return -value


# ---------------------------------------------------------------- Ei
# exp_scaled_e1(a) = exp(a) E1(a) = -exp(a) Ei(-a), so each Ei fact below
# is checked on the scaled form

def test_ei_at_minus_one_matches_integral_oracle():
    oracle = ei_oracle(-1.0)
    assert oracle == pytest.approx(-0.21938393439552027, abs=1e-11)
    value = -math.exp(-1.0) * exp_scaled_e1(1.0)
    assert value == pytest.approx(oracle, abs=1e-11)
    assert value == pytest.approx(-0.21938393439552027, abs=1e-13)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_ei_sandwich_spot_values(a):
    # ln(1+2/a)/2 < -exp(a) Ei(-a) < ln(1+1/a)
    scaled = exp_scaled_e1(a)
    assert 0.5 * math.log1p(2.0 / a) < scaled < math.log1p(1.0 / a)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_ei_sandwich_property(a):
    # scaled by exp(a) so the comparison stays meaningful where exp(-a)
    # underflows to subnormals: ln(1+2/a)/2 < -exp(a) Ei(-a) < ln(1+1/a)
    scaled = exp_scaled_e1(a)
    assert 0.5 * math.log1p(2.0 / a) < scaled < math.log1p(1.0 / a)


def test_ei_vanishes_in_the_far_tail():
    assert math.exp(-100.0) * exp_scaled_e1(100.0) < 1e-40


@pytest.mark.parametrize("x", [0.0, 1.0, float("inf"), float("nan")])
def test_ei_rejects_nonnegative_arguments(x):
    with pytest.raises(ParameterError):
        exp_scaled_e1(-x)


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.5, 2.0, 7.0, 9.999, 10.001, 30.0, 300.0])
def test_ei_against_scipy(a):
    assert exp_scaled_e1(a) == pytest.approx(-math.exp(a) * float(special.expi(-a)), rel=5e-8)


@pytest.mark.parametrize("a", [0.01, 1.0, 9.0, 11.0, 100.0, 1e4])
def test_exp_scaled_e1_against_scipy(a):
    # below a = 700 the code is scipy's exp1, so the oracle is mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = float(mpmath.exp(a) * mpmath.e1(a))
    assert exp_scaled_e1(a) == pytest.approx(expected, rel=1e-13)


def test_exp_scaled_e1_matches_mpmath_from_8_to_10():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a in np.linspace(8.0, 10.0, 41)[:-1]:
            expected = float(mpmath.exp(a) * mpmath.e1(a))
            assert exp_scaled_e1(float(a)) == pytest.approx(expected, rel=1e-13), f"a={a}"


def test_exp_scaled_e1_matches_mpmath_to_a_few_ulp_above_10():
    # the scipy product below a = 700 and the asymptotic series from there on
    mpmath = pytest.importorskip("mpmath")
    points = np.concatenate([np.geomspace(10.0, 1e6, 401),
                             np.linspace(695.0, 705.0, 41), [np.nextafter(700.0, 0.0)]])
    with mpmath.workdps(40):
        for a in points:
            exact = mpmath.exp(float(a)) * mpmath.e1(float(a))
            error = abs((mpmath.mpf(exp_scaled_e1(float(a))) - exact) / exact)
            assert error < 6e-16, f"a={a!r}: relative error {float(error):.3g}"


@pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 3.0, 9.999, 10.0, 100.0, 699.9])
def test_exp_scaled_e1_is_the_scipy_product_below_700(a):
    assert exp_scaled_e1(a) == math.exp(a) * float(special.exp1(a))


def test_exp_scaled_e1_never_overflows():
    # e^a E1(a) -> 1/a; the unscaled factors would overflow past a ~ 710
    value = exp_scaled_e1(1e6)
    assert value == pytest.approx(1e-6, rel=1e-4)


# ---------------------------------------------------------------- Q function
# the expected-extreme constant H takes the Gaussian tail Q(y) = Phi(-y) as
# exp(log_ndtr(-y)), in analysis._h_integral and _h_ghq

def gaussian_tail(y):
    return math.exp(special.log_ndtr(-y))


def test_q_at_zero_is_half():
    assert gaussian_tail(0.0) == 0.5


@pytest.mark.parametrize("y", [-3.0, 0.7, 5.0])
def test_q_complementarity(y):
    assert gaussian_tail(y) + gaussian_tail(-y) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-8, max_value=8))
def test_q_symmetry_and_range(y):
    q = gaussian_tail(y)
    assert 0.0 <= q <= 1.0
    assert q + gaussian_tail(-y) == pytest.approx(1.0, abs=1e-14)


def test_q_tail_decile_matches_density_integration():
    oracle, err = integrate.quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi), 1.2816, np.inf)
    assert err < 1e-9
    assert gaussian_tail(1.2816) == pytest.approx(oracle, abs=1e-10)
    assert gaussian_tail(1.2816) == pytest.approx(0.1000, abs=1e-4)


def test_q_strictly_decreasing_on_grid():
    grid = np.linspace(-6, 6, 200)
    values = [gaussian_tail(y) for y in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- Gauss-Hermite

def test_rule_of_order_one_is_the_zeroth_moment_rule():
    nodes, weights = gauss_hermite_rule(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, 7, 16, 33, 64])
def test_weights_sum_to_zeroth_gaussian_moment(order):
    nodes, weights = gauss_hermite_rule(order)
    assert len(nodes) == len(weights) == order
    assert np.all(weights > 0)
    np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)
    assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_second_moment_with_seven_nodes():
    nodes, weights = gauss_hermite_rule(7)
    assert np.sum(weights * nodes ** 2) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


@pytest.mark.parametrize("order", [2, 5, 8, 16, 32, 64])
def test_even_gaussian_moments_up_to_exactness_degree(order):
    nodes, weights = gauss_hermite_rule(order)
    for m in range(order):  # degree 2m <= 2*order - 1
        exact = math.gamma(m + 0.5)
        assert np.sum(weights * nodes ** (2 * m)) == pytest.approx(
            exact, rel=1e-9), f"moment 2m={2 * m} at order {order}"


@pytest.mark.parametrize("order", [1, 7, 64])
def test_rule_is_hermgauss_shared_read_only(order):
    nodes, weights = gauss_hermite_rule(order)
    expected = np.polynomial.hermite.hermgauss(order)
    assert nodes.tobytes() == expected[0].tobytes()
    assert weights.tobytes() == expected[1].tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    assert gauss_hermite_rule(np.int64(order))[0] is nodes


@pytest.mark.parametrize("order", [0, -3, 65, 7.5])
def test_rule_order_bounds(order):
    with pytest.raises(ParameterError):
        gauss_hermite_rule(order)



# ---------------------------------------------------------------- CF of ln(1+SNR)

def test_cf_at_zero_is_exactly_one():
    assert log_char_moment(0.0, 3.7) == complex(1.0, 0.0)


@pytest.mark.parametrize("t", [0.5, 3.0, 20.0])
def test_cf_modulus_bounded_by_one(t):
    assert abs(log_char_moment(t, 1.0)) <= 1.0 + 1e-9


@given(st.floats(min_value=0.05, max_value=40.0),
       st.floats(min_value=0.05, max_value=50.0))
def test_cf_conjugate_symmetry(t, rho):
    forward = log_char_moment(t, rho)
    backward = log_char_moment(-t, rho)
    assert backward.real == pytest.approx(forward.real, abs=1e-12)
    assert backward.imag == pytest.approx(-forward.imag, abs=1e-12)


def test_cf_matches_monte_carlo_oracle():
    rng = np.random.Generator(np.random.Philox(20240117))
    draws = rng.exponential(1.0, size=10_000_000)
    y = np.log1p(draws)
    mc_re, mc_im = float(np.cos(y).mean()), float(np.sin(y).mean())
    se_re = float(np.cos(y).std(ddof=1)) / math.sqrt(y.size)
    se_im = float(np.sin(y).std(ddof=1)) / math.sqrt(y.size)
    value = log_char_moment(1.0, 1.0)
    assert abs(value.real - mc_re) < 3 * se_re
    assert abs(value.imag - mc_im) < 3 * se_im


def test_cf_matches_complex_order_exponential_integral():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for t, rho in [(0.5, 1.0), (4.0, 1.0), (2.0, 0.1), (7.0, 10.0)]:
        reference = complex(
            mpmath.exp(1 / mpmath.mpf(rho)) / rho * mpmath.expint(-1j * t, 1 / mpmath.mpf(rho)))
        assert log_char_moment(t, rho) == pytest.approx(reference, abs=1e-10)


def quadpack_char_fn(t, rho, abs_tol):
    """The characteristic function at t by QUADPACK's QAWO on a closure
    density, as every frequency was computed before the Gauss-Kronrod
    passes."""
    ymax = math.log1p(760.0 * rho)

    def density(y):
        return math.exp(y - math.expm1(y) / rho) / rho

    re, im = (integrate.quad(density, 0.0, ymax, weight=weight, wvar=abs(t), epsabs=abs_tol,
                             epsrel=1e-11, limit=300, full_output=1)[0]
              for weight in ("cos", "sin"))
    return complex(re, im if t > 0 else -im)


@pytest.mark.parametrize("rho_db", [-40.0, -4.0, 4.0, 20.0, 60.0])
def test_cf_is_within_its_budget_of_quadpack_across_the_crossover(rho_db):
    rho, abs_tol = 10 ** (rho_db / 10), 1e-11
    cycle = 2.0 * math.pi / math.log1p(760.0 * rho)  # t of one cycle over the range
    crossover = numerics.CF_GK_MAX_CYCLES * cycle
    ts = np.array([0.01, 0.3, 0.7, 0.99, 1.0, 1.01, 1.5, 3.0]) * crossover
    ts = np.concatenate((ts, -ts[[1, 6]], [0.2 * cycle, 3.0 * cycle]))
    for t, value in zip(ts, numerics._char_fn(ts, rho, abs_tol)):
        reference = quadpack_char_fn(t, rho, abs_tol)
        if abs(t) > crossover:  # QAWO still, to its bits
            assert value == reference, t
        else:
            assert abs(value.real - reference.real) <= abs_tol, t
            assert abs(value.imag - reference.imag) <= abs_tol, t


def test_cf_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        log_char_moment(1.0, 0.0)
    with pytest.raises(ParameterError):
        log_char_moment(float("nan"), 1.0)


# ---------------------------------------------------------------- second moment

def test_second_moment_small_rho_asymptote():
    rho = 1e-4
    # ln(1+x) ~ x there, so the moment approaches E[x^2] = 2 rho^2
    assert second_moment_log1p(rho) / (2 * rho * rho) == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("rho_db", [-40, -20, 0, 20, 40, 60])
def test_second_moment_meets_its_relative_budget_against_mpmath(rho_db):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rho = mpmath.mpf(10) ** (mpmath.mpf(rho_db) / 10)
        # pieces at 1/rho times powers of 4, where the log turns
        points = sorted({mpmath.mpf(0), *(4 ** k / rho for k in range(-3, 20)
                                          if 4 ** k / rho < 200), mpmath.inf})
        expected = float(mpmath.quad(lambda s: mpmath.log1p(rho * s) ** 2 * mpmath.exp(-s),
                                     points))
    value = second_moment_log1p(10.0 ** (rho_db / 10.0))
    assert value == pytest.approx(expected, rel=SECOND_MOMENT_REL_TOL, abs=0.0)


def test_second_moment_dual_quadrature_oracles_agree():
    direct, err1 = integrate.quad(
        lambda x: math.log1p(x) ** 2 * math.exp(-x), 0, np.inf, limit=200)
    substituted, err2 = integrate.quad(
        lambda s: math.log1p(1.0 * s) ** 2 * math.exp(-s), 0, np.inf, limit=200)
    assert abs(direct - substituted) < 1e-8
    assert second_moment_log1p(1.0) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("rho", [0.01, 1.0, 100.0])
def test_variance_is_strictly_positive(rho):
    mean = exp_scaled_e1(1.0 / rho)
    assert second_moment_log1p(rho) - mean * mean > 0.0


def test_second_moment_monotone_in_rho():
    grid = [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e5]
    values = [second_moment_log1p(r) for r in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@given(st.floats(min_value=1e-3, max_value=1e4),
       st.floats(min_value=1.01, max_value=10.0))
def test_second_moment_monotone_property(rho, factor):
    assert second_moment_log1p(rho) < second_moment_log1p(rho * factor)


def test_second_moment_domain():
    with pytest.raises(ParameterError):
        second_moment_log1p(0.0)
    with pytest.raises(ParameterError):
        second_moment_log1p(1e7)


# ---------------------------------------------------------------- incomplete gamma
# psi integrates the Gamma(b, 1) survival Q(b, x) from scipy's gammaincc (and
# 1 - gammainc where Q is near 1); its 1e-13 relative budget rests on these

@given(st.floats(min_value=0.0, max_value=50.0))
def test_shape_one_is_the_exponential_survival(x):
    assert special.gammaincc(1, x) == pytest.approx(math.exp(-x), rel=1e-12)


@pytest.mark.parametrize("shape", [1, 2, 5, 40])
def test_full_mass_at_zero(shape):
    assert special.gammaincc(shape, 0.0) == 1.0
    assert special.gammainc(shape, 0.0) == 0.0


def test_two_term_finite_sum_value():
    assert special.gammaincc(2, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
    assert special.gammaincc(2, 1.0) == pytest.approx(0.7357588823428847, rel=1e-12)


@pytest.mark.parametrize("shape", [1, 2, 3, 8, 25, 64])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5, 40.0, 200.0])
def test_matches_scipy_survival(shape, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = float(mpmath.gammainc(shape, x, regularized=True))
    assert special.gammaincc(shape, x) == pytest.approx(expected, rel=1e-13, abs=1e-300)


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.0, max_value=80.0),
       st.floats(min_value=0.01, max_value=10.0))
def test_survival_is_decreasing_in_x(shape, x, dx):
    hi = special.gammaincc(shape, x + dx)
    lo = special.gammaincc(shape, x)
    assert hi <= lo + 1e-12
    assert 0.0 <= hi <= 1.0


# ---------------------------------------------------------------- Gauss-Kronrod rule

def gauss_kronrod_weights():
    """(nodes, K21 weights, G10 weights) of the rule on [-1, 1]."""
    kronrod, kronrod_less_gauss = numerics._GK_WEIGHTS.T
    return numerics._GK_NODES, kronrod, kronrod - kronrod_less_gauss


def test_gauss_kronrod_weights_sum_to_two():
    nodes, kronrod, gauss = gauss_kronrod_weights()
    assert nodes.shape == (21,) and np.all(np.diff(nodes) > 0)
    assert math.fsum(kronrod) == pytest.approx(2.0, abs=1e-15)
    assert math.fsum(gauss) == pytest.approx(2.0, abs=1e-15)
    assert np.count_nonzero(gauss) == 10


@pytest.mark.parametrize("rule,degree", [("kronrod", 31), ("gauss", 19)])
def test_gauss_kronrod_rules_are_exact_to_their_degree(rule, degree):
    nodes, kronrod, gauss = gauss_kronrod_weights()
    weights = kronrod if rule == "kronrod" else gauss
    for k in range(degree + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        error = abs(math.fsum(weights * nodes ** k) - exact)
        if k <= degree:
            assert error < 1e-15, (rule, k)
        else:  # the next even power is not integrated exactly
            assert error > 1e-13, (rule, k)


def test_gauss_kronrod_meets_its_budget_on_a_sharp_peak():
    # 1/(eps + x^2) on [-1, 1], halved down to the peak's width
    eps = 1e-4
    value = numerics._gauss_kronrod(lambda x: 1.0 / (eps + x * x), [-1.0, 1.0],
                                    rel_tol=1e-13, what="peak")
    assert value == pytest.approx(2.0 / math.sqrt(eps) * math.atan(1.0 / math.sqrt(eps)),
                                  rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gauss_kronrod_rejects_a_non_finite_integrand(bad):
    def scalar(x):
        return np.where(x > 0.7, bad, x)

    def components(x):  # a bad middle one of three, the others finite
        return np.stack((x, scalar(x), x * x), axis=-1)

    for func in (scalar, components):
        with pytest.raises(NumericsError, match=f"integrand is {bad}"):
            numerics._gauss_kronrod(func, [0.0, 0.5, 1.0], rel_tol=1e-13, what="nan")


def test_gauss_kronrod_holds_each_component_to_its_own_budget():
    # exp, a fast cosine and a sine whose integral is 0, so abs_tol rules it
    exact = np.array([math.e - 1.0, math.sin(40.0) / 40.0, 0.0])
    abs_tol, rel_tol = 1e-15, 1e-13
    value = numerics._gauss_kronrod(
        lambda x: np.stack((np.exp(x), np.cos(40.0 * x), np.sin(2.0 * math.pi * x)), axis=-1),
        [0.0, 1.0], abs_tol=abs_tol, rel_tol=rel_tol, what="three")
    assert value.shape == (3,)
    assert np.all(np.abs(value - exact) <= np.maximum(abs_tol, rel_tol * np.abs(exact)))
    # each component is also what a scalar call gives it, within both budgets
    for k, f in enumerate((np.exp, lambda x: np.cos(40.0 * x))):
        alone = numerics._gauss_kronrod(f, [0.0, 1.0], abs_tol=abs_tol, rel_tol=rel_tol,
                                        what="one")
        assert isinstance(alone, float)
        assert abs(value[k] - alone) <= 2.0 * rel_tol * abs(alone)


def test_gauss_kronrod_raises_at_its_piece_cap(monkeypatch):
    # 1/x on [0, 1] diverges: every halving of the first piece adds as much
    # again, so no number of pieces meets the budget
    with pytest.raises(NumericsError, match=f"within {numerics.GK_MAX_PIECES} pieces"):
        numerics._gauss_kronrod(lambda x: 1.0 / x, [0.0, 1.0], rel_tol=1e-13, what="1/x")
    # sqrt on [0, 1] needs about 20 pieces to meet 1e-13, so not 10
    assert numerics._gauss_kronrod(np.sqrt, [0.0, 1.0], rel_tol=1e-13,
                                   what="sqrt") == pytest.approx(2.0 / 3.0, rel=1e-13)
    monkeypatch.setattr(numerics, "GK_MAX_PIECES", 10)
    with pytest.raises(NumericsError, match="within 10 pieces"):
        numerics._gauss_kronrod(np.sqrt, [0.0, 1.0], rel_tol=1e-13, what="sqrt")
    # with components, the one that needs the pieces sets the cap
    assert numerics._gauss_kronrod(lambda x: np.stack((x, x * x), axis=-1), [0.0, 1.0],
                                   rel_tol=1e-13, what="x, x^2") == pytest.approx([0.5, 1 / 3])
    with pytest.raises(NumericsError, match="within 10 pieces: error bar"):
        numerics._gauss_kronrod(lambda x: np.stack((x, np.sqrt(x)), axis=-1), [0.0, 1.0],
                                rel_tol=1e-13, what="x, sqrt")
