"""Reference values computed apart from cachecast.

Nothing here imports the package. Each function recomputes a quantity the
benchmark checks by another route than the program takes: mpmath special
functions, direct quadrature of a closed-form density, or Monte Carlo with
a different generator.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, optimize, special

LN2 = math.log(2.0)


def mean_log1p(theta: float) -> float:
    """E[ln(1+Z)] for Z ~ Exp(mean theta): e^{1/theta} E1(1/theta)."""
    with mpmath.workdps(30):
        a = mpmath.mpf(1) / mpmath.mpf(theta)
        return float(mpmath.exp(a) * mpmath.e1(a))


def std_log1p(theta: float) -> float:
    """Standard deviation of ln(1+Z) for Z ~ Exp(mean theta)."""
    with mpmath.workdps(30):
        t = mpmath.mpf(theta)
        second = mpmath.quad(lambda s: mpmath.log1p(t * s) ** 2 * mpmath.exp(-s),
                             [0, 1, 10, 50, mpmath.inf])
        mean = mpmath.mpf(mean_log1p(theta))
        return float(mpmath.sqrt(second - mean * mean))


def mn_rate(rho: float, gain: int) -> float:
    """Exact MN sum rate (gain/ln 2) e^{gain/rho} E1(gain/rho); gain=1 is TDM."""
    return gain / LN2 * mean_log1p(rho / gain)


def expected_max_normal(gain: int) -> float:
    """H: E[max of `gain` standard normals], as
    int_0^inf (1 - Phi^gain) - int_-inf^0 Phi^gain."""
    def quad(f, lo, hi):
        return integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    upper = quad(lambda x: -math.expm1(gain * special.log_ndtr(x)), 0.0, 40.0)
    lower = quad(lambda x: math.exp(gain * special.log_ndtr(x)), -40.0, 0.0)
    return upper - lower


def large_b_rate(rho: float, users_per_group: int, gain: int) -> float:
    """Normal large-group form (gain/ln 2)(mu - sigma H / sqrt(b))."""
    mu, sigma = mean_log1p(rho), std_log1p(rho)
    return gain / LN2 * (mu - sigma * expected_max_normal(gain) / math.sqrt(users_per_group))


def expected_min_gamma(gain: int, users_per_group: int) -> float:
    """psi: E[min of `gain` Gamma(b, 1)] = int_0^inf Q(b, x)^gain dx."""
    b = users_per_group

    def integrand(x):
        return special.gammaincc(b, x) ** gain

    edges = [0.0, 0.5 * b, float(b), 2.0 * b + 10.0, 4.0 * b + 60.0]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


# ---------------------------------------------------------------------------
# group capacity sums S = sum over a group of ln(1+SNR), SNR ~ Exp(mean rho)
# ---------------------------------------------------------------------------

def _log_density(u, rho):
    return u - math.expm1(u) / rho - math.log(rho)


def _cdf_one(v, rho):
    return -math.expm1(-math.expm1(v) / rho) if v > 0 else 0.0


def two_user_cdf(y: float, rho: float) -> float:
    """P(Y1 + Y2 <= y) by direct convolution of the density of ln(1+SNR)."""
    if y <= 0:
        return 0.0
    return integrate.quad(lambda u: math.exp(_log_density(u, rho)) * _cdf_one(y - u, rho),
                          0.0, y, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


def two_user_acc_rate(rho: float, gain: int) -> float:
    """ACC rate at two users per group: gain/(2 ln 2) int_0^inf P(S > y)^gain dy."""
    mu, sigma = mean_log1p(rho), std_log1p(rho)
    y_hi = 2.0 * mu + 40.0 * sigma + 5.0

    def survival_power(y):
        return (1.0 - two_user_cdf(y, rho)) ** gain

    edges = [0.0, 2.0 * mu, 2.0 * mu + 6.0 * sigma, y_hi]
    total = sum(integrate.quad(survival_power, lo, hi, epsabs=1e-13, epsrel=1e-11,
                               limit=200)[0] for lo, hi in zip(edges, edges[1:]))
    return gain / (2.0 * LN2) * total


def mc_group_sums(rho: float, users_per_group: int, gain: int, trials: int,
                  seed: int, ys) -> dict:
    """Monte Carlo with PCG64 and numpy's exponential sampler (the program
    uses Philox and an inverse CDF): the ACC rate with its standard error,
    and the CDF of one group's sum at each y with its binomial standard
    error."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ys = np.asarray(ys, dtype=float)
    mins = []
    below = np.zeros(ys.size)
    block = 50_000
    for start in range(0, trials, block):
        n = min(block, trials - start)
        sums = np.log1p(rho * rng.standard_exponential((n, gain, users_per_group))).sum(axis=2)
        mins.append(sums.min(axis=1))
        below += (sums.reshape(-1, 1) <= ys).sum(axis=0)
    mins = np.concatenate(mins)
    scale = gain / (users_per_group * LN2)
    cdf = below / (trials * gain)
    return {
        "rate": scale * float(mins.mean()),
        "rate_se": scale * float(mins.std(ddof=1)) / math.sqrt(trials),
        "cdf": cdf.tolist(),
        "cdf_se": np.sqrt(cdf * (1.0 - cdf) / (trials * gain)).tolist(),
    }


def chernoff_cdf_bound(y: float, rho: float, users_per_group: int) -> float:
    """P(S <= y) <= min_s e^{sy} E[(1+SNR)^{-s}]^b (Chernoff, lower tail)."""

    def log_bound(s):
        moment = integrate.quad(lambda t: math.exp(-s * math.log1p(rho * t) - t),
                                0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        return s * y + users_per_group * math.log(moment)

    best = optimize.minimize_scalar(log_bound, bounds=(1e-6, 60.0), method="bounded",
                                    options={"xatol": 1e-8})
    return math.exp(best.fun)


def acc_stage_completion(snr: np.ndarray, size: float) -> float:
    """Aggregated stage (one row of `snr` per served group): every group
    serves its members one after another at log2(1+snr); the stage ends
    when the slowest group is done."""
    return float(np.max(np.sum(size / np.log2(1.0 + snr), axis=1)))


def mn_stage_delay(served_snr, size: float) -> float:
    """XOR stage: sent at the rate of the worst served user."""
    return size / math.log2(1.0 + float(np.min(served_snr)))
