"""Special functions and quadrature rules used by the closed-form rate
expressions.

Everything here is pure and reentrant: no shared mutable state, safe for
concurrent use; the characteristic function's memo of the density lives
only for one call. Every quadrature states its error budget and raises
:class:`~cachecast.errors.NumericsError` with the achieved error bar when the
budget cannot be met; none fails silently.

The closed forms and the characteristic function's low frequencies
integrate with `_gauss_kronrod`, a few numpy calls per integral, or per
pass of many frequencies held as components of one integrand. QUADPACK
serves only the characteristic function's high frequencies, above
CF_GK_MAX_CYCLES cycles over the density's range.

exp(a) E1(a) is exp(a) times scipy's exp1 below a = 700 and an asymptotic
series above, where exp(a) overflows (past 709.78) and exp1 turns
subnormal (past about 705); measured within 4.2e-16 relative of mpmath.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, special

from .errors import NumericsError, ParameterError, check_int, check_positive

#: Default absolute-tolerance budget of the characteristic function.
QUAD_ABS_TOL = 1e-10

#: Relative budget of second_moment_log1p.
SECOND_MOMENT_REL_TOL = 1e-13

_MAX_GH_ORDER = 64

#: Relative budget of the characteristic function's quadratures.
_QUAD_REL_TOL = 1e-11


def _checked_quad(func, a, b, *, weight, wvar, abs_tol, what):
    """scipy.integrate.quad with an explicit error budget.

    Returns the value; raises NumericsError when QUADPACK reports trouble
    and the achieved residual exceeds the budget by a wide margin.
    """
    rel_tol, limit = _QUAD_REL_TOL, 300
    out = integrate.quad(func, a, b, weight=weight, wvar=wvar, epsabs=abs_tol,
                         epsrel=rel_tol, limit=limit, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 100.0 * max(abs_tol, rel_tol * abs(value)):
        raise NumericsError(
            f"{what} did not converge within budget: achieved residual "
            f"{abserr:.3e}, budget {abs_tol:.1e} (limit={limit})")
    if not math.isfinite(value):
        raise NumericsError(f"{what} evaluated to a non-finite value")
    return value


# QUADPACK's qk21 rule on [-1, 1] (Piessens et al. 1983): the nodes x >= 0 of
# the 21-point Kronrod rule, its weights there, and the weights of the
# embedded 10-point Gauss rule, whose nodes are the odd-indexed ones
_K21_X = np.array((0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                   0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                   0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                   0.14887433898163122, 0.0))
_K21_W = np.array((0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                   0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                   0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                   0.14773910490133849, 0.1494455540029169))
_G10_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
          0.26926671930999635, 0.29552422471475287)
_GK_NODES = np.concatenate((-_K21_X, _K21_X[-2::-1]))
#: columns: the Kronrod weights, and those less the Gauss weights (K21 - G10)
_GK_WEIGHTS = np.stack((_K21_W, _K21_W - np.insert(_G10_W, range(6), 0.0)), axis=1)
_GK_WEIGHTS = np.concatenate((_GK_WEIGHTS, _GK_WEIGHTS[-2::-1]))

#: Most pieces `_gauss_kronrod` splits an integral into.
GK_MAX_PIECES = 1000


def _gauss_kronrod(func, edges, *, abs_tol=0.0, rel_tol, what):
    """Integral of the vectorized `func` over the pieces between `edges`.

    `func` gets the (pieces, 21) nodes of a round at once and returns their
    values, or for an integrand of m components (pieces, 21, m) values, and
    then the integral is the array of the m components' integrals. A piece's
    value is its 21-point Kronrod sum, its error bar the distance to the
    embedded 10-point Gauss sum. Until every component's bars sum to at most
    max(abs_tol, rel_tol |value|), each piece over an equal share of that in
    a component not yet within it is halved.
    Raises NumericsError on a non-finite integrand or past GK_MAX_PIECES.
    """
    scalar = True

    def rule(lo, hi):
        nonlocal scalar
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * _GK_NODES
        f = func(x)
        bad = ~np.isfinite(f)
        if bad.any():
            first = np.argwhere(bad)[0]
            raise NumericsError(f"{what}: the integrand is {f[tuple(first)]} at "
                                f"{x[tuple(first[:2])]!r}")
        scalar = f.ndim == 2
        # one row per (component, piece); for one component a view of f
        f = f.reshape(lo.size, 21, -1).transpose(2, 0, 1).reshape(-1, 21)
        sums = half * (f @ _GK_WEIGHTS).T.reshape(2, -1, lo.size)
        return sums[0], np.abs(sums[1])

    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    values, errors = rule(lo, hi)  # (components, pieces)
    while True:
        value = np.array([math.fsum(row) for row in values.tolist()])
        bar = errors.sum(axis=1)
        budget = np.maximum(rel_tol * np.abs(value), abs_tol)
        unmet = bar > budget
        if not unmet.any():
            return float(value[0]) if scalar else value
        share = budget / lo.size
        share[~unmet] = np.inf  # a component within its budget splits nothing
        split = (errors > share[:, None]).any(axis=0)
        kept = lo.size - np.count_nonzero(split)
        if 2 * lo.size - kept > GK_MAX_PIECES:
            worst = np.argmax(bar - budget)
            raise NumericsError(
                f"{what} did not meet its budget {budget[worst]:.1e} within {GK_MAX_PIECES} "
                f"pieces: error bar {bar[worst]:.3e}")
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate((lo[~split], lo[split], mid))
        hi = np.concatenate((hi[~split], mid, hi[split]))
        new_values, new_errors = rule(lo[kept:], hi[kept:])
        values = np.concatenate((values[:, ~split], new_values), axis=1)
        errors = np.concatenate((errors[:, ~split], new_errors), axis=1)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def exp_scaled_e1(a: float) -> float:
    """exp(a) * E1(a) for a > 0, evaluated without overflow.

    This is the building block of every closed-form average rate: for
    Z ~ Exp(mean theta) one has E[ln(1+Z)] = exp(1/theta) E1(1/theta).

    Below a = 700 it is math.exp(a) * scipy.special.exp1(a). From 700 on,
    where that product would overflow or lose exp1's bits to subnormals, it
    is the asymptotic series (1/a) sum_{k=0}^{7} (-1)^k k!/a^k, whose
    truncation error is below 8!/700^8 ~ 7e-19 relative. Against 40-digit
    mpmath on 34,000 points of [10, 1e6] (32,000 log-spaced plus a dense
    grid of [690, 710]) the worst relative error is 4.2e-16, at a = 313.5.
    """
    check_positive(a, "exp_scaled_e1 argument a")
    if a < 700.0:
        return math.exp(a) * float(special.exp1(a))
    series = 1.0
    for k in range(7, 0, -1):  # Horner form of the sum
        series = 1.0 - k * series / a
    return series / a


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

def gauss_hermite_rule(order: int):
    """(nodes, weights) of the Gauss-Hermite rule of the given order
    (1 <= order <= 64), integrating against the weight exp(-x^2).

    Nodes are the roots of the degree-``order`` (physicists') Hermite
    polynomial; the rule is exact for polynomials of degree 2*order-1
    against exp(-x^2). Each order's rule is computed once, by
    numpy's hermgauss, and shared as read-only arrays.
    """
    return _gauss_hermite(check_int(order, "Gauss-Hermite order", maximum=_MAX_GH_ORDER))


@functools.cache
def _gauss_hermite(order: int):
    rule = np.polynomial.hermite.hermgauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# ---------------------------------------------------------------------------
# log-SNR characteristic moments
# ---------------------------------------------------------------------------

#: Most cycles of exp(jty) over the density's range [0, ymax] for which
#: _char_fn integrates with _gauss_kronrod, on pieces of one cycle each.
#: QUADPACK's QAWO takes the frequencies above: its cost does not grow with
#: t, and near 64 cycles the two cost the same per frequency (about 70-140
#: us of CPU at the SNRs -4, 4 and 20 dB on a 2-core x86-64 host).
CF_GK_MAX_CYCLES = 64

#: Most integrand values of one _gauss_kronrod round of _char_fn, 512 kB of
#: float64: it bounds how many frequencies share a pass, and so the pass's
#: temporaries to about 1 MB.
_CF_ROUND_VALUES = 2 ** 16

#: Fewest pieces of a _char_fn pass, enough for the density alone at most SNRs.
_CF_MIN_PIECES = 8


def _char_fn(ts, rho, abs_tol):
    """log_char_moment at each nonzero t of ts, as a list.

    Frequencies of at most CF_GK_MAX_CYCLES cycles over the density's range
    are integrated in passes of _gauss_kronrod, the frequencies of one pass
    in ascending order as components of one integrand, on pieces of one
    cycle of the highest. The QUADPACK quadratures of the others ask for the
    density at the same few hundred y, so they share one memo of it."""
    # density of Y dies like exp(-(e^y-1)/rho); beyond this point it underflows
    ymax = math.log1p(760.0 * rho)
    t = np.array(ts, dtype=float)
    s = np.abs(t)
    cycles = s * ymax / (2.0 * math.pi)
    values = np.empty(s.size, dtype=complex)
    low = np.flatnonzero(cycles <= CF_GK_MAX_CYCLES)
    low = low[np.argsort(s[low], kind="stable")]
    pieces = np.maximum(_CF_MIN_PIECES, np.ceil(cycles[low])).astype(int)
    first = 0
    while first < low.size:
        end = first + 1
        # cos and sin at the 21 nodes of each piece, per frequency
        while end < low.size and 42 * pieces[end] * (end + 1 - first) <= _CF_ROUND_VALUES:
            end += 1
        freq = s[low[first:end]]

        def integrand(y, freq=freq):
            ty = y[..., None] * freq
            out = np.empty(ty.shape[:2] + (2 * freq.size,))
            np.cos(ty, out=out[..., :freq.size])
            np.sin(ty, out=out[..., freq.size:])
            out *= (np.exp(y - np.expm1(y) / rho) / rho)[..., None]
            return out

        parts = _gauss_kronrod(integrand, np.linspace(0.0, ymax, pieces[end - 1] + 1),
                               abs_tol=abs_tol, rel_tol=_QUAD_REL_TOL,
                               what=f"CF(t={freq[0]}..{freq[-1]}, rho={rho})")
        values.real[low[first:end]] = parts[:freq.size]
        values.imag[low[first:end]] = parts[freq.size:]
        first = end

    class Density(dict):
        def __missing__(self, y):
            value = self[y] = math.exp(y - math.expm1(y) / rho) / rho
            return value

    density = Density().__getitem__
    for i in np.flatnonzero(cycles > CF_GK_MAX_CYCLES):
        # _checked_quad rejects a non-finite part
        re = _checked_quad(density, 0.0, ymax, weight="cos", wvar=s[i],
                           abs_tol=abs_tol, what=f"Re CF(t={ts[i]}, rho={rho})")
        im = _checked_quad(density, 0.0, ymax, weight="sin", wvar=s[i],
                           abs_tol=abs_tol, what=f"Im CF(t={ts[i]}, rho={rho})")
        values[i] = complex(re, im)
    values.imag[t < 0] *= -1.0
    return values.tolist()


def log_char_moment(t: float, rho: float, *, abs_tol=QUAD_ABS_TOL) -> complex:
    """E[(1+SNR)^{jt}] for SNR ~ Exp(mean rho), i.e. the characteristic
    function of ln(1+SNR) at frequency t.

    Evaluated as the oscillatory integral of exp(jty) against the density
    of Y = ln(1+SNR), which avoids a complex-order exponential integral: by
    _gauss_kronrod up to CF_GK_MAX_CYCLES cycles over the density's range,
    by QUADPACK's QAWO above, within abs_tol or 1e-11 relative.
    Satisfies |value| <= 1, value(0) = 1 exactly, and conjugate symmetry
    in t.
    """
    check_positive(rho, "rho")
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    if t == 0.0:
        return complex(1.0, 0.0)
    return _char_fn([t], rho, abs_tol)[0]

def second_moment_log1p(rho: float) -> float:
    """E[(ln(1+SNR))^2] for SNR ~ Exp(mean rho), rho in (0, 1e6].

    The integral over s of ln(1 + rho s)^2 exp(-s) within
    SECOND_MOMENT_REL_TOL relative, on pieces ending at powers of 4 times
    min(1, 1/rho), where the log turns from linear, and at s = T = 50: by
    the log's concavity the tail beyond T is at most 3e (T^2 + 2T + 2)
    exp(-T), 4.1e-18, of the whole.
    """
    if check_positive(rho, "rho") > 1e6:
        raise ParameterError(f"rho must lie in (0, 1e6], got {rho}")
    edges = 4.0 ** np.arange(-1, 15) * min(1.0, 1.0 / rho)
    edges = np.concatenate(([0.0], edges[edges < 50.0], [50.0]))
    return _gauss_kronrod(lambda s: np.log1p(rho * s) ** 2 * np.exp(-s), edges,
                          rel_tol=SECOND_MOMENT_REL_TOL,
                          what=f"second moment of ln(1+SNR) at rho={rho}")
