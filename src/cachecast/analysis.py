"""Closed-form average rates, approximations, and limits.

Covers the exact XOR-multicast (MN) rate, its low-SNR second-order form and
exact gain, the exact aggregated (ACC) rate by lattice FFT convolution, the
CDF of a group's capacity sum by characteristic-function inversion, the
low-SNR multinomial constant and rate, the large-group-size normal
approximation with the expected-extreme constant H, and the low-SNR and
many-users limits of the aggregated-to-XOR rate ratio.

The exact ACC rate needs E[min over groups of a group sum].
`lattice_expected_min` computes it for any variable given by its CDF and
two cut-offs: cell masses on a lattice of step h are convolved by FFT,
cell floors and ceilings bracket the result within users_per_group * h,
and Richardson extrapolation over halvings of h brings the error bar
within 1e-9 relative, or NumericsError is raised. On ln(1+SNR) it spans
-40..60 dB in milliseconds.

psi and the H integral are numerics._gauss_kronrod integrals of
`scipy.special` ufuncs. The inversion's table takes its low frequencies
from Gauss-Kronrod passes too; QUADPACK serves only its high frequencies.

Conventions: rates are bits/s/Hz; `gain` is the nominal multicast size
(number of simultaneously served groups); `users_per_group` is the number
of users sharing one cache state. All functions are pure; the CDF
inversion keeps one characteristic-function table per average SNR and one
inversion per (SNR, users_per_group) for the life of the process, and
their arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import interpolate, special
from scipy.fft import next_fast_len

from .errors import NumericsError, ParameterError, check_int, check_positive
from .numerics import (
    _char_fn,
    _gauss_kronrod,
    exp_scaled_e1,
    gauss_hermite_rule,
    second_moment_log1p,
)

LN2 = math.log(2.0)

# closed-form / approximation identifiers (ApproxResult.method)
EXACT_MN = "exact-mn"
EXACT_ACC_INTEGRAL = "exact-acc-integral"
LOW_SNR_MN = "low-snr-mn"
LOW_SNR_ACC_MULTINOMIAL = "low-snr-acc-multinomial"
LARGE_B_NORMAL = "large-b-normal"
LARGE_B_RATIO_LIMIT = "large-b-ratio-limit"
LOW_SNR_RATIO_LIMIT = "low-snr-ratio-limit"

# evaluation methods for the expected-extreme constant H
H_TABLE = "table"
H_INTEGRAL = "integral"
H_GHQ = "ghq"
H_ASYMPTOTIC = "asymptotic"
H_AUTO = "auto"
H_METHODS = (H_TABLE, H_INTEGRAL, H_GHQ, H_ASYMPTOTIC, H_AUTO)


@dataclass(frozen=True)
class ApproxResult:
    """Value of one named closed form."""

    value: float
    method: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericsError(f"{self.method} evaluated to a non-finite value")


# ---------------------------------------------------------------------------
# single-link moments of ln(1+SNR)
# ---------------------------------------------------------------------------

def mean_log1p_snr(rho: float) -> float:
    """E[ln(1+SNR)] = exp(1/rho) E1(1/rho) for SNR ~ Exp(mean rho)."""
    return exp_scaled_e1(1.0 / check_positive(rho, "rho"))


def std_log1p_snr(rho: float) -> float:
    """Standard deviation of ln(1+SNR); strictly positive for rho > 0."""
    rho = check_positive(rho, "rho")
    mu = mean_log1p_snr(rho)
    var = second_moment_log1p(rho) - mu * mu
    if var <= 0:
        raise NumericsError(f"non-positive variance {var} at rho={rho}")
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# XOR multicast (MN) closed forms
# ---------------------------------------------------------------------------

def exact_mn_rate(rho: float, gain: int) -> ApproxResult:
    """Exact average sum rate of the XOR scheme.

    The worst of `gain` i.i.d. Exp(rho) SNRs is Exp(rho/gain), giving
    (gain/ln 2) exp(gain/rho) E1(gain/rho). Setting gain=1 yields the TDM
    rate. Evaluated in scaled form, so extreme gain/rho never overflows.
    """
    rho = check_positive(rho, "rho")
    gain = check_int(gain, "gain")
    value = gain / LN2 * exp_scaled_e1(gain / rho)
    return ApproxResult(value=value, method=EXACT_MN)


def mn_gain_exact(rho: float, gain: int) -> float:
    """Exact speed-up of the XOR scheme over TDM.

    Lies in (1, gain) for finite rho, approaches gain only as rho grows
    (logarithmically slowly) and collapses to 1 as rho -> 0.
    """
    rho = check_positive(rho, "rho")
    gain = check_int(gain, "gain")
    return gain * exp_scaled_e1(gain / rho) / exp_scaled_e1(1.0 / rho)


def mn_rate_low_snr(rho: float, gain: int) -> ApproxResult:
    """Second-order low-SNR expansion of the XOR rate, free of special
    functions; reliable well into the medium-SNR region."""
    rho = check_positive(rho, "rho")
    gain = check_int(gain, "gain")
    x = rho / gain
    value = gain / LN2 * (math.log1p(x) - x * x / (2.0 * (1.0 + x) ** 2))
    return ApproxResult(value=value, method=LOW_SNR_MN)


# ---------------------------------------------------------------------------
# low-SNR multinomial constant and aggregated rate
# ---------------------------------------------------------------------------

def psi(gain: int, users_per_group: int) -> float:
    """Multinomial constant: the expected minimum of `gain` i.i.d.
    Gamma(users_per_group, 1) variables.

    Evaluated as the survival integral of the minimum, the integral over
    x >= 0 of Q(users_per_group, x)^gain with Q the regularized upper
    incomplete gamma function. Equals 1/gain for a single user per group
    and users_per_group when only one group is served.

    Error budget: 1e-13 relative, on the summed Gauss-Kronrod error bar of
    numerics._gauss_kronrod. The integral is split where the survival power
    equals exp(-4^k), k = -5..4, so each piece spans a bounded range of it
    whatever the shape. The tail beyond exp(-256) is dropped. Where Q is
    near 1 the power is taken as exp(gain * log1p(-P)), P = 1 - Q computed
    directly, so a large gain does not amplify the rounding of Q.
    """
    g = check_int(gain, "gain")
    b = check_int(users_per_group, "users_per_group")

    def survival(x):
        p = special.gammainc(b, x)
        low = p < 0.5
        power = np.empty_like(p)
        power[low] = np.exp(g * np.log1p(-p[low]))
        power[~low] = special.gammaincc(b, x[~low]) ** g
        return power

    t = 4.0 ** np.arange(-5, 5) / g  # -log of the survival power at each edge
    edges = np.where(t < 1.0, special.gammaincinv(b, -np.expm1(-t)),
                     special.gammainccinv(b, np.exp(-t)))
    return _gauss_kronrod(survival, np.concatenate(([0.0], edges)), rel_tol=1e-13,
                          what=f"psi(gain={g}, users_per_group={b})")


def acc_rate_low_snr(rho: float, users_per_group: int, gain: int) -> ApproxResult:
    """First-order low-SNR aggregated rate:
    rho * gain / (users_per_group ln 2) * psi."""
    rho = check_positive(rho, "rho")
    b = check_int(users_per_group, "users_per_group")
    gain = check_int(gain, "gain")
    value = rho * gain / (b * LN2) * psi(gain, b)
    return ApproxResult(value=value, method=LOW_SNR_ACC_MULTINOMIAL)


def acc_over_mn_low_snr(gain: int, users_per_group: int) -> float:
    """Low-SNR limit of the aggregated-to-XOR rate ratio:
    (gain/users_per_group) * psi. Equals 1 for a single user per group and
    climbs toward `gain` as the group size grows."""
    b = check_int(users_per_group, "users_per_group")
    gain = check_int(gain, "gain")
    return gain / b * psi(gain, b)


# ---------------------------------------------------------------------------
# large-group-size forms
# ---------------------------------------------------------------------------

def acc_over_mn_large_b(rho: float, gain: int) -> float:
    """Many-users-per-group limit of the aggregated-to-XOR rate ratio,
    exp((1-gain)/rho) Ei(-1/rho)/Ei(-gain/rho), evaluated in scaled form.

    Equals the TDM-to-single-served-user ratio gain * R_tdm / R_mn; lies in
    [1, gain], approaching gain as rho -> 0."""
    rho = check_positive(rho, "rho")
    gain = check_int(gain, "gain")
    return exp_scaled_e1(1.0 / rho) / exp_scaled_e1(gain / rho)


_H_TABLE_VALUES = {
    1: 0.0,
    2: math.pi ** -0.5,
    3: 1.5 * math.pi ** -0.5,
    4: 3.0 * math.pi ** -1.5 * math.acos(-1.0 / 3.0),
    5: 2.5 * math.pi ** -1.5 * math.acos(-23.0 / 27.0),
}


#: Pieces of the H integral: its integrand peaks near -sqrt(2 ln gain), in
#: [-4.3, -1.2] for gains 2 to 10^4, and is below 1e-300 outside [-40, 40].
_H_EDGES = (-40.0, -12.0, -8.0, -6.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 40.0)


def _h_integral(gain: int) -> float:
    value = _gauss_kronrod(
        lambda y: y * np.exp((gain - 1) * special.log_ndtr(-y) - 0.5 * y * y), _H_EDGES,
        abs_tol=1e-13, rel_tol=1e-12, what=f"expected-extreme integral (gain={gain})")
    return -gain / math.sqrt(2.0 * math.pi) * value


def _h_ghq(gain: int, order: int) -> float:
    # adaptive GHQ (Liu & Pierce 1994) of the by-parts form in h_order_stat,
    # summed in log space so large gains cannot overflow
    nodes, weights = gauss_hermite_rule(order)
    if gain == 1:
        return 0.0
    k = gain - 2

    def mills(y):  # phi(y) / Phi(y), for y >= 0 where Phi(y) >= 1/2
        return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * y * y) / math.erfc(-y / math.sqrt(2.0))

    # the log-integrand's slope -2y + k*mills(y) is convex and decreasing,
    # so Newton from 0 (left of the mode) climbs to it monotonically
    mode = 0.0
    for _ in range(100):
        r = mills(mode)
        step = (k * r - 2.0 * mode) / (2.0 + k * r * (mode + r))
        mode += step
        if abs(step) <= 1e-12 * (1.0 + mode):
            break
    r = mills(mode)
    scale = math.sqrt(2.0 / (2.0 + k * r * (mode + r)))
    y = mode + scale * nodes
    log_terms = nodes ** 2 - y * y + k * special.log_ndtr(y)
    shift = float(log_terms.max())
    log_sum = shift + math.log(float(weights @ np.exp(log_terms - shift)))
    return gain * (gain - 1) / (2.0 * math.pi) * scale * math.exp(log_sum)


def h_order_stat(gain: int, method: str = H_AUTO, ghq_order: int = 7) -> float:
    """Expected maximum of `gain` i.i.d. standard normals.

    Methods: exact `table` constants (gain <= 5), the defining `integral`
    gain * integral of y phi(y) Phi(y)^(gain-1) (reference oracle), `ghq`,
    or the `asymptotic` sqrt(2 ln gain). `auto` picks the table for
    gain <= 5 and above it the integral, which costs about as much as GHQ.

    `ghq` sums the by-parts form
    gain (gain-1)/(2 pi) * integral of exp(-y^2) Phi(y)^(gain-2)
    with a Gauss-Hermite rule centred on the integrand's mode and scaled by
    its curvature there. At order 7 it is within 5e-5 of the integral for
    gain <= 20, 3.1e-4 at gain 100 and 2.0e-3 at gain 1e4; gains 1 and 2
    are exact. The asymptote is loose until gain is very large.

    The integral, written as the minimum's, is numerics._gauss_kronrod with
    log Phi from `scipy.special.log_ndtr`. Its error bar is within 1e-12
    relative or 1e-13 absolute, or NumericsError is raised.
    """
    gain = check_int(gain, "gain")
    if method not in H_METHODS:
        raise ParameterError(f"unknown H method {method!r}; expected one of {H_METHODS}")
    if method == H_AUTO:
        method = H_TABLE if gain <= 5 else H_INTEGRAL
    if method == H_TABLE:
        if gain > 5:
            raise ParameterError("the closed-form table covers gain <= 5 only")
        return _H_TABLE_VALUES[gain]
    if method == H_INTEGRAL:
        return _h_integral(gain)
    if method == H_GHQ:
        return _h_ghq(gain, ghq_order)
    return math.sqrt(2.0 * math.log(gain))


def acc_rate_large_b(rho: float, users_per_group: int, gain: int,
                     h_method: str = H_AUTO) -> ApproxResult:
    """Normal approximation of the aggregated rate for many users per group:
    (gain/ln 2) (mu - sigma * H_gain / sqrt(users_per_group)),
    with mu and sigma the mean and standard deviation of ln(1+SNR).

    Converges to (gain/ln 2) mu as the group size grows; accurate to a few
    percent already around ten users per group. Raises NumericsError where
    the form is not a rate, mu - sigma H / sqrt(users_per_group) <= 0.
    """
    rho = check_positive(rho, "rho")
    b = check_int(users_per_group, "users_per_group", minimum=2)
    gain = check_int(gain, "gain")
    mu = mean_log1p_snr(rho)
    sigma = std_log1p_snr(rho)
    h = h_order_stat(gain, h_method)
    margin = mu - sigma * h / math.sqrt(b)
    if margin <= 0.0:
        raise NumericsError(
            f"the large-B normal form is not positive at rho={rho}, users_per_group={b}, "
            f"gain={gain}: H/sqrt(b) >= mu/sigma ({h / math.sqrt(b):.4g} >= {mu / sigma:.4g}, "
            f"H by {h_method})")
    return ApproxResult(value=gain / LN2 * margin, method=LARGE_B_NORMAL)


# ---------------------------------------------------------------------------
# expected minimum of group sums on a lattice
# ---------------------------------------------------------------------------

#: Relative budget of the lattice's error bar.
LATTICE_REL_TOL = 1e-9

#: Most cells one convolution may hold: users_per_group times the cells of
#: one user's lattice.
LATTICE_MAX_CELLS = 2 ** 21

#: Cells of the pilot lattice that sizes the first step.
_PILOT_CELLS = 4096

#: Steps per standard deviation of the group sum on the first lattice.
_FIRST_STEPS_PER_SD = 8


def _cell_masses(cdf, lower: float, h: float, n: int) -> np.ndarray:
    """Masses of n cells of width h from `lower`; the mass below the first
    cell joins it and the mass beyond the last joins that one."""
    edge_cdf = cdf(lower + h * np.arange(n + 1))
    edge_cdf[0], edge_cdf[-1] = 0.0, 1.0
    return np.diff(edge_cdf)


def _lattice_floor(cdf, lower, upper, b, g, h):
    """(E[min over g groups of the sum of b cell floors], cells per user),
    the cell floors being the variable rounded down to the lattice."""
    n = math.ceil((upper - lower) / h)
    masses = _cell_masses(cdf, lower, h, n)
    if b > 1:
        # zero-padded past the b(n-1) top cell of the sum, so the circular
        # convolution does not wrap
        size = next_fast_len(b * n, real=True)
        masses = np.fft.irfft(np.fft.rfft(masses, size) ** b, size)[:b * (n - 1) + 1]
    survival = np.clip(1.0 - np.cumsum(masses), 0.0, 1.0)
    return b * lower + h * float(np.sum(survival ** g)), n


def lattice_expected_min(cdf, lower: float, upper: float, users_per_group: int,
                         gain: int) -> float:
    """E[min over `gain` groups of the sum of `users_per_group` i.i.d.
    copies of a variable], the variable given by its vectorized `cdf` and
    cut at `lower` and `upper`.

    Lattice FFT convolution (Embrechts & Frei 2009): the variable's masses
    on cells of width h, their rFFT raised to the power users_per_group and
    inverted give the distribution of the sum of cell floors, and
    E[min] = b lower + h sum_j P(sum > j)^gain on it. Cell floors and
    ceilings bracket the true value within b h; the midpoint m(h) has an
    O(h^2) error, removed by the Richardson values (4 m(h/2) - m(h))/3 of
    successive halvings. The first step is the standard deviation of the
    group sum over 8, that deviation taken from a pilot lattice of 4096
    cells. The step is halved until the gap between the last two Richardson
    values, the error bar, is at most LATTICE_REL_TOL relative; the value
    is those two extrapolated once more, (16 R(h/2) - R(h))/15.

    Raises NumericsError when the next lattice would exceed
    LATTICE_MAX_CELLS before the budget is met, when the ratio of the last
    two successive differences of m is not within 10% of 4 while the finer
    one exceeds the budget, or when the value leaves the finest bracket.
    Mass beyond the cut-offs is moved onto the end cells.
    """
    b = check_int(users_per_group, "users_per_group")
    g = check_int(gain, "gain")
    what = f"lattice expected minimum (users_per_group={b}, gain={g})"
    pilot = (upper - lower) / _PILOT_CELLS
    masses = _cell_masses(cdf, lower, pilot, _PILOT_CELLS)
    centres = lower + pilot * (np.arange(_PILOT_CELLS) + 0.5)
    mean = float(masses @ centres)
    sd = math.sqrt(b * float(masses @ (centres - mean) ** 2))
    if not sd > 0.0:
        raise NumericsError(f"{what}: the pilot lattice resolves no spread between "
                            f"the cut-offs {lower} and {upper}")
    h = sd / _FIRST_STEPS_PER_SD
    mids = []
    while True:
        floor, n = _lattice_floor(cdf, lower, upper, b, g, h)
        mids.append(floor + 0.5 * b * h)
        if len(mids) >= 3:
            d1, d2 = mids[-3] - mids[-2], mids[-2] - mids[-1]
            r1, r2 = mids[-2] - d1 / 3.0, mids[-1] - d2 / 3.0
            error_bar, tol = abs(r2 - r1), LATTICE_REL_TOL * abs(r2)
            if error_bar <= tol:
                break
        if 2 * b * n > LATTICE_MAX_CELLS:
            bar = f"error bar {error_bar:.2e}" if len(mids) >= 3 else "no error bar yet"
            raise NumericsError(
                f"{what} did not meet its {LATTICE_REL_TOL:.0e} relative budget within "
                f"{LATTICE_MAX_CELLS} cells: {bar} at step {h:.3e}")
        h /= 2.0
    if abs(d2) > tol and not 3.6 <= d1 / d2 <= 4.4:
        raise NumericsError(f"{what}: successive differences have ratio {d1 / d2:.4g}, "
                            f"not near 4, so the error is not O(h^2) within the "
                            f"{LATTICE_REL_TOL:.0e} budget")
    value = r2 + (r2 - r1) / 15.0
    if not floor <= value <= floor + b * h:
        raise NumericsError(f"{what}: {value!r} left the bracket [{floor!r}, "
                            f"{floor + b * h!r}] within the {LATTICE_REL_TOL:.0e} budget")
    return value


# ---------------------------------------------------------------------------
# group-sum CDF by characteristic-function inversion
# ---------------------------------------------------------------------------

#: Absolute CDF error allotted to truncating the inversion integral.
_CDF_TAIL_TOL = 1e-8


class _CharFnTable:
    """Dense tabulation of the single-user characteristic function
    phi(t) = E exp(jt ln(1+SNR)) on [0, tmax] for one rho.

    Sparse nodes are evaluated by adaptive quadrature, splined, and
    resampled onto dense grids so later lookups are cheap linear
    interpolation. Integration by parts bounds |phi(t)| by
    (f(0) + TV(f))/t with f the density of ln(1+SNR), whose total
    variation is 2/rho below unit SNR and ~2/e above it; that envelope
    fixes the truncation point tmax needed for a CDF error of
    _CDF_TAIL_TOL even in the slowest-decaying two-user case.
    """

    SPARSE_LINEAR = 420
    SPARSE_LOG = 900
    DENSE_LINEAR = 6000
    DENSE_LOG = 60000

    def __init__(self, rho: float):
        self.rho = rho
        # below the boundary the integrand is treated as smooth, above it as
        # linear between the nodes. The CF varies on scale ~rho in t below
        # unit SNR and on an O(1) scale above it.
        self.boundary = 2.0 / min(rho, 1.0)
        peak_density = 1.0 / rho if rho <= 1.0 else math.exp(1.0 / rho - 1.0)
        envelope = 1.0 / rho + 2.0 * peak_density
        self.tmax = envelope / math.sqrt(2.0 * math.pi * _CDF_TAIL_TOL)
        sparse = np.concatenate([
            np.linspace(0.0, self.boundary, self.SPARSE_LINEAR),
            np.geomspace(self.boundary, self.tmax, self.SPARSE_LOG)[1:],
        ])
        values = np.array([1.0] + _char_fn(sparse[1:], rho, abs_tol=1e-11))
        spline_re = interpolate.CubicSpline(sparse, values.real)
        spline_im = interpolate.CubicSpline(sparse, values.imag)
        self.t_grid = np.concatenate([
            np.linspace(0.0, self.boundary, self.DENSE_LINEAR),
            np.geomspace(self.boundary, self.tmax, self.DENSE_LOG)[1:],
        ])
        self.re = spline_re(self.t_grid)
        self.im = spline_im(self.t_grid)
        for arr in (self.t_grid, self.re, self.im):
            arr.setflags(write=False)

    def phi(self, t: np.ndarray) -> np.ndarray:
        """phi at t by linear interpolation between the nodes, bit for bit
        np.interp's: its values at nodes and ends, and between nodes its
        slope (y[j+1] - y[j]) / (t[j+1] - t[j]) times (t - t[j]) plus y[j].
        np.interp would copy the read-only grid and values on every call."""
        grid = self.t_grid
        t = np.clip(t, grid[0], grid[-1])
        j = np.searchsorted(grid, t, side="right") - 1
        at_node = grid[j] == t
        k = np.minimum(j, grid.size - 2)
        step, offset = grid[k + 1] - grid[k], t - grid[k]
        out = np.empty(t.shape, dtype=complex)
        for part, y in ((out.real, self.re), (out.imag, self.im)):
            part[...] = np.where(at_node, y[j], (y[k + 1] - y[k]) / step * offset + y[k])
        return out


class _MinSumInversion:
    """Survival function of S = sum over the group of ln(1+SNR), recovered
    from phi^users_per_group by inversion of the characteristic function."""

    def __init__(self, rho: float, users_per_group: int):
        self.b = users_per_group
        self.table = _cf_table(rho)
        # the tail [boundary, tmax] starts at the last node of the linear grid
        first = self.table.DENSE_LINEAR - 1
        self._t = self.table.t_grid[first:]
        # phi^B/t at the tail's ends, its slopes there and its slope jumps
        # at the inner nodes; phi at the table's nodes is its values there
        f = np.empty(self._t.shape, dtype=complex)
        f.real, f.imag = self.table.re[first:], self.table.im[first:]
        f **= users_per_group
        f /= self._t
        slope = np.diff(f)
        slope /= np.diff(self._t)
        self._ends, self._end_slopes = f[[0, -1]], slope[[0, -1]]
        self._jumps = np.diff(slope)
        for arr in (self._ends, self._end_slopes, self._jumps):
            arr.setflags(write=False)

    def survival(self, y: float) -> float:
        """P(S > y) = 1/2 + (1/pi) * integral of Im{e^{-jty} phi^B}/t dt to
        tmax: Gauss-Legendre on [0, boundary], and beyond it the exact
        integral of phi^B/t interpolated linearly between the table's nodes."""
        if y <= 0:
            return 1.0
        table = self.table
        a = table.boundary
        # smooth region [0, a]: vectorized Gauss-Legendre sized to the
        # oscillation count of exp(-jty)
        cycles = y * a / (2.0 * math.pi)
        n_nodes = min(4096, 64 + 14 * int(cycles + 1))
        nodes, weights = _gauss_legendre(n_nodes)
        t = 0.5 * a * (nodes + 1.0)
        phi_b = table.phi(t) ** self.b
        integrand = (phi_b.imag * np.cos(y * t) - phi_b.real * np.sin(y * t)) / t
        low = 0.5 * a * float(np.sum(weights * integrand))
        # tail [a, tmax]: Im(f) against cos(yt) less Re(f) against sin(yt),
        # f = phi^B/t linear between the nodes. By parts twice (Filon 1928),
        # f against w(yt) = d W(yt)/y dt is [f W/y + f' w/y^2] at the ends
        # less the slope jumps times w(y t_k)/y^2. The jumps add up to the
        # change of slope, so cos(yt) - 1 = -2 sin(yt/2)^2 may stand for
        # w = cos(yt); small y does not cancel it
        # sin(yt) = 2 sin(yt/2) cos(yt/2) and cos(yt) - 1, built in place
        sin = np.cos(0.5 * y * self._t)
        cos_m1 = np.sin(0.5 * y * self._t)
        sin *= 2.0 * cos_m1
        cos_m1 *= -2.0 * cos_m1
        (f0, f1), (d0, d1), jumps = self._ends, self._end_slopes, self._jumps
        cos_part = ((f1.imag * sin[-1] - f0.imag * sin[0]) / y
                    + (d1.imag * cos_m1[-1] - d0.imag * cos_m1[0]
                       - jumps.imag @ cos_m1[1:-1]) / (y * y))
        sin_part = ((f0.real * (1.0 + cos_m1[0]) - f1.real * (1.0 + cos_m1[-1])) / y
                    + (d1.real * sin[-1] - d0.real * sin[0] - jumps.real @ sin[1:-1]) / (y * y))
        return 0.5 + (low + float(cos_part - sin_part)) / math.pi

    def survival_clipped(self, y: float) -> float:
        return min(1.0, max(0.0, self.survival(y)))


#: one table per rho, one inversion per (rho, users_per_group) and one
#: Gauss-Legendre rule per order, each kept for the life of the process
_cf_table = functools.cache(_CharFnTable)
_inversion = functools.cache(_MinSumInversion)
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def capacity_sum_cdf(y: float, rho: float, users_per_group: int) -> float:
    """CDF of the per-group sum of ln(1+SNR) over `users_per_group` i.i.d.
    Rayleigh-faded links, by characteristic-function inversion."""
    rho = check_positive(rho, "rho")
    b = check_int(users_per_group, "users_per_group", minimum=2)
    if y <= 0:
        return 0.0
    return 1.0 - _inversion(rho, b).survival_clipped(float(y))


def acc_rate_exact_integral(rho: float, users_per_group: int, gain: int) -> ApproxResult:
    """Exact aggregated average rate, gain/(users_per_group ln 2) times the
    expected minimum over `gain` groups of the group sum of ln(1+SNR).

    The expected minimum is lattice_expected_min on the CDF
    1 - exp(-expm1(y)/rho) of ln(1+SNR), cut at 0 and log1p(40 rho), where
    the mass left above is exp(-40). Its error bar is within LATTICE_REL_TOL
    = 1e-9 relative, or NumericsError is raised. At one user per group it is
    exact_mn_rate. Measured at (users_per_group, gain) = (2, 2) on a 2-core
    host: 1.8 ms at -40 dB, 0.6 ms at 0 dB and 0.5 ms at 60 dB; 64 users
    per group and gain 20 at -40 dB take 60 ms.
    """
    rho = check_positive(rho, "rho")
    b = check_int(users_per_group, "users_per_group")
    gain = check_int(gain, "gain")
    expected_min = lattice_expected_min(lambda y: -np.expm1(-np.expm1(y) / rho),
                                        0.0, math.log1p(40.0 * rho), b, gain)
    value = gain / (b * LN2) * expected_min
    return ApproxResult(value=value, method=EXACT_ACC_INTEGRAL)
