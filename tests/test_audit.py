"""Standing audit of the Monte Carlo error bars: every Monte Carlo row of
every figure preset, at one trial count and seed, against an exact value.

For each row z = (estimate - exact) / stderr. TDM and MN rows are checked
against exact_mn_rate, ACC rows against the lattice oracle below, and
mc-ratio rows (ACC over MN) against the quotient of the two, with
gain_stderr. The closed-form rows of the presets are left out: they are
not estimates, and fig5's exact ACC integral alone would cost seconds.

TRIALS and SEED were fixed before the audit first ran and are never
re-picked: a failure is a finding about the estimator or its error bars,
not a reason to move them.
"""

import functools
import math

import numpy as np
import pytest
from scipy import fft, special, stats

from cachecast.analysis import exact_mn_rate
from cachecast.experiments import FIGURE_PRESETS, MC_RATIO, ExperimentSpec, run_sweep

TRIALS, SEED = 20_000, 17
#: family-wise level of the max-|z| check and level of the chi-square test
LEVEL = 1e-3
#: fig7 and fig8 estimate each row from its own shape, so their z are
#: independent and their sum of squares is chi-square
ONE_SNR_PER_SHAPE = ("fig7", "fig8")
LN2 = math.log(2.0)


def _lattice_midpoint_survival(rho, users, step):
    """P(J > j) for j = 0, 1, ... while it is above 1e-20, where J is the
    sum of `users` cell indices floor(Y / step) of i.i.d. Y = ln(1 + SNR),
    SNR ~ Exp(rho). The cells stop at log1p(40 rho), beyond which Y has
    mass e^-40. As Y <= SNR, J step exceeds the Gamma(users, rho) quantile
    of 1e-20 with less probability, so an FFT that short wraps no more."""
    cells = math.ceil(math.log1p(40.0 * rho) / step)
    survival = np.exp(-np.expm1(step * np.arange(cells + 1)) / rho)
    mass = survival[:-1] - survival[1:]
    support = min(users * (cells - 1) + 1,
                  math.ceil(rho * special.gammainccinv(users, 1e-20) / step))
    size = fft.next_fast_len(support, real=True)
    pmf = fft.irfft(fft.rfft(mass, size) ** users, size)[:support]
    tail = np.cumsum(pmf[::-1])[::-1][1:]
    return tail[:np.searchsorted(-tail, -1e-20)]


@functools.lru_cache(maxsize=None)
def _lattice(rho, users):
    step = 1e-3 * min(rho, 1.0)
    return step, (_lattice_midpoint_survival(rho, users, step),
                  _lattice_midpoint_survival(rho, users, step / 2))


def exact_acc_rate(rho, users, gain):
    """(rate, error bar) of the ACC rate by lattice FFT convolution.

    A group's sum S of ln(1 + SNR) lies in [J h, (J + users) h), so the
    midpoint h (sum_j P(J > j)^gain + users/2) of the bracket on E[min S]
    errs by O(h^2). The steps h and h/2 extrapolate to (4 m(h/2) - m(h))/3,
    and |m(h) - m(h/2)|/3, the error of m(h/2), bounds its error."""
    step, survivals = _lattice(rho, users)
    m_h, m_half = (h * (np.sum(s ** gain) + users / 2) / users
                   for h, s in zip((step, step / 2), survivals))
    scale = gain / LN2
    return scale * (4.0 * m_half - m_h) / 3.0, scale * abs(m_h - m_half) / 3.0


def audit_rows():
    """(preset, label, z, oracle error over stderr) of every Monte Carlo
    row of every preset, at TRIALS and SEED."""
    out = []
    for preset, entries in FIGURE_PRESETS.items():
        for fields, suffix in entries:
            if not fields.get("schemes"):
                continue
            spec = ExperimentSpec(**{**fields, "analytics": ()}, num_trials=TRIALS,
                                  base_seed=SEED)
            points = {float(value): spec.point(value) for value in spec.axis_values}
            for row in run_sweep(spec, label_suffix=suffix):
                assert row.error is None, (preset, row)
                rho, users, gain = points[row.swept]
                name = row.scheme[:-len(suffix)] if suffix else row.scheme
                if name == "acc":
                    exact, oracle_err = exact_acc_rate(rho, users, gain)
                    estimate, stderr = row.rate_mean, row.rate_stderr
                elif name == MC_RATIO:
                    acc, acc_err = exact_acc_rate(rho, users, gain)
                    mn = exact_mn_rate(rho, gain).value
                    exact, oracle_err = acc / mn, acc_err / mn
                    estimate, stderr = row.gain, row.gain_stderr
                else:  # tdm or mn: the closed form
                    exact, oracle_err = exact_mn_rate(rho, gain if name == "mn" else 1).value, 0.0
                    estimate, stderr = row.rate_mean, row.rate_stderr
                out.append((preset, f"{row.scheme} at {row.swept}",
                            (estimate - exact) / stderr, oracle_err / stderr))
    return out


@pytest.fixture(scope="module")
def rows():
    return audit_rows()


def test_the_oracle_is_the_closed_form_at_one_user_per_group():
    for rho in (0.01, 1.0, 1000.0):
        for gain in (1, 4, 10):
            rate, err = exact_acc_rate(rho, 1, gain)
            exact = exact_mn_rate(rho, gain).value
            assert rate == pytest.approx(exact, rel=1e-11)
            assert abs(rate - exact) <= err < 1e-5 * exact


def test_every_monte_carlo_row_is_within_the_bonferroni_bound(rows):
    assert len(rows) == 406
    bound = stats.norm.isf(LEVEL / (2 * len(rows)))
    assert bound == pytest.approx(4.71, abs=5e-3)
    preset, label, z, _ = max(rows, key=lambda row: abs(row[2]))
    print(f"audit: max |z| {abs(z):.2f} ({preset} {label}), bound {bound:.2f}")
    assert abs(z) < bound, (preset, label, z)


def test_the_one_snr_per_shape_rows_are_chi_square(rows):
    z = np.array([z for preset, _, z, _ in rows if preset in ONE_SNR_PER_SHAPE])
    assert len(z) == 50
    statistic = float(np.sum(z ** 2))
    p = 2.0 * min(stats.chi2.cdf(statistic, len(z)), stats.chi2.sf(statistic, len(z)))
    print(f"audit: sum z^2 {statistic:.1f} over {len(z)} rows, two-sided p {p:.3g}")
    assert p >= LEVEL, (statistic, p)


def test_the_oracle_error_is_negligible_beside_every_stderr(rows):
    preset, label, _, ratio = max(rows, key=lambda row: row[3])
    assert ratio < 0.1, (preset, label, ratio)
