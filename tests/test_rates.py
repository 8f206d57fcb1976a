import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cachecast.analysis import exact_mn_rate, mn_gain_exact
from cachecast.errors import NumericsError, ParameterError
from cachecast.rates import (
    CHUNK_TRIALS,
    RateEstimate,
    effective_gain,
    inst_rate_acc,
    inst_rate_mn,
    mc_average_rate,
    trial_rates,
)
from cachecast.system import (
    Scheme, SeedSpec, SnrMatrix, SystemConfig, sample_snr, substream)

LN2 = math.log(2.0)


# ---------------------------------------------------------------- instantaneous metrics

def test_mn_rate_unit_case():
    assert inst_rate_mn([1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)


def test_mn_rate_zero_snr_floor():
    assert inst_rate_mn([3.0, 0.0]) == 0.0


def test_mn_rate_spot_value():
    assert inst_rate_mn([7.0, 3.0, 15.0]) == pytest.approx(2.0, rel=1e-15)


def test_acc_rate_single_user_reduction():
    rng = np.random.default_rng(8)
    for _ in range(200):
        snr = SnrMatrix(snr=rng.exponential(1.0, size=(5, 1)))
        stage = (0, 1, 2, 3, 4)
        assert inst_rate_acc(stage, snr) == pytest.approx(
            inst_rate_mn(snr.snr[:, 0]), rel=1e-14)


def test_acc_rate_symmetric_case_is_shape_independent():
    for shape in [(2, 3), (4, 1), (3, 7)]:
        snr = SnrMatrix(snr=np.full(shape, 1.0))
        assert inst_rate_acc(tuple(range(shape[0])), snr) == pytest.approx(1.0, rel=1e-14)


def test_acc_rate_worked_example_table():
    rates = np.array([[1.0, 0.25, 0.2], [0.2, 1.0, 0.25], [0.25, 1.0, 0.2]])
    snr = SnrMatrix(snr=2.0 ** rates - 1.0)
    assert inst_rate_acc((0, 1, 2), snr) == pytest.approx(29.0 / 60.0, rel=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 31))
def test_acc_dominates_nothing_but_uses_min_over_groups(seed):
    rng = np.random.default_rng(seed)
    snr = SnrMatrix(snr=rng.exponential(1.0, size=(3, 4)))
    per_group = np.log2(1 + snr.snr).mean(axis=1)
    assert inst_rate_acc((0, 1, 2), snr) == pytest.approx(per_group.min(), rel=1e-14)


# ---------------------------------------------------------------- Monte Carlo estimator

def test_tdm_estimate_matches_closed_form():
    config = SystemConfig.from_gain(1, 1, avg_snr=1.0)
    estimate = mc_average_rate(config, Scheme.TDM, 200_000, base_seed=314)
    exact = exact_mn_rate(1.0, 1).value
    assert exact == pytest.approx(0.8603474, abs=1e-7)
    assert abs(estimate.mean - exact) < 3 * estimate.std_err


def test_mn_estimate_matches_closed_form():
    config = SystemConfig.from_gain(4, 1, avg_snr=1.0)
    estimate = mc_average_rate(config, Scheme.MN, 200_000, base_seed=217)
    exact = exact_mn_rate(1.0, 4).value
    assert abs(estimate.mean - exact) < 3 * estimate.std_err


def test_single_user_groups_make_metrics_identical_per_trial():
    config = SystemConfig.from_gain(4, 1, avg_snr=1.0)
    acc = trial_rates(config, Scheme.ACC, 5000, base_seed=99)
    mn = trial_rates(config, Scheme.MN, 5000, base_seed=99)
    assert np.array_equal(acc, mn)


def test_estimates_are_deterministic_across_worker_counts():
    config = SystemConfig.from_gain(3, 2, avg_snr=2.0)
    one = mc_average_rate(config, Scheme.ACC, 50_000, base_seed=5, workers=1)
    eight = mc_average_rate(config, Scheme.ACC, 50_000, base_seed=5, workers=8)
    assert one == eight


def test_estimates_are_deterministic_via_env(monkeypatch):
    config = SystemConfig.from_gain(2, 3, avg_snr=1.0)
    monkeypatch.setenv("CACHECAST_WORKERS", "4")
    four = mc_average_rate(config, Scheme.ACC, 30_000, base_seed=12)
    monkeypatch.setenv("CACHECAST_WORKERS", "1")
    one = mc_average_rate(config, Scheme.ACC, 30_000, base_seed=12)
    assert four == one


def test_std_err_shrinks_like_root_two_when_trials_double():
    config = SystemConfig.from_gain(2, 2, avg_snr=1.0)
    small = mc_average_rate(config, Scheme.ACC, 100_000, base_seed=7)
    large = mc_average_rate(config, Scheme.ACC, 200_000, base_seed=7)
    ratio = large.std_err / small.std_err
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_mean_rate_nonincreasing_in_gain_pathwise():
    # coupled realizations: metrics over nested stage prefixes of one draw
    config = SystemConfig.from_gain(6, 2, avg_snr=1.0)
    totals = {gain: 0.0 for gain in (2, 4, 6)}
    for trial in range(400):
        snr = sample_snr(config, SeedSpec(base_seed=88, trial_index=trial))
        for gain in totals:
            totals[gain] += inst_rate_acc(tuple(range(gain)), snr)
    assert totals[2] >= totals[4] >= totals[6]


def test_trial_count_precondition():
    config = SystemConfig.from_gain(2, 2, avg_snr=1.0)
    with pytest.raises(ParameterError):
        mc_average_rate(config, Scheme.ACC, 99, base_seed=1)


def test_trial_rates_order_is_stable_across_chunks():
    config = SystemConfig.from_gain(2, 2, avg_snr=1.0)
    short = trial_rates(config, Scheme.ACC, 5000, base_seed=3)
    long = trial_rates(config, Scheme.ACC, 20_000, base_seed=3)
    assert np.array_equal(short, long[:5000])


def test_acc_trial_rates_match_the_out_of_place_formula():
    # the chunk metric is evaluated in place; it must equal the textbook
    # expression on the same Philox substream bit for bit
    rho, gain, users, tail = 2.5, 3, 4, 500
    config = SystemConfig.from_gain(gain, users, avg_snr=rho)
    expected = []
    for chunk_index, count in enumerate((CHUNK_TRIALS, tail)):
        u = substream(SeedSpec(base_seed=17, trial_index=chunk_index)).random(
            (count, gain, users))
        snr = -rho * np.log1p(-u)
        expected.append(np.log1p(snr).mean(axis=2).min(axis=1))
    got = trial_rates(config, Scheme.ACC, CHUNK_TRIALS + tail, base_seed=17)
    np.testing.assert_array_equal(got, gain / LN2 * np.concatenate(expected))


# ---------------------------------------------------------------- effective gain

def test_self_ratio_is_exactly_one():
    config = SystemConfig.from_gain(1, 1, avg_snr=1.0)
    tdm = mc_average_rate(config, Scheme.TDM, 10_000, base_seed=4)
    gain = effective_gain(tdm, tdm)
    assert gain.value == 1.0


def test_gain_error_propagation_is_first_order():
    numerator = RateEstimate(mean=2.0, std_err=0.02, num_trials=1000, scheme=Scheme.MN)
    denominator = RateEstimate(mean=1.0, std_err=0.01, num_trials=1000, scheme=Scheme.TDM)
    gain = effective_gain(numerator, denominator)
    assert gain.value == pytest.approx(2.0)
    expected = math.sqrt(0.02 ** 2 + (2.0 * 0.01) ** 2)
    assert gain.std_err == pytest.approx(expected, rel=1e-12)


def test_gain_requires_positive_reference():
    bad = RateEstimate(mean=0.0, std_err=0.0, num_trials=1000, scheme=Scheme.TDM)
    good = RateEstimate(mean=1.0, std_err=0.0, num_trials=1000, scheme=Scheme.MN)
    with pytest.raises(NumericsError):
        effective_gain(good, bad)


def test_low_snr_gain_collapse_in_monte_carlo():
    config = SystemConfig.from_gain(10, 1, avg_snr=1e-3)
    mn = mc_average_rate(config, Scheme.MN, 400_000, base_seed=21)
    tdm = mc_average_rate(config, Scheme.TDM, 400_000, base_seed=22)
    gain = effective_gain(mn, tdm)
    assert 0.95 < gain.value < 1.1
    assert mn_gain_exact(1e-3, 10) == pytest.approx(1.0008989, abs=1e-6)


def test_high_snr_gain_matches_the_exact_ratio():
    # convergence to the nominal gain is logarithmic: at 60 dB and gain 4
    # the exact ratio is still only ~3.58, and the simulation agrees
    config = SystemConfig.from_gain(4, 1, avg_snr=1e6)
    mn = mc_average_rate(config, Scheme.MN, 400_000, base_seed=31)
    tdm = mc_average_rate(config, Scheme.TDM, 400_000, base_seed=32)
    gain = effective_gain(mn, tdm)
    exact = mn_gain_exact(1e6, 4)
    assert exact == pytest.approx(3.5811377, abs=1e-6)
    assert abs(gain.value - exact) < 3 * gain.std_err
