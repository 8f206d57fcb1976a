import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cachecast import rates
from cachecast.analysis import exact_mn_rate, mn_gain_exact
from cachecast.errors import NumericsError, ParameterError
from cachecast.rates import (
    BLOCK_TRIALS,
    CHUNK_TRIALS,
    RateEstimate,
    effective_gain,
    mc_average_rate,
    mc_average_rates,
    trial_rates,
)
from cachecast.system import (
    Scheme, SeedSpec, SystemConfig, sample_snr, substream)

LN2 = math.log(2.0)


# ---------------------------------------------------------------- per-trial metrics

def chunk_rows(e, rhos, columns, count, bounds=None):
    """The controls (columns, count) and metric rows (SNRs, columns, count)
    of the chunk `e` of `count` trials at the SNRs `rhos`, from the stacked
    kernel rates._block_rows, run on each block range of `bounds` (the
    whole chunk by default) as the workers run it."""
    rhos = np.array(rhos, dtype=float)
    groups, users = columns[-1]
    share = len(e) * BLOCK_TRIALS * groups
    stacks = rates._stacks(rhos, users, share)
    controls = np.full((len(columns), len(e) * BLOCK_TRIALS), np.nan)
    metrics = np.full((len(rhos), len(columns), count), np.nan)
    scratch = rates._scratch(share * len(rhos))
    bounds = bounds or [0, len(e)]
    for start, stop in zip(bounds, bounds[1:]):
        rates._block_rows(e, start, stop, count, columns, rhos, stacks, controls, metrics,
                          scratch)
    return controls[:, :count], metrics


def stage_rate(snr):
    """The estimator's per-trial metric of one realization, in bits/s/Hz per
    user: the worst group's mean log2(1+SNR), from the stacked kernel on a
    one-trial chunk whose (groups, users) SNRs are the exponentials at rho 1."""
    snr = np.asarray(snr, dtype=float)
    groups, users = snr.shape
    e = np.zeros((1, users, BLOCK_TRIALS, groups))
    e[0, :, 0, :] = snr.T
    _, metrics = chunk_rows(e, [1.0], [(groups, users)], 1)
    return float(metrics[0, 0, 0]) / LN2


def test_mn_rate_unit_case():
    assert stage_rate([[1.0], [1.0]]) == pytest.approx(1.0, rel=1e-15)


def test_mn_rate_zero_snr_floor():
    assert stage_rate([[3.0], [0.0]]) == 0.0


def test_mn_rate_spot_value():
    assert stage_rate([[7.0], [3.0], [15.0]]) == pytest.approx(2.0, rel=1e-15)


def test_acc_rate_single_user_reduction():
    rng = np.random.default_rng(8)
    for _ in range(200):
        snr = rng.exponential(1.0, size=(5, 1))
        assert stage_rate(snr) == pytest.approx(np.log2(1.0 + snr.min()), rel=1e-14)


def test_acc_rate_symmetric_case_is_shape_independent():
    for shape in [(2, 3), (4, 1), (3, 7)]:
        assert stage_rate(np.full(shape, 1.0)) == pytest.approx(1.0, rel=1e-14)


def test_acc_rate_worked_example_table():
    table = np.array([[1.0, 0.25, 0.2], [0.2, 1.0, 0.25], [0.25, 1.0, 0.2]])
    assert stage_rate(2.0 ** table - 1.0) == pytest.approx(29.0 / 60.0, rel=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 31))
def test_acc_dominates_nothing_but_uses_min_over_groups(seed):
    rng = np.random.default_rng(seed)
    snr = rng.exponential(1.0, size=(3, 4))
    per_group = np.log2(1 + snr).mean(axis=1)
    assert stage_rate(snr) == pytest.approx(per_group.min(), rel=1e-14)


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


def test_estimates_are_deterministic_across_worker_counts(monkeypatch):
    config = SystemConfig.from_gain(3, 2, avg_snr=2.0)
    monkeypatch.setenv("CACHECAST_WORKERS", "1")
    one = mc_average_rate(config, Scheme.ACC, 50_000, base_seed=5)
    monkeypatch.setenv("CACHECAST_WORKERS", "8")
    eight = mc_average_rate(config, Scheme.ACC, 50_000, base_seed=5)
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
            totals[gain] += stage_rate(snr.snr[:gain])
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
    # the chunk metric is evaluated in place, one user at a time; it must
    # equal the out-of-place recurrence p += (1 + p) E_j rho on the same
    # substream bit for bit, with one log1p of the smallest group's p.
    # Chunk i draws whole blocks, laid out (blocks, users, trials, groups),
    # from substream i + 1
    rho, gain, users, tail = 2.5, 3, 4, 500
    config = SystemConfig.from_gain(gain, users, avg_snr=rho)
    expected = []
    for chunk_index, count in enumerate((CHUNK_TRIALS, tail)):
        blocks = -(-count // BLOCK_TRIALS)
        u = substream(SeedSpec(base_seed=17, trial_index=chunk_index + 1)).random(
            (blocks, users, BLOCK_TRIALS, gain))
        e = -np.log1p(-u)
        p = e[:, 0] * rho
        for j in range(1, users):
            p = p + (p + 1.0) * e[:, j] * rho
        expected.append((np.log1p(p.min(axis=-1)) / users).reshape(-1)[:count])
    got = trial_rates(config, Scheme.ACC, CHUNK_TRIALS + tail, base_seed=17)
    np.testing.assert_array_equal(got, gain / LN2 * np.concatenate(expected))


def _chunk_exponentials(base_seed, substream_index, count, groups, users):
    # E = -ln(1-u) of one chunk, straight from its substream
    blocks = -(-count // BLOCK_TRIALS)
    u = substream(SeedSpec(base_seed=base_seed, trial_index=substream_index)).random(
        (blocks, users, BLOCK_TRIALS, groups))
    return -np.log1p(-u)


@pytest.mark.parametrize("scheme", [Scheme.TDM, Scheme.MN])
@pytest.mark.parametrize("gain", [1, 4, 20])
def test_single_user_trial_rates_match_the_textbook_minimum(scheme, gain):
    # the group minimum runs slice by slice; it must equal ndarray.min over
    # the groups axis bit for bit, across a chunk boundary and a partial
    # last block
    rho, tail = 2.5, 300
    config = SystemConfig.from_gain(gain, 3, avg_snr=rho)
    groups = gain if scheme is Scheme.MN else 1
    expected = []
    for chunk_index, count in enumerate((CHUNK_TRIALS, tail)):
        e = _chunk_exponentials(23, chunk_index + 1, count, groups, 1)
        expected.append(np.log1p(rho * e)[:, 0].min(axis=-1).reshape(-1)[:count])
    got = trial_rates(config, scheme, CHUNK_TRIALS + tail, base_seed=23)
    assert got.tobytes() == (groups / LN2 * np.concatenate(expected)).tobytes()


@pytest.mark.parametrize("gain,users", [(1, 3), (4, 1), (4, 5), (20, 2)])
@pytest.mark.parametrize("tied", [False, True], ids=["drawn", "tied"])
def test_controls_match_the_textbook_reductions(gain, users, tied):
    # each control is the smallest group mean of E (or E of the lone user)
    # taken as the minimum of the group sums divided afterwards; rounding E
    # to quarters makes many groups tie
    count = 3 * BLOCK_TRIALS - 40
    e = _chunk_exponentials(29, 1, count, gain, users)
    if tied:
        e = np.floor(4 * e) / 4
    columns = sorted({(1, 1), (gain, 1), (gain, users)})
    expected = {(1, 1): e[:, 0, :, 0], (gain, 1): e[:, 0].min(axis=-1),
                (gain, users): e.mean(axis=1).min(axis=-1)}
    got, _ = chunk_rows(e, [1.0], columns, count)
    assert len(got) == len(columns)
    for column, values in zip(columns, got):
        assert values.tobytes() == expected[column].reshape(-1)[:count].tobytes(), column


#: Rounding bound of the ACC metric against the log-sum formula, in units of
#: 2^-53 and with users b. log1p errs by at most 4 ulp, 8 units relative.
#: The kernel's p has 4b - 3 roundings of nonnegative terms, and log1p(p)
#: inherits p's relative error; then log1p and the division by b add 9:
#: 4b + 6. The formula rounds each rho E (1 unit, which log1p inherits) and
#: its log1p (8), then b - 1 additions and the division: b + 9. Their sum,
#: 5b + 15, plus one for second-order terms.
def _acc_rounding_bound(users):
    return (5 * users + 16) * 2.0 ** -53


@pytest.mark.parametrize("rho_db", [-3000.0, -160.0, -40.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize("gain,users", [(10, 6), (4, 32), (4, 64), (4, 128)])
def test_acc_metric_is_the_log_sum_formula_to_rounding(gain, users, rho_db):
    # the running group product gives the worst group's mean of
    # ln(1 + rho E) to a few ulps at any SNR, one block or several
    rho = 10.0 ** (rho_db / 10.0)
    count = 2 * BLOCK_TRIALS - 40
    e = _chunk_exponentials(41, 1, count, gain, users)
    column = (gain, users)
    _, metrics = chunk_rows(e, [rho], [column], count)
    got = metrics[0, 0]
    formula = (np.log1p(rho * e).sum(axis=1).min(axis=-1) / users).reshape(-1)[:count]
    assert np.all(formula > 0)
    error = np.max(np.abs(got - formula) / formula)
    assert error <= _acc_rounding_bound(users), (error, _acc_rounding_bound(users))


@pytest.mark.parametrize("users,rho_db", [(64, 60.0), (128, 30.0)])
def test_acc_rates_stay_finite_where_one_group_product_would_overflow(users, rho_db):
    # a product of 1 + rho E over all the users could pass the largest
    # double here, so the groups are split into blocks
    rho = 10.0 ** (rho_db / 10.0)
    assert rates._block_users(rho, users) < users
    (estimate,) = mc_average_rates(4, users, [rho], ("tdm", "mn", "acc"), 2000, 8)
    acc = estimate.rates[Scheme.ACC]
    assert math.isfinite(acc.mean) and math.isfinite(acc.std_err)
    assert estimate.rates[Scheme.MN].mean < acc.mean < 4 * estimate.rates[Scheme.TDM].mean


# ---------------------------------------------------------------- effective gain

def test_self_ratio_is_exactly_one():
    config = SystemConfig.from_gain(1, 1, avg_snr=1.0)
    tdm = mc_average_rate(config, Scheme.TDM, 10_000, base_seed=4)
    gain = effective_gain(tdm, tdm)
    assert gain.value == 1.0


def test_gain_error_propagation_is_first_order():
    numerator = RateEstimate(mean=2.0, std_err=0.02, num_trials=1000)
    denominator = RateEstimate(mean=1.0, std_err=0.01, num_trials=1000)
    gain = effective_gain(numerator, denominator)
    assert gain.value == pytest.approx(2.0)
    expected = math.sqrt(0.02 ** 2 + (2.0 * 0.01) ** 2)
    assert gain.std_err == pytest.approx(expected, rel=1e-12)


def test_gain_requires_positive_reference():
    bad = RateEstimate(mean=0.0, std_err=0.0, num_trials=1000)
    good = RateEstimate(mean=1.0, std_err=0.0, num_trials=1000)
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


# ---------------------------------------------------------------- shared draws

SHAPE = (4, 3)  # gain, users per group


def _shared(rhos_db, seed, trials=2000, schemes=("tdm", "mn", "acc")):
    return mc_average_rates(*SHAPE, [10.0 ** (v / 10.0) for v in rhos_db], schemes,
                            trials, seed)


def test_an_estimate_does_not_depend_on_the_other_snrs_or_narrower_schemes():
    # TDM and MN columns never widen the chunk, and each SNR is reduced on
    # its own, so dropping either changes no bit of the ACC estimate
    full = _shared((-20.0, 0.0, 20.0), seed=3)
    alone = _shared((0.0,), seed=3, schemes=("acc",))
    assert full[1].rates[Scheme.ACC] == alone[0].rates[Scheme.ACC]


def test_tdm_over_itself_has_gain_one_and_no_error():
    for estimate in _shared((-40.0, 0.0, 60.0), seed=4):
        gain = estimate.gain(Scheme.TDM)
        assert gain.value == 1.0 and gain.std_err == 0.0


def test_shared_estimates_are_identical_across_worker_counts(monkeypatch):
    runs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("CACHECAST_WORKERS", workers)
        runs.append(_shared((-20.0, 0.0, 20.0), seed=5, trials=30_000))
    one, two, eight = runs
    assert one == two == eight


@pytest.mark.parametrize("rho_db", [-40.0, 60.0])
def test_estimates_at_the_domain_edges_are_finite_and_unbiased(rho_db):
    rho = 10.0 ** (rho_db / 10.0)
    (estimate,) = _shared((rho_db,), seed=6, trials=100_000)
    for scheme, exact_gain in ((Scheme.TDM, 1), (Scheme.MN, SHAPE[0])):
        rate = estimate.rates[scheme]
        assert math.isfinite(rate.mean) and 0.0 < rate.std_err < math.inf
        exact = exact_mn_rate(rho, exact_gain).value
        assert abs(rate.mean - exact) < 4.0 * rate.std_err, (scheme, rate, exact)
    acc = estimate.rates[Scheme.ACC]
    assert math.isfinite(acc.mean) and math.isfinite(acc.std_err)


def test_control_variates_shrink_the_low_snr_error():
    # at -20 dB a rate is nearly linear in the SNR, so its linear-scale
    # control leaves a small fraction of the plain Monte Carlo error
    (estimate,) = _shared((-20.0,), seed=7, trials=20_000)
    # without controls the per-trial sd is about rho / ln 2 for both: the
    # TDM metric is near rho E / ln 2, the MN one near (g / ln 2) rho min E,
    # and min E has sd 1 / g
    plain_sd = 0.01 / LN2
    for scheme in (Scheme.TDM, Scheme.MN):
        assert estimate.rates[scheme].std_err < 0.05 * plain_sd / math.sqrt(20_000)


HONESTY_SEEDS = range(1000, 1200)
HONESTY_RHOS_DB = (-80.0, -20.0, 0.0, 20.0)
#: two-sided level of each chi-square check of a reported error bar
HONESTY_LEVEL = 1e-3


def test_reported_error_bars_match_the_spread_across_seeds():
    # Over 200 seeds of 2000 trials, (N - 1) s^2 / sigma^2 is chi-square
    # with N - 1 degrees of freedom, where s^2 is the sample variance of the
    # estimates and sigma^2 is taken as the mean reported variance. Each of
    # the 20 (SNR, quantity) checks is two-sided at HONESTY_LEVEL. The
    # z-scores against the exact rate are tested per SNR, since the SNRs of
    # one seed share their draws and only the seeds are independent.
    runs = [_shared(HONESTY_RHOS_DB, seed) for seed in HONESTY_SEEDS]
    n = len(runs)
    low, high = stats.chi2.ppf([HONESTY_LEVEL / 2, 1 - HONESTY_LEVEL / 2], n - 1)
    for i, rho_db in enumerate(HONESTY_RHOS_DB):
        rho = 10.0 ** (rho_db / 10.0)
        quantities = {f"rate {s.value}": [(run[i].rates[s].mean, run[i].rates[s].std_err)
                                          for run in runs] for s in Scheme}
        quantities.update({f"gain {s.value}": [(run[i].gain(s).value, run[i].gain(s).std_err)
                                               for run in runs]
                           for s in (Scheme.MN, Scheme.ACC)})
        for name, pairs in quantities.items():
            values, std_errs = np.array(pairs).T
            statistic = (n - 1) * values.var(ddof=1) / np.mean(std_errs ** 2)
            assert low <= statistic <= high, (rho_db, name, statistic, (low, high))
        for scheme, gain in ((Scheme.TDM, 1), (Scheme.MN, SHAPE[0])):
            exact = exact_mn_rate(rho, gain).value
            z = [(run[i].rates[scheme].mean - exact) / run[i].rates[scheme].std_err
                 for run in runs]
            assert stats.kstest(z, "norm").pvalue > 0.01, (rho_db, scheme)


@pytest.mark.parametrize("num_trials, seeds", [(1000, 150), (100_000, 80)])
def test_the_far_edge_floor_covers_the_spread_of_the_rounding(num_trials, seeds):
    # At -200 dB (gain 2, 2 users per group) every residual is constant to
    # rounding, so each reported error is the floor, while the rates spread
    # across seeds by the rounding of the chunk means, their merge tree and
    # the prefactor, which the floor must cover.
    runs = [mc_average_rates(2, 2, [1e-20], ("tdm", "mn", "acc"), num_trials, seed)[0]
            for seed in range(1000, 1000 + seeds)]
    for scheme in Scheme:
        # statistics.stdev is exact; numpy's rounding of the mean would add
        # to a spread this near the rounding
        spread = statistics.stdev(run.rates[scheme].mean for run in runs)
        assert spread <= 1.1 * statistics.median(run.rates[scheme].std_err for run in runs), scheme


def test_a_sweep_keeps_at_most_one_chunk_array_live():
    # one chunk array is (users, CHUNK_TRIALS, groups) doubles; everything
    # else a sweep allocates is a per-user slice or smaller
    gain, users = 4, 32
    chunk_bytes = users * CHUNK_TRIALS * gain * 8
    rhos = [0.01, 1.0, 100.0]
    mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 100, 9)  # warm caches
    tracemalloc.start()
    try:
        mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 3 * CHUNK_TRIALS, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes, peak / chunk_bytes


def test_more_workers_add_no_chunk_array(monkeypatch):
    # the workers share one draw buffer: eight workers, five of them
    # dealt an SNR each, add only their scratch arrays and metric rows of
    # one user's size, far less than the chunk array a buffer per worker
    # would add
    gain, users = 4, 32
    chunk_bytes = users * CHUNK_TRIALS * gain * 8
    rhos = [0.01, 0.1, 1.0, 10.0, 100.0]
    peaks = []
    for workers in ("1", "8"):
        monkeypatch.setenv(rates.WORKERS_ENV_VAR, workers)
        mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 100, 9)  # warm caches
        tracemalloc.start()
        try:
            mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 2 * CHUNK_TRIALS, 9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < chunk_bytes, [peak / chunk_bytes for peak in peaks]


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("count", [24 * BLOCK_TRIALS, 3392], ids=["pilot", "last"])
def test_a_chunk_drawn_in_pieces_is_its_one_call_draw(workers, count):
    # a 200,000-trial estimation's pilot (24 blocks) and short last chunk
    # (14 blocks), drawn as the workers draw them: each piece from its own
    # generator advanced past the earlier blocks, in any order
    groups, users = 10, 6
    whole = rates._exponentials(5, 25, count, groups, users,
                                rates._draw_buffer(count, groups, users)).copy()
    buffer = np.full(whole.size, np.nan)
    blocks = len(whole)
    bounds = [blocks * w // workers for w in range(workers + 1)]
    for start, stop in reversed(list(zip(bounds, bounds[1:]))):
        pieces = rates._exponentials(5, 25, count, groups, users, buffer, start, stop)
    assert pieces.tobytes() == whole.tobytes()


@pytest.mark.parametrize("gain,users,rhos_db,num_trials", [
    (5, 16, (0.0,), 3 * CHUNK_TRIALS + 300),  # one SNR: only the draw is split
    (2, 64, (-20.0, 0.0, 30.0, 60.0), 2 * CHUNK_TRIALS + 300),  # 60 dB splits the groups
    (4, 3, (0.0, 20.0), 100),  # one block, fewer than the workers
    (4, 32, (-20.0, 0.0, 20.0), 2 * CHUNK_TRIALS + 300),  # the wide mc_sweep part
    # eleven SNRs of one step: more than one stack at one to three workers
    (5, 4, tuple(range(-30, 31, 6)), CHUNK_TRIALS + 300),
    # a last chunk of seven blocks: unequal shares at two and three workers
    (3, 5, (-10.0, 10.0), CHUNK_TRIALS + 6 * BLOCK_TRIALS + 100),
])
def test_estimates_are_identical_for_any_worker_count(monkeypatch, gain, users, rhos_db,
                                                      num_trials):
    rhos = [10.0 ** (value / 10.0) for value in rhos_db]
    runs = []
    for workers in ("1", "2", "3", "8"):
        monkeypatch.setenv(rates.WORKERS_ENV_VAR, workers)
        runs.append(repr([(e.rates, e.relative_covariance) for e in mc_average_rates(
            gain, users, rhos, ("tdm", "mn", "acc"), num_trials, 4)]))
    assert runs[1:] == runs[:1] * 3


def test_eleven_snrs_of_one_step_make_more_than_one_stack():
    # the case above stacks its SNRs in runs at one worker's share of a
    # 32-block chunk
    rhos = [10.0 ** (value / 10.0) for value in range(-30, 31, 6)]
    stacks = rates._stacks(rhos, 4, 32 * BLOCK_TRIALS * 5)
    assert len({step for _, step in stacks}) == 1 and len(stacks) == 4
    assert [s.stop - s.start for s, _ in stacks] == [3, 3, 3, 2]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_trial_rates_are_the_stacked_kernels_rows(scheme):
    # trial_rates takes one SNR through the kernel the estimator stacks
    # SNRs in; that SNR's row of the scheme's own draws, among other SNRs
    # and narrower columns and at any block split, holds the same bits,
    # across a chunk boundary and a short last chunk
    gain, users, tail = 4, 5, 700
    rhos = [0.5, 2.0, 8.0, 1e5]  # 1e5 splits each group into two blocks
    config = SystemConfig.from_gain(gain, users, avg_snr=rhos[1])
    groups, width = column = rates._scheme_columns(gain, users, [scheme])[scheme]
    columns = sorted({(1, 1), (groups, 1), column})
    expected = []
    for substream_index, count in ((1, CHUNK_TRIALS), (2, tail)):
        e = _chunk_exponentials(12, substream_index, count, groups, width)
        _, metrics = chunk_rows(e, rhos, columns, count, [0, len(e) // 3, len(e)])
        expected.append(metrics[1, -1])
    got = trial_rates(config, scheme, CHUNK_TRIALS + tail, base_seed=12)
    assert got.tobytes() == (groups / LN2 * np.concatenate(expected)).tobytes()


@pytest.mark.parametrize("gain,users,num_snrs,workers", [
    (4, 32, 3, "1"),  # the wide mc_sweep part: every SNR in one stack
    (4, 32, 3, "2"),
    (4, 3, 12, "1"),  # the stack cap binds: four SNRs a call
    (20, 6, 2, "1"),  # one SNR of the share is past the cap: one a call
])
def test_an_estimation_holds_its_buffers_and_exact_scratch(monkeypatch, gain, users,
                                                           num_snrs, workers):
    # the draw buffer, the controls, the metric rows of every SNR and each
    # worker's three scratch arrays, of max(one SNR of its share, its
    # stack up to the cap) doubles, are all an estimation keeps; beyond
    # them the moments allocate about one SNR's rows of a chunk at a time
    monkeypatch.setenv(rates.WORKERS_ENV_VAR, workers)
    rhos = [10.0 ** (value / 10.0) for value in np.linspace(-20.0, 20.0, num_snrs)]
    columns, blocks, count = 3, CHUNK_TRIALS // BLOCK_TRIALS, CHUNK_TRIALS
    share = -(-blocks // int(workers)) * BLOCK_TRIALS * gain
    stack = min(num_snrs, max(1, rates.STACK_ELEMENTS // share))
    buffers = 8 * (count * users * gain + columns * count + num_snrs * columns * count
                   + int(workers) * 3 * share * stack)
    mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 100, 9)  # warm caches
    tracemalloc.start()
    try:
        mc_average_rates(gain, users, rhos, ("tdm", "mn", "acc"), 2 * count, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    temporaries = 8 * 2 * columns * count
    assert buffers <= peak <= buffers + temporaries, (peak - buffers) / temporaries


def test_the_default_worker_count_is_the_usable_cores_up_to_the_cap(monkeypatch):
    monkeypatch.delenv(rates.WORKERS_ENV_VAR, raising=False)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    default = min(cores, rates.MAX_DEFAULT_WORKERS)
    timings = {}
    mc_average_rates(3, 2, [1.0], ("tdm", "acc"), 2 * CHUNK_TRIALS, 6, timings=timings)
    assert rates._worker_count() == timings["workers"] == default
    assert timings["draw_s"] > 0.0 and timings["metrics_s"] > 0.0
    # a many-core host gets the cap, one core one worker
    for usable in (64, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, usable=usable: set(range(usable)),
                            raising=False)
        assert rates._worker_count() == min(usable, rates.MAX_DEFAULT_WORKERS)


@pytest.mark.parametrize("num_trials,rhos,ran", [
    (100, [1.0, 2.0], 1),  # one block: one worker, whatever the SNRs
    (100, [1.0, 2.0, 3.0, 4.0, 5.0], 1),
    (3 * BLOCK_TRIALS, [1.0], 3),  # three blocks, one SNR
    (2 * CHUNK_TRIALS, [1.0], 8),
])
def test_timings_report_the_workers_that_ran(monkeypatch, num_trials, rhos, ran):
    monkeypatch.setenv(rates.WORKERS_ENV_VAR, "8")
    timings = {}
    mc_average_rates(3, 2, rhos, ("tdm", "acc"), num_trials, 6, timings=timings)
    assert timings["workers"] == ran


def test_one_worker_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker started a thread pool")

    monkeypatch.setenv(rates.WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(rates, "ThreadPoolExecutor", no_pool)
    estimates = mc_average_rates(4, 3, [0.5, 2.0], ("tdm", "mn", "acc"), 2 * CHUNK_TRIALS, 3)
    assert len(estimates) == 2


@pytest.mark.parametrize("num_trials", [100, 2000, 10_000, 100_000])
def test_draws_stay_within_a_block_of_the_trials_used(monkeypatch, num_trials):
    # the pilot is about a thirty-second of the trials, in whole blocks,
    # and every chunk draws only the blocks that hold its trials, however
    # its blocks are split between the workers
    pieces = []  # (substream, trials) of every draw; list.append is atomic

    def counting(seed):
        rng = substream(seed)

        def random(shape, out):  # (blocks, users, BLOCK_TRIALS, groups)
            pieces.append((seed.trial_index, shape[0] * shape[2]))
            return rng.random(shape, out=out)
        return SimpleNamespace(random=random, bit_generator=rng.bit_generator)

    monkeypatch.setattr(rates, "substream", counting)
    mc_average_rates(4, 3, [1.0], ("tdm", "acc"), num_trials, 9)
    drawn = {}  # trials drawn from each substream
    for index, trials in pieces:
        drawn[index] = drawn.get(index, 0) + trials
    pilot = max(BLOCK_TRIALS, num_trials // 32 // BLOCK_TRIALS * BLOCK_TRIALS)
    chunks = -(-num_trials // CHUNK_TRIALS)
    assert drawn[0] == pilot
    assert num_trials <= sum(drawn.values()) - pilot < num_trials + BLOCK_TRIALS
    assert sorted(drawn) == list(range(1 + chunks))


def test_trial_rates_are_not_views_of_a_reused_buffer():
    config = SystemConfig.from_gain(3, 4, avg_snr=2.0)
    first = trial_rates(config, Scheme.ACC, CHUNK_TRIALS + 300, base_seed=12)
    kept = first.copy()
    trial_rates(config, Scheme.ACC, 700, base_seed=13)
    trial_rates(SystemConfig.from_gain(5, 2, avg_snr=0.5), Scheme.MN, 500, base_seed=14)
    mc_average_rates(3, 4, [2.0, 8.0], ("tdm", "acc"), CHUNK_TRIALS + 300, 15)
    assert first.tobytes() == kept.tobytes()


_FRESH_ESTIMATE = """
from cachecast.rates import mc_average_rates
estimates = mc_average_rates({gain}, {users}, [0.1, 10.0], ("tdm", "mn", "acc"), {trials}, 5)
print(repr([(e.rates, e.relative_covariance) for e in estimates]))
"""


@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_shapes_estimated_in_turn_match_fresh_processes(monkeypatch, workers):
    # the buffers of one estimation leave nothing behind for the next: a
    # narrow shape, a wide one and the narrow one again give the bytes of
    # each shape estimated alone in a new process. Eight workers, more than
    # the cores, with frequent thread switches, would expose a buffer two
    # workers shared
    monkeypatch.setenv(rates.WORKERS_ENV_VAR, workers)
    trials = 5 * CHUNK_TRIALS + 300
    shapes = [(3, 2), (2, 9), (3, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        in_turn = [repr([(e.rates, e.relative_covariance) for e in mc_average_rates(
            gain, users, [0.1, 10.0], ("tdm", "mn", "acc"), trials, 5)]) for gain, users in shapes]
    finally:
        sys.setswitchinterval(interval)
    assert in_turn[0] == in_turn[2]
    for (gain, users), got in zip(shapes[:2], in_turn):
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_ESTIMATE.format(gain=gain, users=users, trials=trials)],
            capture_output=True, text=True, check=True, timeout=120)
        assert got == fresh.stdout.strip()


def test_gain_error_keeps_the_covariance_where_it_underflows():
    # estimates near 1e-160, whose squared errors and covariance underflow,
    # have the relative gain error of the same estimates near 1
    def pair(scale):
        numerator = RateEstimate(mean=2.0 * scale, std_err=2e-9 * scale, num_trials=1000)
        denominator = RateEstimate(mean=1.0 * scale, std_err=1e-9 * scale, num_trials=1000)
        return numerator, denominator

    correlation = 0.75
    covariance = correlation * 2e-9 * 1e-9
    in_range = effective_gain(*pair(1.0), covariance / 1.0 ** 2)
    deep = pair(1e-160)
    assert (2e-9 * 1e-160) ** 2 < sys.float_info.min  # the plain form would lose it
    # the covariance over the TDM mean squared is the in-range one
    gain = effective_gain(*deep, covariance)
    assert gain.value == in_range.value
    assert gain.std_err == pytest.approx(in_range.std_err, rel=1e-12)
    assert gain.std_err < effective_gain(*deep).std_err  # the correlation counts
    # an estimate over itself with its squared ratio has no error
    tdm = deep[1]
    ratio = tdm.std_err / tdm.mean
    assert effective_gain(tdm, tdm, ratio * ratio).std_err == 0.0


def test_shared_gains_keep_the_covariance_where_it_underflows():
    # far below 0 dB every metric is rho times a function of the draws, in
    # bits, so two SNRs a power of two apart give rates in that ratio and
    # the same gains; at 2^-531 (-1599 dB) the squared errors underflow
    mid, deep = (mc_average_rates(2, 2, [math.ldexp(1.0, exponent)], ("tdm", "mn", "acc"),
                                  1000, 3)[0] for exponent in (-100, -531))
    for scheme, rate in deep.rates.items():
        assert rate.mean == math.ldexp(mid.rates[scheme].mean, -431)
        assert rate.std_err == math.ldexp(mid.rates[scheme].std_err, -431)
    assert deep.rates[Scheme.TDM].std_err ** 2 < sys.float_info.min
    assert mid.rates[Scheme.TDM].std_err ** 2 > sys.float_info.min
    assert deep.gain("tdm").std_err == mid.gain("tdm").std_err == 0.0
    for scheme in ("mn", "acc"):
        gain = deep.gain(scheme)
        assert gain.value == mid.gain(scheme).value
        assert gain.std_err == pytest.approx(mid.gain(scheme).std_err, rel=1e-12)


def test_gain_error_counts_the_covariance():
    numerator = RateEstimate(mean=2.0, std_err=0.02, num_trials=1000)
    denominator = RateEstimate(mean=1.0, std_err=0.01, num_trials=1000)
    covariance = 0.5 * 0.02 * 0.01
    gain = effective_gain(numerator, denominator, covariance / denominator.mean ** 2)
    expected = math.sqrt(0.02 ** 2 + (2.0 * 0.01) ** 2 - 2 * 2.0 * covariance)
    assert gain.std_err == pytest.approx(expected, rel=1e-12)


IN_RANGE = st.floats(1e-30, 1e30)


@given(mean_a=IN_RANGE, mean_b=IN_RANGE, err_a=IN_RANGE, err_b=IN_RANGE,
       correlation=st.floats(-1.0, 1.0))
def test_gain_error_is_the_textbook_first_order_form(mean_a, mean_b, err_a, err_b,
                                                     correlation):
    # in range the one form, with the errors over the reference mean, is
    # sqrt(s_a^2 - 2 v c + v^2 s_b^2) / m_b for the covariance c, to
    # rounding of its three terms
    numerator = RateEstimate(mean=mean_a, std_err=err_a, num_trials=1000)
    denominator = RateEstimate(mean=mean_b, std_err=err_b, num_trials=1000)
    covariance = correlation * err_a * err_b
    gain = effective_gain(numerator, denominator, covariance / mean_b ** 2)
    value = mean_a / mean_b
    terms = (err_a ** 2, -2.0 * value * covariance, value ** 2 * err_b ** 2)
    textbook = math.sqrt(max(sum(terms), 0.0)) / mean_b
    magnitude = sum(abs(term) for term in terms) / mean_b ** 2
    # compared as variances: where the terms cancel, the square root would
    # turn their rounding into a larger relative error
    assert gain.std_err ** 2 == pytest.approx(textbook ** 2, rel=1e-13, abs=1e-13 * magnitude)
    ratio = err_b / mean_b
    assert effective_gain(denominator, denominator, ratio * ratio).std_err == 0.0
