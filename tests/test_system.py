import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cachecast.errors import ParameterError
from cachecast.system import (
    Scheme,
    SeedSpec,
    SnrMatrix,
    SystemConfig,
    sample_snr,
    snr_cdf,
    snr_from_db,
    substream,
)


def make_config(**overrides):
    base = dict(num_users=8, num_cache_states=4, cache_fraction=Fraction(1, 4),
                library_size=8, avg_snr=1.0)
    base.update(overrides)
    return SystemConfig(**base)


# ---------------------------------------------------------------- config

def test_derived_quantities():
    config = make_config()
    assert config.users_per_group == 2
    assert config.cache_subset_size == 1
    assert config.nominal_gain == 2
    assert config.cache_size == pytest.approx(2.0)


def test_from_gain_builds_minimal_topology():
    config = SystemConfig.from_gain(4, 6, avg_snr=2.0)
    assert config.num_cache_states == 4
    assert config.num_users == 24
    assert config.nominal_gain == 4
    assert config.users_per_group == 6
    assert config.cache_fraction == Fraction(3, 4)


@pytest.mark.parametrize("overrides", [
    dict(num_users=7),                      # not a multiple of cache states
    dict(cache_fraction=0.3),               # non-integer subset size
    dict(cache_fraction=1.0),               # gain would exceed cache states
    dict(cache_fraction=-0.25),
    dict(library_size=4),                   # smaller than num_users
    dict(avg_snr=0.0),
    dict(avg_snr=float("nan")),
    dict(num_cache_states=0),
])
def test_invalid_configs_are_rejected(overrides):
    with pytest.raises(ParameterError):
        make_config(**overrides)


def test_zero_cache_fraction_is_the_uncoded_system():
    config = make_config(cache_fraction=0)
    assert config.nominal_gain == 1


def test_scheme_parsing():
    assert Scheme.parse("ACC") is Scheme.ACC
    assert Scheme.parse(Scheme.MN) is Scheme.MN
    with pytest.raises(ParameterError):
        Scheme.parse("cdma")


def test_snr_from_db():
    assert snr_from_db(0.0) == 1.0
    assert snr_from_db(10.0) == pytest.approx(10.0)
    assert snr_from_db(-30.0) == pytest.approx(1e-3)


# ---------------------------------------------------------------- seeding

def test_seed_spec_validation():
    with pytest.raises(ParameterError):
        SeedSpec(base_seed=-1)
    with pytest.raises(ParameterError):
        SeedSpec(base_seed=2 ** 64)
    with pytest.raises(ParameterError):
        SeedSpec(base_seed=3, trial_index=-2)


def test_substreams_are_reproducible_and_distinct():
    a1 = substream(SeedSpec(base_seed=11, trial_index=0)).random(8)
    a2 = substream(SeedSpec(base_seed=11, trial_index=0)).random(8)
    b = substream(SeedSpec(base_seed=11, trial_index=1)).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ---------------------------------------------------------------- sampling

def test_sampling_is_bit_reproducible():
    config = make_config()
    seed = SeedSpec(base_seed=77, trial_index=3)
    first = sample_snr(config, seed)
    second = sample_snr(config, seed)
    assert np.array_equal(first.snr, second.snr)
    assert first.snr.shape == (4, 2)


def test_snr_matrix_is_read_only():
    matrix = sample_snr(make_config(), SeedSpec(base_seed=1))
    with pytest.raises(ValueError):
        matrix.snr[0, 0] = 5.0


def test_snr_matrix_rejects_bad_entries():
    with pytest.raises(ParameterError):
        SnrMatrix(snr=np.array([[1.0, -0.5]]))
    with pytest.raises(ParameterError):
        SnrMatrix(snr=np.array([1.0, 2.0]))


@pytest.mark.parametrize("snr", [
    [[1.0, float("nan")]],
    [[1.0, float("inf")]],
    [[float("-inf"), 1.0]],
    [[0.0, -1e-300]],
    np.ones((2, 2, 2)),
])
def test_snr_matrix_rejects_nonfinite_negative_and_misshapen_input(snr):
    with pytest.raises(ParameterError):
        SnrMatrix(snr=np.array(snr))


@pytest.mark.parametrize("shape", [(2, 3), (0, 3)])
def test_snr_matrix_accepts_zeros_and_empty_matrices(shape):
    matrix = SnrMatrix(snr=np.zeros(shape))
    assert matrix.snr.shape == shape
    assert not matrix.snr.any()


def test_sample_mean_obeys_the_law_of_large_numbers():
    config = SystemConfig.from_gain(1, 1, avg_snr=1.0)
    rng = substream(SeedSpec(base_seed=2024, trial_index=0))
    draws = -config.avg_snr * np.log1p(-rng.random(1_000_000))
    assert abs(draws.mean() - 1.0) < 0.003


def test_empirical_cdf_at_the_mean():
    rng = substream(SeedSpec(base_seed=55, trial_index=0))
    rho = 2.5
    draws = -rho * np.log1p(-rng.random(1_000_000))
    target = 1.0 - math.exp(-1.0)
    assert abs(np.mean(draws <= rho) - target) < 0.002


# ---------------------------------------------------------------- cdf

def test_cdf_boundary_and_median():
    assert snr_cdf(0.0, 3.0) == 0.0
    assert snr_cdf(3.0 * math.log(2.0), 3.0) == pytest.approx(0.5, rel=1e-14)


def test_cdf_spot_value():
    assert snr_cdf(2.0, 1.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)
    assert snr_cdf(2.0, 1.0) == pytest.approx(0.8646647, abs=1e-7)


@given(st.floats(min_value=0, max_value=50), st.floats(min_value=0.01, max_value=20),
       st.floats(min_value=0.1, max_value=100))
def test_cdf_monotone_in_x(x, dx, rho):
    assert snr_cdf(x, rho) <= snr_cdf(x + dx, rho) <= 1.0


def test_cdf_domain_errors():
    with pytest.raises(ParameterError):
        snr_cdf(-1.0, 1.0)
    with pytest.raises(ParameterError):
        snr_cdf(1.0, 0.0)


# ---------------------------------------------------------------- distributional structure

def test_minimum_over_served_groups_is_exponential():
    # min of |G| unit-mean exponentials ~ Exp(mean rho/|G|)
    gain, rho, n = 5, 2.0, 100_000
    rng = substream(SeedSpec(base_seed=101, trial_index=0))
    mins = (-rho * np.log1p(-rng.random((n, gain)))).min(axis=1)
    result = stats.kstest(mins, "expon", args=(0, rho / gain))
    assert result.statistic < 1.628 / math.sqrt(n)  # 1% critical value


def test_group_sum_is_gamma_distributed():
    users, rho, n = 6, 0.7, 100_000
    rng = substream(SeedSpec(base_seed=202, trial_index=0))
    sums = (-rho * np.log1p(-rng.random((n, users)))).sum(axis=1)
    result = stats.kstest(sums, "gamma", args=(users, 0, rho))
    assert result.statistic < 1.628 / math.sqrt(n)
