import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cachecast import experiments, rates, system
from cachecast.errors import ParameterError
from cachecast.experiments import validate_system
from cachecast.rates import BLOCK_TRIALS
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
    base = dict(nominal_gain=2, users_per_group=2, num_cache_states=4, avg_snr=1.0)
    base.update(overrides)
    return SystemConfig(**base)


# ---------------------------------------------------------------- config

def test_derived_quantities():
    config = make_config()
    assert config.num_users == config.library_size == 8
    assert config.cache_subset_size == 1
    assert config.cache_fraction == Fraction(1, 4)


def test_derived_properties_on_a_grid():
    # K = Lambda B users and N = K files, with gain - 1 of the Lambda cache
    # states in each segment's label; the fraction is exact
    def derived(gain, users, states):
        config = SystemConfig(nominal_gain=gain, users_per_group=users,
                              num_cache_states=states, avg_snr=1.0)
        assert type(config.cache_fraction) is Fraction
        return (config.num_users, config.library_size, config.cache_subset_size,
                config.cache_fraction)

    for gain in range(1, 6):
        for users in range(1, 4):
            for states in range(gain, 9):
                assert derived(gain, users, states) == (
                    states * users, states * users, gain - 1, Fraction(gain - 1, states))
    assert derived(1, 1, 1) == (1, 1, 0, 0)
    assert derived(2, 3, 4) == (12, 12, 1, Fraction(1, 4))
    assert derived(4, 2, 6) == (12, 12, 3, Fraction(1, 2))
    assert derived(5, 3, 8) == (24, 24, 4, Fraction(1, 2))


def test_from_gain_builds_minimal_topology():
    config = SystemConfig.from_gain(4, 6, avg_snr=2.0)
    assert config == SystemConfig(nominal_gain=4, users_per_group=6, avg_snr=2.0,
                                  num_cache_states=4)
    assert config.num_cache_states == 4
    assert config.num_users == 24
    assert config.nominal_gain == 4
    assert config.users_per_group == 6
    assert config.cache_fraction == Fraction(3, 4)


def test_positional_construction_is_a_type_error():
    # a call in the old five-field order (K, Lambda, gamma, N, rho) must not
    # be read as (gain, B, rho, ...), so every positional call is rejected
    with pytest.raises(TypeError):
        SystemConfig(8, 4, Fraction(1, 4), 8, 1.0)
    with pytest.raises(TypeError):
        SystemConfig(2, 2, 1.0)


@pytest.mark.parametrize("overrides", [
    dict(nominal_gain=0),                   # a transmission serves no group
    dict(users_per_group=0),
    dict(nominal_gain=5),                   # gain above the 4 cache states
    dict(nominal_gain=2.0),                 # integral float, not an int
    dict(users_per_group=1.5),
    dict(avg_snr=0.0),
    dict(avg_snr=float("nan")),
    dict(num_cache_states=0),
])
def test_invalid_configs_are_rejected(overrides):
    with pytest.raises(ParameterError):
        make_config(**overrides)


def test_zero_cache_fraction_is_the_uncoded_system():
    config = make_config(nominal_gain=1)
    assert config.cache_subset_size == 0
    assert config.cache_fraction == 0


def test_scheme_parsing():
    assert Scheme.parse("ACC") is Scheme.ACC
    assert Scheme.parse(Scheme.MN) is Scheme.MN
    with pytest.raises(ParameterError):
        Scheme.parse("cdma")


def test_snr_from_db():
    assert snr_from_db(0.0) == 1.0
    assert snr_from_db(10.0) == pytest.approx(10.0)
    assert snr_from_db(-30.0) == pytest.approx(1e-3)
    for rho_db in (4000.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            snr_from_db(rho_db)


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


@pytest.mark.parametrize("base_seed,trial_index", [
    (0, 0), (11, 1), (2 ** 64 - 1, 8193),
    # a base seed's last one-word and first two-word values, and trial
    # indices of two words
    (2 ** 32 - 1, 2 ** 32), (2 ** 32, 2 ** 40 + 3)])
def test_substream_is_pcg64_on_the_spawned_seed_sequence(base_seed, trial_index):
    seq = np.random.SeedSequence(base_seed, spawn_key=(trial_index,))
    expected = np.random.Generator(np.random.PCG64(seq)).random(1000)
    got = substream(SeedSpec(base_seed=base_seed, trial_index=trial_index)).random(1000)
    assert got.tobytes() == expected.tobytes()


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
    assert not matrix.snr.flags.writeable
    with pytest.raises(ValueError):
        matrix.snr[0, 0] = 5.0


def test_snr_matrix_checks_and_copies_caller_input():
    with pytest.raises(ParameterError):
        SnrMatrix(snr=[[float("nan")]])
    with pytest.raises(ParameterError):
        SnrMatrix(snr=[[1.0, -2.0]])
    given = np.ones((2, 3))
    matrix = SnrMatrix(snr=given)
    given[0, 0] = 5.0
    assert given.flags.writeable
    assert not matrix.snr.flags.writeable and matrix.snr[0, 0] == 1.0


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


def test_every_draw_is_the_textbook_inverse_cdf_bit_for_bit(monkeypatch):
    # sample_snr, a Monte Carlo chunk and validate's first draw all go
    # through system.exponentials; each must equal -rho ln(1-u) computed
    # out of place from the same substream's uniforms
    def textbook(seed, shape, rho):
        return -rho * np.log1p(-substream(seed).random(shape))

    config = SystemConfig.from_gain(3, 4, avg_snr=2.5)
    seed = SeedSpec(base_seed=77, trial_index=3)
    assert sample_snr(config, seed).snr.tobytes() == textbook(seed, (3, 4), 2.5).tobytes()

    # drawn into the front of a buffer made for longer chunks
    buffer = np.full(4 * 3 * BLOCK_TRIALS * 5, np.nan)
    chunk = rates._exponentials(19, 2, 300, 5, 3, buffer)
    assert np.shares_memory(chunk, buffer)
    expected = textbook(SeedSpec(base_seed=19, trial_index=2), (2, 3, BLOCK_TRIALS, 5), 1.0)
    assert chunk.tobytes() == expected.tobytes()

    draws = []

    def recorded(*args):
        draws.append(system.exponentials(*args))
        return draws[-1]

    monkeypatch.setattr(experiments, "exponentials", recorded)
    validate_system(config, num_trials=1000, base_seed=8)
    assert draws[0].tobytes() == textbook(SeedSpec(base_seed=8), 1000, 2.5).tobytes()


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
