"""The shared integer and positive-finite checks, at their edges, through the
public entry points that use them."""

import math
import os
from unittest import mock

import numpy as np
import pytest

from cachecast import analysis, numerics, rates, scheduling
from cachecast.errors import ParameterError
from cachecast.experiments import ExperimentSpec, validate_system
from cachecast.system import SeedSpec, SystemConfig, snr_cdf

CONFIG = SystemConfig.from_gain(2, 2, avg_snr=1.0)


def _with_workers(value):
    with mock.patch.dict(os.environ, {rates.WORKERS_ENV_VAR: str(value)}):
        return rates.mc_average_rate(CONFIG, "tdm", 100, 1)


#: entry point -> (call on one value, values it rejects beyond nan, +-inf and
#: 3.7, an accepted numpy integer)
INTEGER_INPUTS = {
    # with one cache state, K is the users_per_group the constructor checks
    "num_users": (lambda v: SystemConfig(nominal_gain=1, users_per_group=v, avg_snr=1.0),
                  [0], np.int64(4)),
    "nominal_gain": (lambda v: SystemConfig.from_gain(v, 2, 1.0), [0], np.int64(2)),
    "users_per_group": (lambda v: SystemConfig.from_gain(2, v, 1.0), [0], np.int64(2)),
    "num_cache_states": (lambda v: SystemConfig.from_gain(2, 2, 1.0, num_cache_states=v),
                         [1], np.int64(3)),
    "base_seed": (lambda v: SeedSpec(base_seed=v), [-1, 2 ** 64], np.uint64(2 ** 64 - 1)),
    "trial_index": (lambda v: SeedSpec(base_seed=1, trial_index=v), [-1], np.int64(0)),
    "mc_num_trials": (lambda v: rates.mc_average_rate(CONFIG, "tdm", v, 1), [99],
                      np.int64(100)),
    "spec_num_trials": (lambda v: ExperimentSpec("rho_db", (0.0,), analytics=("exact-mn",),
                                                 num_trials=v), [0, 99], np.int64(100)),
    "spec_base_seed": (lambda v: ExperimentSpec("rho_db", (0.0,), analytics=("exact-mn",),
                                                base_seed=v), [-1, 2 ** 64], np.int64(0)),
    "trial_rates": (lambda v: rates.trial_rates(CONFIG, "tdm", v, 1), [0], np.int64(1)),
    "workers": (_with_workers, [0], np.int64(2)),
    "gauss_hermite_order": (numerics.gauss_hermite_rule, [0, 65], np.int64(7)),
    "psi_gain": (lambda v: analysis.psi(v, 2), [0], np.int64(2)),
    "large_b_users": (lambda v: analysis.acc_rate_large_b(1.0, v, 2), [1], np.int64(2)),
    "estimate_num_trials": (lambda v: rates.RateEstimate(mean=1.0, std_err=0.0, num_trials=v),
                            [0], np.int64(1)),
    "validate_num_trials": (lambda v: validate_system(CONFIG, num_trials=v), [999, 1500.5],
                            np.int64(1000)),
}

#: entry point -> call on one value, which must be positive and finite
POSITIVE_INPUTS = {
    "exp_scaled_e1": numerics.exp_scaled_e1,
    "log_char_moment": lambda v: numerics.log_char_moment(1.0, v),
    "second_moment_log1p": numerics.second_moment_log1p,
    "snr_cdf": lambda v: snr_cdf(1.0, v),
    "avg_snr": lambda v: SystemConfig(nominal_gain=2, users_per_group=2, num_cache_states=4,
                                      avg_snr=v),
    "rho": lambda v: analysis.exact_mn_rate(v, 2),
    "subfile_size": lambda v: scheduling.acc_stage_timeline((0, 1), [[1.0], [2.0]], v),
    "xor_size": lambda v: scheduling.mn_stage_delay([1.0, 2.0], v),
}


@pytest.mark.parametrize("name", [*INTEGER_INPUTS, *POSITIVE_INPUTS])
def test_shared_checks_reject_every_edge_and_accept_numpy_values(name):
    if name in INTEGER_INPUTS:
        call, rejected, accepted = INTEGER_INPUTS[name]
        rejected = [math.nan, math.inf, -math.inf, 3.7, *rejected]
    else:
        call, accepted = POSITIVE_INPUTS[name], 3.7
        rejected = [math.nan, math.inf, -math.inf, 0.0]
    for value in rejected:
        with pytest.raises(ParameterError):
            call(value)
    call(accepted)
