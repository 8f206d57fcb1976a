"""Instantaneous rate metrics and Monte Carlo estimators of the average
rates of the TDM, XOR-multicast (MN) and aggregated (ACC) schemes.

Per-trial metrics (natural-log domain, single stage set by symmetry):

* TDM:        ln(1+SNR) of a lone user;
* MN:         ln(1+SNR) of the worst of `nominal_gain` served users;
* aggregated: worst per-group mean of ln(1+SNR) over `users_per_group`
              members, across `nominal_gain` groups.

Reported means carry the sum-rate prefactor nominal_gain/ln 2 (1/ln 2 for
TDM), in bits/s/Hz.

Estimates are deterministic functions of (config, scheme, num_trials,
base_seed): trials are evaluated in fixed-size chunks, each chunk drawing
from its own counter-derived substream, and partial moments are merged in a
fixed tree order, so the result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError, ParameterError
from .system import Scheme, SeedSpec, SnrMatrix, SystemConfig, substream

LN2 = math.log(2.0)

#: Trials per substream chunk. Part of the estimator definition: trial i
#: always lives at offset i % CHUNK of substream i // CHUNK.
CHUNK_TRIALS = 8192

WORKERS_ENV_VAR = "CACHECAST_WORKERS"


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean rate in bits/s/Hz with its standard error."""

    mean: float
    std_err: float
    num_trials: int
    scheme: Scheme

    def __post_init__(self):
        if self.num_trials < 1:
            raise ParameterError("num_trials must be positive")
        if self.std_err < 0 or not math.isfinite(self.mean):
            raise ParameterError("invalid estimate moments")


@dataclass(frozen=True)
class GainEstimate:
    """Ratio of a scheme's average rate to the TDM average rate."""

    value: float
    std_err: float
    numerator: RateEstimate
    denominator: RateEstimate


def inst_rate_mn(group_user_snrs: Sequence[float]) -> float:
    """Multicast rate of one XOR: log2(1 + worst served SNR)."""
    snrs = np.asarray(group_user_snrs, dtype=float)
    if snrs.ndim != 1 or len(snrs) == 0:
        raise ParameterError("group_user_snrs must be a nonempty 1-D collection")
    return float(np.log2(1.0 + np.min(snrs)))


def inst_rate_acc(stage: Sequence[int], snr) -> float:
    """Per-user rate of one aggregated stage: the worst group's mean
    log2(1+SNR) over its members. Reduces to inst_rate_mn when each group
    has a single user."""
    mat = snr.snr if isinstance(snr, SnrMatrix) else np.asarray(snr, dtype=float)
    stage = [int(g) for g in stage]
    if not all(0 <= g < mat.shape[0] for g in stage) or len(stage) == 0:
        raise ParameterError(f"stage {stage} invalid for {mat.shape[0]} groups")
    return float(np.log2(1.0 + mat[stage, :]).mean(axis=1).min())


def _resolve_workers(workers) -> int:
    if workers is None:
        workers = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ParameterError(f"worker count must be an integer, got {workers!r}") from None
    if count < 1:
        raise ParameterError(f"worker count must be >= 1, got {count}")
    return count


def _scheme_shape(config: SystemConfig, scheme: Scheme):
    """(groups, users, sum-rate prefactor) of the simulated stage."""
    g = config.nominal_gain
    if scheme is Scheme.ACC:
        return g, config.users_per_group, g / LN2
    if scheme is Scheme.MN:
        return g, 1, g / LN2
    return 1, 1, 1.0 / LN2


def _chunk_metrics(rho: float, groups: int, users: int, base_seed: int,
                   chunk_index: int, count: int) -> np.ndarray:
    """Natural-log metric for `count` trials of one substream chunk."""
    rng = substream(SeedSpec(base_seed=base_seed, trial_index=chunk_index))
    u = rng.random((count, groups, users))
    # ln(1 + SNR) with SNR = -rho ln(1-u), transformed in place: fresh
    # chunk-sized temporaries may go back to the OS after every chunk and
    # fault in again page by page on the next
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -rho
    np.log1p(u, out=u)
    return u.mean(axis=2).min(axis=1)


def _chunk_moments(args):
    rho, groups, users, base_seed, chunk_index, count = args
    v = _chunk_metrics(rho, groups, users, base_seed, chunk_index, count)
    mean = float(v.mean())
    m2 = float(np.sum((v - mean) ** 2))
    return count, mean, m2


def _merge_moments(a, b):
    n1, m1, s1 = a
    n2, m2, s2 = b
    n = n1 + n2
    delta = m2 - m1
    mean = m1 + delta * (n2 / n)
    s = s1 + s2 + delta * delta * (n1 * n2 / n)
    return n, mean, s


def _tree_reduce(parts):
    # fixed pairwise merge tree: result independent of evaluation order
    parts = list(parts)
    while len(parts) > 1:
        merged = []
        for i in range(0, len(parts) - 1, 2):
            merged.append(_merge_moments(parts[i], parts[i + 1]))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def _chunk_plan(rho, groups, users, base_seed, num_trials):
    plan = []
    for chunk_index, start in enumerate(range(0, num_trials, CHUNK_TRIALS)):
        count = min(CHUNK_TRIALS, num_trials - start)
        plan.append((rho, groups, users, base_seed, chunk_index, count))
    return plan


def mc_average_rate(config: SystemConfig, scheme: Scheme, num_trials: int,
                    base_seed: int, *, workers=None) -> RateEstimate:
    """Monte Carlo estimate of the scheme's average sum rate in bits/s/Hz.

    Deterministic for fixed (config, scheme, num_trials, base_seed)
    regardless of the worker count.
    """
    scheme = Scheme.parse(scheme)
    if not isinstance(num_trials, (int, np.integer)) or num_trials < 100:
        raise ParameterError(f"num_trials must be an integer >= 100, got {num_trials}")
    SeedSpec(base_seed=base_seed)  # validate range
    worker_count = _resolve_workers(workers)

    groups, users, prefactor = _scheme_shape(config, scheme)
    plan = _chunk_plan(config.avg_snr, groups, users, base_seed, int(num_trials))
    if worker_count == 1 or len(plan) == 1:
        parts = [_chunk_moments(args) for args in plan]
    else:
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            parts = list(pool.map(_chunk_moments, plan))
    n, mean, m2 = _tree_reduce(parts)
    if n < 2:
        raise ParameterError("at least two trials are required for a standard error")
    sample_var = m2 / (n - 1)
    return RateEstimate(
        mean=prefactor * mean,
        std_err=prefactor * math.sqrt(sample_var / n),
        num_trials=n,
        scheme=scheme,
    )


def trial_rates(config: SystemConfig, scheme: Scheme, num_trials: int,
                base_seed: int) -> np.ndarray:
    """Per-trial rate metric in bits/s/Hz, in trial order.

    Exposes the exact per-realization values behind mc_average_rate;
    intended for coupled-path comparisons and diagnostics.
    """
    scheme = Scheme.parse(scheme)
    if num_trials < 1:
        raise ParameterError("num_trials must be positive")
    groups, users, prefactor = _scheme_shape(config, scheme)
    plan = _chunk_plan(config.avg_snr, groups, users, base_seed, int(num_trials))
    chunks = [_chunk_metrics(rho, g, u, seed, idx, count)
              for rho, g, u, seed, idx, count in plan]
    return prefactor * np.concatenate(chunks)


def effective_gain(scheme_rate: RateEstimate, tdm_rate: RateEstimate) -> GainEstimate:
    """Speed-up of a scheme over TDM, with first-order error propagation."""
    if not (tdm_rate.mean > 0):
        raise NumericsError("TDM reference rate must be positive to form a gain")
    value = scheme_rate.mean / tdm_rate.mean
    std_err = math.sqrt(
        (scheme_rate.std_err / tdm_rate.mean) ** 2
        + (scheme_rate.mean * tdm_rate.std_err / tdm_rate.mean ** 2) ** 2)
    return GainEstimate(value=value, std_err=std_err,
                        numerator=scheme_rate, denominator=tdm_rate)
