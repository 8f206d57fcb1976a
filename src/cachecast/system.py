"""System topology, channel statistics, and reproducible fading realizations.

The broadcast channel is parameterized directly by the average SNR ``rho``
(linear scale); transmit power and channel coefficients never appear
separately because only their product enters any rate expression. Fading is
quasi-static symmetric Rayleigh, so per-user instantaneous SNRs are i.i.d.
exponential with mean ``rho``.

Sampling is deterministic: a :class:`SeedSpec` names a substream, and the
realization is a pure function of (config, seed) independent of scheduling
or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ParameterError


class Scheme(str, Enum):
    """Delivery discipline."""

    TDM = "tdm"
    MN = "mn"
    ACC = "acc"

    @classmethod
    def parse(cls, text) -> "Scheme":
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise ParameterError(
                f"unknown scheme {text!r}; expected one of "
                f"{[m.value for m in cls]}") from None


def snr_from_db(rho_db: float) -> float:
    """Convert an average SNR from dB to linear scale."""
    return 10.0 ** (float(rho_db) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Topology and channel parameters.

    num_users:        K, total users (integer multiple of num_cache_states)
    num_cache_states: number of distinct cache contents; users sharing one
                      form a group of K/num_cache_states members
    cache_fraction:   fraction of the library each cache stores; the product
                      num_cache_states * cache_fraction must be an integer
    library_size:     N, at least K so demands can be distinct
    avg_snr:          mean instantaneous SNR (linear)
    """

    num_users: int
    num_cache_states: int
    cache_fraction: float | Fraction
    library_size: int
    avg_snr: float

    def __post_init__(self):
        k, lam, n = self.num_users, self.num_cache_states, self.library_size
        for name, value in (("num_users", k), ("num_cache_states", lam),
                            ("library_size", n)):
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value}")
        if k % lam != 0:
            raise ParameterError(
                f"num_users={k} must be an integer multiple of num_cache_states={lam}")
        gamma = self.cache_fraction
        gamma_f = float(gamma)
        if not 0.0 <= gamma_f <= 1.0:
            raise ParameterError(f"cache_fraction must lie in [0, 1], got {gamma}")
        t = lam * gamma_f
        if abs(t - round(t)) > 1e-9:
            raise ParameterError(
                f"num_cache_states * cache_fraction must be an integer, got {t}")
        if round(t) + 1 > lam:
            raise ParameterError(
                f"nominal gain {round(t) + 1} exceeds the number of cache states {lam}; "
                f"cache_fraction must be below 1")
        if n < k:
            raise ParameterError(
                f"library_size={n} must be at least num_users={k}")
        if not (self.avg_snr > 0) or not math.isfinite(self.avg_snr):
            raise ParameterError(f"avg_snr must be positive and finite, got {self.avg_snr}")

    @property
    def users_per_group(self) -> int:
        return self.num_users // self.num_cache_states

    @property
    def cache_subset_size(self) -> int:
        """Size of the cache-state subset labelling each file segment."""
        return round(self.num_cache_states * float(self.cache_fraction))

    @property
    def nominal_gain(self) -> int:
        """Ideal multicast speed-up: cache_subset_size + 1 simultaneous groups."""
        return self.cache_subset_size + 1

    @property
    def cache_size(self) -> float:
        """Per-cache storage in units of files."""
        return float(self.cache_fraction) * self.library_size

    @classmethod
    def from_gain(cls, nominal_gain: int, users_per_group: int, avg_snr: float,
                  library_size: int | None = None,
                  num_cache_states: int | None = None) -> "SystemConfig":
        """Topology realizing a target nominal gain.

        By default uses nominal_gain cache states with cache_fraction
        (nominal_gain-1)/nominal_gain, the smallest system where a single
        transmission stage serves every group; pass num_cache_states >=
        nominal_gain for a larger system with the same gain.
        """
        if not isinstance(nominal_gain, (int, np.integer)) or nominal_gain < 1:
            raise ParameterError(f"nominal_gain must be a positive integer, got {nominal_gain}")
        if not isinstance(users_per_group, (int, np.integer)) or users_per_group < 1:
            raise ParameterError(
                f"users_per_group must be a positive integer, got {users_per_group}")
        states = int(num_cache_states) if num_cache_states is not None else int(nominal_gain)
        if states < nominal_gain:
            raise ParameterError(
                f"num_cache_states={states} cannot be below nominal_gain={nominal_gain}")
        k = states * int(users_per_group)
        return cls(
            num_users=k,
            num_cache_states=states,
            cache_fraction=Fraction(int(nominal_gain) - 1, states),
            library_size=int(library_size) if library_size is not None else k,
            avg_snr=float(avg_snr),
        )


@dataclass(frozen=True)
class SeedSpec:
    """Names one substream of the global random source.

    Distinct (base_seed, trial_index) pairs yield statistically independent
    streams; the derivation is splittable, so results never depend on how
    trials are distributed over workers.
    """

    base_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not isinstance(self.base_seed, (int, np.integer)) or not 0 <= self.base_seed < 2 ** 64:
            raise ParameterError(
                f"base_seed must be an integer in [0, 2^64), got {self.base_seed}")
        if not isinstance(self.trial_index, (int, np.integer)) or self.trial_index < 0:
            raise ParameterError(
                f"trial_index must be a nonnegative integer, got {self.trial_index}")


def substream(seed: SeedSpec) -> np.random.Generator:
    """Counter-based generator for the substream named by ``seed``."""
    seq = np.random.SeedSequence(int(seed.base_seed), spawn_key=(int(seed.trial_index),))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SnrMatrix:
    """One channel realization: instantaneous SNR per (group, user)."""

    snr: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.snr, dtype=float)
        if arr.ndim != 2:
            raise ParameterError(f"snr must be a 2-D array, got shape {arr.shape}")
        # numpy's min and max propagate NaN, which then fails both comparisons
        if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
            raise ParameterError("snr entries must be finite and nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "snr", arr)

    @property
    def num_groups(self) -> int:
        return self.snr.shape[0]

    @property
    def users_per_group(self) -> int:
        return self.snr.shape[1]


def sample_snr(config: SystemConfig, seed: SeedSpec) -> SnrMatrix:
    """Draw one quasi-static realization for the full topology.

    Entries are i.i.d. exponential with mean ``config.avg_snr``, generated
    by inverse CDF from the substream's uniform output so the realization
    is bit-reproducible for a given (config, seed).
    """
    rng = substream(seed)
    shape = (config.num_cache_states, config.users_per_group)
    u = rng.random(shape)
    return SnrMatrix(snr=-config.avg_snr * np.log1p(-u))


def snr_cdf(x: float, rho: float) -> float:
    """P(SNR <= x) = 1 - exp(-x/rho) for the Rayleigh-faded link."""
    if not (rho > 0) or not math.isfinite(rho):
        raise ParameterError(f"rho must be positive and finite, got {rho}")
    if not (x >= 0):
        raise ParameterError(f"x must be nonnegative, got {x}")
    return -math.expm1(-x / rho)
