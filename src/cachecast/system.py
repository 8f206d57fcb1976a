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

from .errors import ParameterError, check_int, check_positive


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
    """Convert an average SNR from dB to linear scale, which must be finite."""
    try:
        rho = 10.0 ** (float(rho_db) / 10.0)
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise ParameterError(f"rho_db={rho_db} dB gives a non-finite linear SNR")
    return rho


@dataclass(frozen=True, kw_only=True)
class SystemConfig:
    """Topology and channel parameters; the rest of the topology follows.

    nominal_gain:     t+1, the number of groups each transmission serves
    users_per_group:  B, users sharing one cache state
    avg_snr:          mean instantaneous SNR (linear)
    num_cache_states: Lambda >= nominal_gain; None means nominal_gain cache states
    """

    nominal_gain: int
    users_per_group: int
    avg_snr: float
    num_cache_states: int | None = None

    def __post_init__(self):
        gain = check_int(self.nominal_gain, "nominal_gain")
        states = gain if self.num_cache_states is None else self.num_cache_states
        for name, value in (
                ("nominal_gain", gain),
                ("users_per_group", check_int(self.users_per_group, "users_per_group")),
                ("num_cache_states", check_int(states, "num_cache_states", minimum=gain)),
                ("avg_snr", check_positive(self.avg_snr, "avg_snr"))):
            object.__setattr__(self, name, value)

    @property
    def num_users(self) -> int:
        return self.num_cache_states * self.users_per_group

    @property
    def library_size(self) -> int:
        """N = K, the fewest files that let every demand be distinct."""
        return self.num_users

    @property
    def cache_subset_size(self) -> int:
        """Size of the cache-state subset labelling each file segment."""
        return self.nominal_gain - 1

    @property
    def cache_fraction(self) -> Fraction:
        """Fraction of the library each cache stores."""
        return Fraction(self.cache_subset_size, self.num_cache_states)

    @classmethod
    def from_gain(cls, nominal_gain: int, users_per_group: int, avg_snr: float,
                  num_cache_states: int | None = None) -> "SystemConfig":
        """The constructor, with positional arguments."""
        return cls(nominal_gain=nominal_gain, users_per_group=users_per_group,
                   avg_snr=avg_snr, num_cache_states=num_cache_states)


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
        base, index = self.base_seed, self.trial_index
        # two Python ints in range pass without check_int's two calls
        if not (type(base) is int and type(index) is int
                and 0 <= base < 2 ** 64 and index >= 0):
            check_int(base, "base_seed", minimum=0, maximum=2 ** 64 - 1)
            check_int(index, "trial_index", minimum=0)


_WORD = 0xFFFFFFFF


def substream(seed: SeedSpec) -> np.random.Generator:
    """PCG64 generator for the substream named by ``seed``: the seed
    sequence of ``base_seed`` spawned at key ``(trial_index,)``.

    The sequence is built from the entropy words numpy would assemble for
    that spawn: each integer split into 32-bit words, least significant
    first, the base seed's padded with zeros to the pool size of 4 (a seed
    below 2^64 has at most 2), then the trial index's. numpy fixes a
    SeedSequence's output for given entropy (NEP 19), so the stream is the
    spawned one. Handing numpy the words skips its per-integer coercion,
    which took longer than building the sequence from them.
    """
    base, index = int(seed.base_seed), int(seed.trial_index)
    words = [base & _WORD, base >> 32, 0, 0, index & _WORD]
    while index := index >> 32:
        words.append(index & _WORD)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _real_array(values) -> np.ndarray | None:
    """`values` as a float64 array (`values` itself where it is one), or
    None where they are ragged, not numbers, or complex, whose cast would
    drop the imaginary part."""
    try:
        arr = np.asarray(values)
        return None if arr.dtype.kind == "c" else arr.astype(float, copy=False)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class SnrMatrix:
    """One channel realization: instantaneous SNR per (group, user)."""

    snr: np.ndarray

    def __post_init__(self):
        arr = _real_array(self.snr)
        if arr is None:
            raise ParameterError("snr must be an array of real numbers")
        if arr.ndim != 2:
            raise ParameterError(f"snr must be a 2-D array, got shape {arr.shape}")
        # numpy's min and max propagate NaN, which then fails both comparisons
        if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
            raise ParameterError("snr entries must be finite and nonnegative")
        self._own(arr.copy())

    def _own(self, arr: np.ndarray) -> "SnrMatrix":
        """Hold `arr` itself, made read-only; the caller gives it up."""
        arr.setflags(write=False)
        object.__setattr__(self, "snr", arr)
        return self


def exponentials(rng: np.random.Generator, shape, mean: float = 1.0,
                 out: np.ndarray | None = None) -> np.ndarray:
    """I.i.d. exponentials with the given mean: the package's one channel
    draw, -mean ln(1-u) by inverse CDF from the generator's uniforms u.
    Computed in place, in `out` (a C-contiguous float64 array of that
    shape) when given: a fresh temporary of a Monte Carlo chunk's size may
    go back to the OS after every chunk and fault in again on the next."""
    e = rng.random(shape, out=out)
    return np.multiply(np.log1p(np.negative(e, out=e), out=e), -mean, out=e)


def sample_snr(config: SystemConfig, seed: SeedSpec) -> SnrMatrix:
    """Draw one quasi-static realization for the full topology.

    Entries are i.i.d. exponential with mean ``config.avg_snr``, drawn by
    ``exponentials`` from the substream, so the realization is
    bit-reproducible for a given (config, seed).
    """
    shape = (config.num_cache_states, config.users_per_group)
    # a fresh draw is finite and nonnegative: own it, unchecked and uncopied
    draw = exponentials(substream(seed), shape, config.avg_snr)
    return object.__new__(SnrMatrix)._own(draw)


def snr_cdf(x: float, rho: float) -> float:
    """P(SNR <= x) = 1 - exp(-x/rho) for the Rayleigh-faded link."""
    check_positive(rho, "rho")
    if not (x >= 0):
        raise ParameterError(f"x must be nonnegative, got {x}")
    return -math.expm1(-x / rho)
