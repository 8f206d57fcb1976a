"""Monte Carlo estimators of the average rates of the TDM, XOR-multicast
(MN) and aggregated (ACC) schemes.

Per-trial metrics (natural-log domain, single stage set by symmetry):

* TDM:        ln(1+SNR) of a lone user;
* MN:         ln(1+SNR) of the worst of `nominal_gain` served users;
* aggregated: worst per-group mean of ln(1+SNR) over `users_per_group`
              members, across `nominal_gain` groups.

Reported means carry the sum-rate prefactor nominal_gain/ln 2 (1/ln 2 for
TDM), in bits/s/Hz.

One estimator serves every scheme and every SNR of a (gain,
users_per_group) shape. Each chunk of trials draws one array of standard
exponentials E = -ln(1-u), as wide as the widest requested scheme and
laid out (blocks, users, trials, groups) in blocks of BLOCK_TRIALS trials:
TDM reads user 0 of group 0, MN user 0 of every group, ACC the whole
array. Only the metrics depend on the SNR, so all schemes and SNRs share
their draws, and each takes one log1p per trial: TDM and MN are
ln(1 + rho c) of their controls c below, and ACC is ln(1 + p) / users
of the smallest group's p = prod(1 + rho E) - 1, built user by user as
p += (1 + p) E rho. That is within (4 users + 6) 2^-53 relative of the
worst group's mean of ln(1 + rho E) at any SNR (_acc_rows).

Each metric is corrected by a control variate: the same metric on the
linear-SNR scale, divided by rho (E of the lone user, the smallest E of the
served users, the smallest group mean of E). Their exact means are the
paper's low-SNR forms over rho: 1, 1/gain and psi(gain, users)/users. The
coefficients beta come from a pilot chunk of about a thirty-second of the
trials on substream 0, which no estimate chunk uses (chunk i draws from
substream i + 1), so the estimates stay unbiased. The pilot runs first;
every estimate chunk then averages the residual
r = metric - beta (control - its mean), the textbook control-variate
estimator (Glasserman 2004, section 4.1), whose spread is the standard
error.

Estimates are deterministic functions of (gain, users_per_group, widest
requested scheme, rho, num_trials, base_seed): every chunk returns the mean
and centred co-moments of its residuals at each SNR, and these merge in a
fixed tree order, so the result is bit-identical for any worker count and
does not depend on which other SNRs are estimated alongside.

The workers split each chunk into runs of blocks. Each draws its run from
its own generator on the chunk's substream, advanced past the earlier
blocks (PCG64 gives one output per double and jumps n outputs ahead in
O(log n) steps, so the pieces hold the bits of one draw), then builds its
blocks' controls and every SNR's metrics, which are elementwise in the
trials, so no split changes a bit. Then the calling thread, itself one of
the workers, takes each SNR's moments from the whole chunk. By default
there are as many workers as usable cores, but at most
MAX_DEFAULT_WORKERS, the most that have been measured.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from . import analysis
from .errors import NumericsError, ParameterError, check_int
from .system import Scheme, SeedSpec, SystemConfig, exponentials, substream

LN2 = math.log(2.0)

#: Trials per substream chunk. Part of the estimator definition: trial i
#: always lives at offset i % CHUNK of substream 1 + i // CHUNK.
CHUNK_TRIALS = 8192

#: Trials per block: a chunk draws whole blocks, so at most
#: BLOCK_TRIALS - 1 trials are drawn beyond those used.
BLOCK_TRIALS = 256

#: Substream of the pilot chunk that fixes the control-variate coefficients.
PILOT_SUBSTREAM = 0

WORKERS_ENV_VAR = "CACHECAST_WORKERS"

#: Most workers by default: the split of a chunk has been timed on two
#: cores only. Beyond that a worker draws only a few blocks, each piece
#: seeding its own generator, and thread counts from the CPU affinity
#: ignore CPU quotas. CACHECAST_WORKERS sets any count.
MAX_DEFAULT_WORKERS = 2

#: Most elements of one ACC metric call: a worker stacks the SNRs that
#: share a _block_users step into one product of up to this size, long
#: enough that two threads' calls do not contend on the interpreter lock.
STACK_ELEMENTS = 2 ** 17


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean rate in bits/s/Hz with its standard error."""

    mean: float
    std_err: float
    num_trials: int

    def __post_init__(self):
        check_int(self.num_trials, "num_trials")
        if self.std_err < 0 or not math.isfinite(self.mean):
            raise ParameterError("invalid estimate moments")


@dataclass(frozen=True)
class GainEstimate:
    """Ratio of a scheme's average rate to a reference scheme's, TDM unless
    stated."""

    value: float
    std_err: float


@dataclass(frozen=True)
class SharedEstimate:
    """Estimates of several schemes' average rates at one SNR from common
    draws, with the covariance of every pair (a, b) of them over the square
    of b's mean, which stays in range where the covariance itself
    underflows (`relative_covariance`)."""

    rates: dict
    relative_covariance: dict

    def gain(self, scheme, reference=Scheme.TDM) -> GainEstimate:
        """Ratio of the scheme's rate to the reference scheme's."""
        pair = Scheme.parse(scheme), Scheme.parse(reference)
        return effective_gain(self.rates[pair[0]], self.rates[pair[1]],
                              self.relative_covariance[pair])


def _worker_count() -> int:
    """CACHECAST_WORKERS, or else the number of cores this process may run
    on, at most MAX_DEFAULT_WORKERS."""
    workers = os.environ.get(WORKERS_ENV_VAR)
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        return min(cores, MAX_DEFAULT_WORKERS)
    try:
        count = int(workers)
    except ValueError:
        raise ParameterError(f"{WORKERS_ENV_VAR} must be an integer, got {workers!r}") from None
    return check_int(count, WORKERS_ENV_VAR)


def _scheme_columns(gain: int, users_per_group: int, schemes):
    """(groups, users) metric shape of each scheme. Equal shapes are one
    column: ACC with one user per group is MN, and MN at gain 1 is TDM."""
    shapes = {Scheme.TDM: (1, 1), Scheme.MN: (gain, 1),
              Scheme.ACC: (gain, users_per_group)}
    return {scheme: shapes[scheme] for scheme in schemes}


def _draw_buffer(count, groups, users):
    """A flat array that holds the draws of a chunk of up to `count`
    trials of a (groups, users) shape (_exponentials)."""
    return np.empty(-(-count // BLOCK_TRIALS) * users * BLOCK_TRIALS * groups)


def _scratch(size):
    """Three flat arrays of `size` doubles for one worker's ACC metric
    (_acc_rows), made once per estimation, so chunks do not fault fresh
    arrays in; pages that are never written are never made resident."""
    return tuple(np.empty(size) for _ in range(3))


def _exponentials(base_seed: int, substream_index: int, count: int, groups: int,
                  users: int, out: np.ndarray, start: int = 0, stop: int | None = None):
    """Standard exponentials E = -ln(1-u) of one substream chunk, in the
    whole blocks that hold its first `count` trials, laid out (blocks,
    users, BLOCK_TRIALS, groups) at the front of the flat buffer `out`. The
    block axis is outermost, so a trial's draws do not depend on how many
    trials the chunk holds.

    Only blocks start <= i < stop are drawn, all by default, from the
    substream advanced past the earlier blocks' outputs (one per double),
    so any split of the blocks draws the bits of a single draw. Returns
    the whole chunk's view of `out`."""
    shape = (-(-count // BLOCK_TRIALS), users, BLOCK_TRIALS, groups)
    chunk = out[:math.prod(shape)].reshape(shape)
    rng = substream(SeedSpec(base_seed=base_seed, trial_index=substream_index))
    if start:
        rng.bit_generator.advance(start * math.prod(shape[1:]))
    blocks = chunk[start:stop]
    exponentials(rng, blocks.shape, out=blocks)
    return chunk


def _group_min(values, out):
    """Minimum over the last (groups) axis into `out`, as a running
    np.minimum over its slices: numpy reduces a short innermost axis one
    element at a time, several times slower, to the same exact minimum."""
    np.copyto(out, values[..., 0])
    for g in range(1, values.shape[-1]):
        np.minimum(out, values[..., g], out=out)
    return out


def _block_users(rho, users):
    """Users per block of the ACC group product at SNR rho. E = -ln(1-u)
    of a 53-bit uniform u is at most 53 ln 2 < 37, so the product of
    1 + rho E over k users stays below 2^1000 while k log2(1 + 37 rho) <
    1000: all the users unless that could overflow."""
    bits = math.log1p(37.0 * rho) / LN2
    return users if users * bits < 1000 else max(1, math.ceil(1000 / bits) - 1)


def _product_minus_one(e, rho, start, stop, p, term):
    """prod(1 + rho E_j) - 1 over users start <= j < stop, per trial and
    group, in p, as p += (1 + p) E_j rho with `term` holding the update."""
    np.multiply(e[:, start], rho, out=p)
    for j in range(start + 1, stop):
        np.add(p, 1.0, out=term)
        term *= e[:, j]
        term *= rho
        p += term
    return p


def _stacks(rhos, users, share):
    """Runs (slice, step) of adjacent SNRs of `rhos` that share a
    _block_users step, of one to STACK_ELEMENTS // share SNRs, where one
    SNR's ACC metric takes `share` elements of a worker's blocks. The step
    falls as rho grows, so a sweep in SNR order stacks all of a step."""
    most = max(1, STACK_ELEMENTS // share)
    stacks, start = [], 0
    for step, run in groupby(_block_users(rho, users) for rho in rhos):
        stop = start + len(list(run))
        stacks += [(slice(i, min(i + most, stop)), step) for i in range(start, stop, most)]
        start = stop
    return stacks


def _acc_rows(e, rho, users, groups, step, scratch, out):
    """The ACC metric of the blocks `e` at the SNRs `rho` of one
    _block_users step, into the (SNRs, trials) rows `out`, built as one
    (SNRs, blocks, BLOCK_TRIALS, groups) product in `scratch`.

    It is ln(1 + p) / users for the smallest group's p = prod(1 + rho E_j)
    - 1. Every term of p's update is nonnegative, so after k users p is
    within (4k - 3) 2^-53 of its exact value, relatively, at any SNR, where
    a plain product of 1 + rho E would lose rho E to rounding. With log1p to
    4 ulp, the metric is within (4 users + 6) 2^-53 of the worst group's
    mean of ln(1 + rho E). A group longer than one block sums the log1p of
    its blocks' p before the minimum."""
    shape = (len(rho), len(e), BLOCK_TRIALS, e.shape[-1])
    p, term, total = (array[:math.prod(shape)].reshape(shape) for array in scratch)
    rho = rho.reshape(-1, 1, 1, 1)
    if step == users:
        values = _product_minus_one(e, rho, 0, users, p, term)
    else:
        values = total
        total.fill(0.0)
        for start in range(0, users, step):
            product = _product_minus_one(e, rho, start, min(start + step, users), p, term)
            total += np.log1p(product, out=product)
    least = _group_min(values[..., :groups], term.reshape(-1)[:math.prod(shape[:3])]
                       .reshape(shape[:3]))
    if step == users:
        np.log1p(least, out=least)
    return np.divide(least.reshape(len(rho), -1)[:, :out.shape[1]], users, out=out)


def _block_rows(e, start, stop, count, columns, rhos, stacks, controls, metrics, scratch):
    """Each column's control, into the (columns, whole blocks) `controls`,
    and its metric at each SNR of the array `rhos`, into the (SNRs, columns,
    count) `metrics`, for the blocks start <= i < stop of the chunk `e`.

    A control is the metric on E instead of ln(1 + rho E): E of the lone
    user, the smallest E of the served users, or the smallest group sum of
    E over the users, summed in `scratch`: fl(x / users) is monotone, so
    dividing after the minimum gives the same bits on fewer values. A
    single-user metric is ln(1 + rho c) of its control c, the minimum of
    ln(1 + rho E) over the groups bit for bit, as fl(rho x) and log1p are
    monotone. The ACC metric runs by `stacks` (_stacks, _acc_rows)."""
    e = e[start:stop]
    first, last = start * BLOCK_TRIALS, min(stop * BLOCK_TRIALS, count)
    for c, (groups, users) in enumerate(columns):
        control = controls[c, first:stop * BLOCK_TRIALS].reshape(len(e), BLOCK_TRIALS)
        rows = metrics[:, c, first:last]
        if users == 1:
            _group_min(e[:, 0, :, :groups], control)
            np.multiply(control.reshape(-1)[:last - first], rhos[:, None], out=rows)
            np.log1p(rows, out=rows)
            continue
        sums = scratch[0][:control.size * e.shape[-1]].reshape(e[:, 0].shape)
        _group_min(np.sum(e, axis=1, out=sums)[..., :groups], control)
        control /= users
        for stack, step in stacks:
            _acc_rows(e, rhos[stack], users, groups, step, scratch, rows[stack])


def _metric_scale(rho):
    """Power of two near 1/rho below 0 dB, else 1, by which the metrics
    are multiplied before their moments (_snr_moments), so that products of
    residuals near rho do not fall below the normal range. Products and sums
    of normal numbers scale exactly, so in range the scaled moments hold
    the bits of the plain ones times powers of two."""
    return math.ldexp(1.0, min(1000, max(0, -math.frexp(rho)[1])))


def _snr_moments(metrics, controls, rhos, betas=None):
    """(mean, centred co-moments) at each SNR of `rhos` of the residuals
    scaled metric - beta (control - its mean) of every column, from the
    (SNRs, columns, trials) `metrics`, that SNR's `betas` and the centred
    `controls`; or, without `betas` (the pilot), of the scaled metrics and
    then the controls. Each metric is scaled by _metric_scale(rho)."""
    moments = []
    for i, rho in enumerate(rhos):
        values = metrics[i] if betas is not None else np.concatenate((metrics[i], controls))
        scale = _metric_scale(rho)
        if scale != 1.0:
            values[:len(metrics[i])] *= scale
        if betas is not None:
            values -= betas[i][:, None] * controls
        mean = values.mean(axis=1)
        values -= mean[:, None]
        # einsum, not BLAS: its sums do not depend on the thread count
        moments.append((mean, np.einsum("ik,jk->ij", values, values)))
    return moments


def _chunk_moments(chunk, columns, rhos, stacks, base_seed, buffers, pool, workers, timings,
                   betas=None, control_means=None):
    """(trials, mean, centred co-moments) of the chunk (substream, trials),
    one row per SNR, as _snr_moments gives them: of the residuals from each
    SNR's `betas` and the columns' exact `control_means`, or without
    `betas` of the metrics and then the controls. Each of the `workers`
    draws a run of blocks into the draw buffer of `buffers` and builds their
    rows in its controls, metric and scratch arrays (_block_rows); then the
    calling thread takes the moments. `timings` gathers the calling
    worker's seconds in its draw, and in its rows plus the moments."""
    substream_index, count = chunk
    draws, controls, metrics, scratch = buffers
    metrics = metrics[:len(rhos) * len(columns) * count].reshape(len(rhos), len(columns), count)

    def build(w, start, stop):
        started = time.perf_counter()
        e = _exponentials(base_seed, substream_index, count, *columns[-1], draws, start, stop)
        drawn = time.perf_counter()
        _block_rows(e, start, stop, count, columns, rhos, stacks, controls, metrics, scratch[w])
        return drawn - started, time.perf_counter() - drawn

    blocks = -(-count // BLOCK_TRIALS)
    bounds = [blocks * w // workers for w in range(workers + 1)]
    runs = [(start, stop) for start, stop in zip(bounds, bounds[1:]) if start < stop]
    # the calling thread takes the first run, the pool's helpers the others
    futures = [pool.submit(build, w, *run) for w, run in enumerate(runs) if w]
    try:
        draw_s, rows_s = build(0, *runs[0])
    finally:
        wait(futures)  # no helper is left writing to the shared arrays
    for future in futures:
        future.result()  # a helper's error
    started = time.perf_counter()
    centred = controls[:, :count]
    if betas is not None:
        centred -= control_means[:, None]
    moments = _snr_moments(metrics, centred, rhos, betas)
    timings["draw_s"] += draw_s
    timings["metrics_s"] += rows_s + time.perf_counter() - started
    means, comoments = zip(*moments)
    return count, np.array(means), np.array(comoments)


def _merge_moments(a, b):
    # Chan et al.'s pairwise update, for a vector of means per SNR
    n1, m1, s1 = a
    n2, m2, s2 = b
    n = n1 + n2
    delta = m2 - m1
    mean = m1 + delta * (n2 / n)
    s = s1 + s2 + delta[..., :, None] * delta[..., None, :] * (n1 * n2 / n)
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


def _chunk_plan(num_trials):
    """(substream, trials) of every estimate chunk."""
    return [(1 + chunk_index, min(CHUNK_TRIALS, num_trials - start))
            for chunk_index, start in enumerate(range(0, num_trials, CHUNK_TRIALS))]


def _pilot_trials(num_trials):
    """About a thirty-second of the trials, in whole blocks: at least one
    block and at most one chunk."""
    return min(CHUNK_TRIALS, BLOCK_TRIALS * max(1, num_trials // (32 * BLOCK_TRIALS)))


def _control_mean(groups: int, users: int) -> float:
    """Exact mean of a column's control: psi(groups, users)/users, whose
    single-user value 1/groups is taken exactly."""
    return 1.0 / groups if users == 1 else analysis.psi(groups, users) / users


def check_run(num_trials, base_seed):
    """Raise ParameterError unless num_trials is an integer >= 100 and
    base_seed a valid seed, as every Monte Carlo estimate requires."""
    check_int(num_trials, "num_trials", minimum=100)
    SeedSpec(base_seed=base_seed)


def mc_average_rates(gain: int, users_per_group: int, rhos, schemes, num_trials: int,
                     base_seed: int, timings: dict | None = None) -> list:
    """Monte Carlo estimates of the schemes' average sum rates in
    bits/s/Hz at every SNR in `rhos` (linear), one SharedEstimate per SNR,
    all from the same draws.

    Deterministic for fixed (gain, users_per_group, widest scheme, rho,
    num_trials, base_seed) regardless of the worker count, which the
    CACHECAST_WORKERS environment variable sets (by default the number of
    usable cores, at most MAX_DEFAULT_WORKERS), and of the other SNRs in
    `rhos`. No more workers run than the largest chunk has blocks. The
    estimation holds one chunk-sized draw buffer, whatever the worker
    count, one chunk's controls and metric rows at every SNR, and per worker
    three scratch arrays of one SNR's share of the blocks, or of a stack of
    SNRs up to STACK_ELEMENTS. A `timings` dict, when given, receives the
    workers that ran ("workers") and the calling worker's seconds in its
    draws ("draw_s") and in its metrics plus the moments ("metrics_s"),
    without its waits for the other workers.

    The pilot chunk runs first and fixes each column's coefficient beta on
    its own control at each SNR. Each estimate chunk then gives the mean and
    co-moments of the residuals r = metric - beta (control - its mean), so
    the rate is its prefactor times the mean of r and the standard error its
    prefactor times sqrt(var(r) / n), floored at 2 + ceil(log2(chunks))
    roundings of the rate, one per step it takes (the chunk means, each
    level of their merge tree, the prefactor), where the metric is so
    nearly beta times its control that r is constant to rounding.
    """
    schemes = tuple(Scheme.parse(s) for s in schemes)
    rhos = [float(rho) for rho in rhos]
    if not schemes or not rhos:
        raise ParameterError("estimate at least one scheme at one SNR")
    for rho in rhos:
        SystemConfig.from_gain(gain, users_per_group, rho)  # validate the shape
    check_run(num_trials, base_seed)
    if timings is None:
        timings = {}

    scheme_columns = _scheme_columns(int(gain), int(users_per_group), schemes)
    columns = sorted(set(scheme_columns.values()))
    index = {scheme: columns.index(column) for scheme, column in scheme_columns.items()}
    pilot = (PILOT_SUBSTREAM, _pilot_trials(int(num_trials)))
    chunks = _chunk_plan(int(num_trials))
    largest = max(count for _, count in chunks + [pilot])
    blocks = -(-largest // BLOCK_TRIALS)
    workers = min(_worker_count(), blocks)
    groups, users = columns[-1]  # sorted, the widest in both groups and users
    share = -(-blocks // workers) * BLOCK_TRIALS * groups  # one SNR's largest share
    stacks = _stacks(rhos, users, share)
    size = 0 if users == 1 else share * max(s.stop - s.start for s, _ in stacks)
    buffers = (_draw_buffer(largest, groups, users), np.empty((len(columns), blocks * BLOCK_TRIALS)),
               np.empty(len(rhos) * len(columns) * largest), [_scratch(size) for _ in range(workers)])
    timings.update(workers=workers, draw_s=0.0, metrics_s=0.0)
    k = len(columns)
    roundings = 2 + (len(chunks) - 1).bit_length()
    control_means = np.array([_control_mean(*column) for column in columns])
    with (ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext()) as pool:
        run = partial(_chunk_moments, columns=columns, rhos=np.array(rhos), stacks=stacks,
                      base_seed=base_seed, buffers=buffers, pool=pool, workers=workers,
                      timings=timings)
        # coefficient of each metric on its own control, from the pilot
        betas = [np.diag(s[:k, k:]) / np.diag(s[k:, k:]) for s in run(pilot)[2]]
        n, means, comoments = _tree_reduce(run(chunk, betas=betas, control_means=control_means)
                                           for chunk in chunks)

    estimates = []
    for rho, mean, s in zip(rhos, means, comoments):
        # the residuals' metrics are scaled; the prefactor undoes it
        prefactor = np.array([groups / LN2 for groups, _ in columns]) / _metric_scale(rho)
        value = prefactor * mean
        std_err = np.maximum(prefactor * np.sqrt(np.diag(s) / (n * (n - 1))),
                             roundings * 2.0 ** -53 * np.abs(value))
        # covariance [i, j] over value[j] squared, from the scaled
        # co-moments, so that it holds where the covariance underflows; nan
        # where a mean is 0, which no gain uses, as its TDM mean squares to
        # 0. Within one column it is the squared ratio as effective_gain
        # forms it, so a column over itself has a gain error of exactly 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            relative = s * (prefactor[:, None] / value) * (prefactor / value) / (n * (n - 1))
            ratio = std_err / value
        np.fill_diagonal(relative, ratio * ratio)
        rates = {scheme: RateEstimate(mean=float(value[i]), std_err=float(std_err[i]),
                                      num_trials=n)
                 for scheme, i in index.items()}
        relative_covariance = {(a, b): float(relative[i, j])
                               for a, i in index.items() for b, j in index.items()}
        estimates.append(SharedEstimate(rates=rates, relative_covariance=relative_covariance))
    return estimates


def mc_average_rate(config: SystemConfig, scheme: Scheme, num_trials: int,
                    base_seed: int) -> RateEstimate:
    """Monte Carlo estimate of the scheme's average sum rate in bits/s/Hz:
    the one-point, one-scheme view of mc_average_rates.

    Deterministic for fixed (config, scheme, num_trials, base_seed)
    regardless of the worker count.
    """
    scheme = Scheme.parse(scheme)
    (estimate,) = mc_average_rates(config.nominal_gain, config.users_per_group,
                                   [config.avg_snr], [scheme], num_trials, base_seed)
    return estimate.rates[scheme]


def trial_rates(config: SystemConfig, scheme: Scheme, num_trials: int,
                base_seed: int) -> np.ndarray:
    """Per-trial rate metric in bits/s/Hz, in trial order, before any
    control-variate correction.

    Exposes the exact per-realization values behind mc_average_rate;
    intended for coupled-path comparisons and diagnostics.
    """
    scheme = Scheme.parse(scheme)
    num_trials = check_int(num_trials, "num_trials")
    groups, users = column = _scheme_columns(config.nominal_gain, config.users_per_group,
                                             [scheme])[scheme]
    rho = np.array([float(config.avg_snr)])
    padded = -(-min(num_trials, CHUNK_TRIALS) // BLOCK_TRIALS) * BLOCK_TRIALS
    draws, controls = _draw_buffer(padded, groups, users), np.empty((1, padded))
    scratch, stacks = _scratch(padded * groups), _stacks(rho, users, padded * groups)
    metrics = np.empty(num_trials)
    for (index, count), first in zip(_chunk_plan(num_trials), range(0, num_trials, CHUNK_TRIALS)):
        e = _exponentials(base_seed, index, count, groups, users, draws)
        _block_rows(e, 0, len(e), count, [column], rho, stacks, controls,
                    metrics[first:first + count].reshape(1, 1, count), scratch)
    return groups / LN2 * metrics


def effective_gain(scheme_rate: RateEstimate, tdm_rate: RateEstimate,
                   relative_covariance: float = 0.0) -> GainEstimate:
    """Speed-up of a scheme over TDM (or another reference), with
    first-order error propagation. `relative_covariance` is the covariance
    of the two estimates over the square of the TDM mean: 0 for independent
    draws, and (std_err / mean) * (std_err / mean) for an estimate over
    itself, whose gain error is then exactly 0. The error is formed from the
    standard errors divided by the TDM mean, so it does not underflow where
    their squares would."""
    mean = tdm_rate.mean
    if not (mean > 0):
        raise NumericsError("TDM reference rate must be positive to form a gain")
    if mean ** 2 == 0.0:
        raise NumericsError(f"TDM reference rate {mean!r} squares to 0, "
                            "so the gain's error cannot be formed")
    value = scheme_rate.mean / mean
    numerator, denominator = scheme_rate.std_err / mean, tdm_rate.std_err / mean
    variance = (numerator * numerator - 2.0 * value * relative_covariance
                + value * value * (denominator * denominator))
    return GainEstimate(value=value, std_err=math.sqrt(max(variance, 0.0)))
