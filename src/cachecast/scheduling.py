"""Cache placement combinatorics and transmission-stage scheduling.

Implements the shared-cache placement (every user of a group stores the same
segments), stage enumeration, and two delay models:

* the aggregated multi-rate stage, where each served user decodes at its
  own point-to-point rate and group members are served round-robin, so
  every finish time is a running sum of segment size over rate and the
  stage's event log follows in closed form;
* the XOR multicast stage, whose duration is fixed by the worst served user.

Groups, users, files and stage slots are all 0-indexed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, UnboundedDelayError, check_positive
from .system import Scheme, SnrMatrix, SystemConfig

@dataclass(frozen=True, order=True)
class SubfileId:
    """One segment of a file, labelled by the caches that store it."""

    file: int
    cache_subset: tuple

    def __post_init__(self):
        subset = tuple(sorted(int(g) for g in self.cache_subset))
        if len(set(subset)) != len(subset):
            raise ParameterError(f"cache_subset has repeated entries: {self.cache_subset}")
        object.__setattr__(self, "cache_subset", subset)


@dataclass(frozen=True)
class CacheState:
    """Contents shared by every user of one group."""

    group: int
    contents: frozenset


class TimelineEvent(NamedTuple):
    time: float
    group: int
    user: int


#: TimelineEvent._make without its Python-level frame, which costs more
#: than the tuple it builds
_event = functools.partial(tuple.__new__, TimelineEvent)


@dataclass(frozen=True)
class DeliveryTimeline:
    """Event log of one aggregated transmission stage.

    events:          (time, group, user) triples, nondecreasing in time;
                     each group's users finish in round-robin order
    completion_time: time of the last event
    """

    events: tuple
    completion_time: float

    def jsonl_lines(self):
        """Serialize as JSON-lines: one record per event plus a footer."""
        for ev in self.events:
            yield json.dumps({"t": ev.time, "group": ev.group, "user": ev.user})
        yield json.dumps({"completion_time": self.completion_time})


def placement(config: SystemConfig) -> list:
    """Shared-cache placement.

    Every file is split into C(num_cache_states, cache_subset_size) segments,
    one per subset of caches of that size; cache g stores exactly the
    segments whose label contains g, i.e. a fraction cache_fraction of every
    file.
    """
    lam = config.num_cache_states
    t = config.cache_subset_size
    subsets = list(combinations(range(lam), t))
    states = []
    for g in range(lam):
        contents = frozenset(
            SubfileId(file=n, cache_subset=subset)
            for n in range(config.library_size)
            for subset in subsets
            if g in subset
        )
        states.append(CacheState(group=g, contents=contents))
    return states


def enumerate_stages(config: SystemConfig) -> list:
    """All C(num_cache_states, nominal_gain) stage sets in lexicographic order."""
    return [tuple(c) for c in combinations(range(config.num_cache_states),
                                           config.nominal_gain)]


def needed_subfile(stage: Sequence[int], slot: int, demand: int) -> SubfileId:
    """Segment delivered to the user served in ``slot`` of ``stage``.

    The label is the stage set minus the slot's own group, so the segment
    is cached at every other group served in the stage (clique property).
    """
    stage = tuple(stage)
    if not 0 <= slot < len(stage):
        raise ParameterError(f"slot {slot} out of range for stage {stage}")
    subset = tuple(g for i, g in enumerate(stage) if i != slot)
    return SubfileId(file=int(demand), cache_subset=subset)


def _finish_times(stage, snr, subfile_size: float) -> list:
    """Finish time of every served user, one list per stage slot.

    A group serves its members one after another, each at its own rate
    log2(1+SNR), so a slot's finish times are the running sums of
    subfile_size / rate along its users.
    """
    size = check_positive(subfile_size, "subfile_size")
    mat = snr.snr if isinstance(snr, SnrMatrix) else np.asarray(snr, dtype=float)
    stage = tuple(map(int, stage))
    if len(set(stage)) != len(stage):
        raise ParameterError(f"stage has repeated groups: {stage}")
    if stage and not (min(stage) >= 0 and max(stage) < mat.shape[0]):
        raise ParameterError(f"stage {stage} out of range for {mat.shape[0]} groups")
    rates = np.log2(1.0 + mat.take(stage, axis=0))
    if (rates <= 0.0).any():
        bad = [(stage[i], int(j)) for i, j in zip(*np.nonzero(rates <= 0.0))][:4]
        raise UnboundedDelayError(
            f"served users with zero rate never finish: (group, user) {bad}")
    # cumsum adds along each row in order, as a Python running sum does
    return (size / rates).cumsum(axis=1).tolist()


def acc_stage_timeline(stage: Sequence[int], snr, subfile_size: float) -> DeliveryTimeline:
    """Event log of one aggregated stage, in closed form.

    Each group of the stage serves its members in round-robin order at their
    own rates log2(1+SNR), so the finish times of a slot are the running sums
    of subfile_size / rate; the events are those times merged in time order.
    Finishes within 1e-12 relative of a batch's first finish are
    simultaneous: they share that time and are listed in ascending slot
    order. Completion equals max over groups of sum_b subfile_size / rate(g, b).
    """
    stage = tuple(stage)
    finishes = [(t, i, j) for i, row in enumerate(_finish_times(stage, snr, subfile_size))
                for j, t in enumerate(row)]
    finishes.sort()
    groups = [int(g) for g in stage]
    batched = []
    first = -math.inf
    for t, i, j in finishes:
        if t > first * (1.0 + 1e-12):
            first = t
        batched.append((first, i, j))
    batched.sort()  # a batch's finishes now share its time, so they sort by slot
    events = tuple(map(_event, [(t, groups[i], j) for t, i, j in batched]))
    return DeliveryTimeline(events=events,
                            completion_time=events[-1].time if events else 0.0)


def acc_stage_completion_closed_form(stage, snr, subfile_size: float) -> float:
    """Per-group serial service times summed, maximized over the stage."""
    return max(row[-1] for row in _finish_times(stage, snr, subfile_size))


def mn_stage_delay(group_user_snrs: Sequence[float], xor_size: float) -> float:
    """Duration of one XOR multicast: the worst served user sets the pace."""
    # iterating rejects a scalar, and float() a nested row or a non-number;
    # a string would iterate as its characters
    try:
        snrs = list(map(float, group_user_snrs))
    except (TypeError, ValueError):
        snrs = []
    if not snrs or isinstance(group_user_snrs, (str, bytes)):
        raise ParameterError("group_user_snrs must be a nonempty 1-D collection")
    worst = min(snrs)
    # min skips a NaN that is not first, so every value is tested
    if not (worst >= 0.0 and all(map(math.isfinite, snrs))):
        raise ParameterError("SNRs must be finite and nonnegative")
    check_positive(xor_size, "xor_size")
    return xor_size / _xor_rate(worst)


def _xor_rate(worst: float) -> float:
    """log2(1 + worst), the rate of an XOR stage. UnboundedDelayError where
    it is zero: at a worst SNR of 0, and up to 2^-53, where 1 + SNR rounds
    to 1."""
    rate = math.log2(1.0 + worst)
    if rate == 0.0:
        raise UnboundedDelayError("the worst served user has zero rate")
    return rate


def validate_demands(config: SystemConfig, demands: Sequence[int]) -> tuple:
    demands = tuple(int(d) for d in demands)
    if len(demands) != config.num_users:
        raise ParameterError(
            f"expected {config.num_users} demands, got {len(demands)}")
    if any(not 0 <= d < config.library_size for d in demands):
        raise ParameterError("demand indices must lie in [0, library_size)")
    return demands


def _realizations(config: SystemConfig, snr_per_stage: Sequence, count: int,
                  kind: str) -> np.ndarray:
    """The session's realizations stacked into one (count, cache states,
    users per group) array, each checked as SnrMatrix checks its own."""
    if len(snr_per_stage) != count:
        raise ParameterError(
            f"{kind} session needs {count} realizations, got {len(snr_per_stage)}")
    shape = (count, config.num_cache_states, config.users_per_group)
    try:
        mats = np.array([snr.snr if isinstance(snr, SnrMatrix) else snr
                         for snr in snr_per_stage], dtype=float)
    except (TypeError, ValueError):
        mats = None
    if mats is None or mats.shape != shape:
        raise ParameterError(f"{kind} session realizations must stack to shape {shape}")
    # numpy's min and max propagate NaN, which then fails both comparisons
    if not (mats.min() >= 0.0 and mats.max() < math.inf):
        raise ParameterError("SNRs must be finite and nonnegative")
    return mats


def full_session_delay(config: SystemConfig, demands: Sequence[int],
                       snr_per_stage: Sequence, scheme: Scheme) -> float:
    """Total delivery time of one complete session, one fresh realization
    per stage.

    Segment size is 1/C(num_cache_states, cache_subset_size) of a unit file,
    so over the session every user receives exactly its missing
    (1 - cache_fraction) fraction. The aggregated scheme runs one stage per
    stage set; the XOR scheme repeats the whole stage schedule once per
    group member, serving member r of every group in round r.

    Every stage's duration comes from one array pass over the stacked
    realizations, with the arithmetic of acc_stage_completion_closed_form
    or mn_stage_delay on that stage alone, and the durations are added in
    stage order, so the total has the bits of the stage-by-stage sum.
    """
    scheme = Scheme.parse(scheme)
    validate_demands(config, demands)
    stages = enumerate_stages(config)
    n = len(stages)
    subfile_size = 1.0 / math.comb(config.num_cache_states, config.cache_subset_size)
    served = np.array(stages)

    if scheme is Scheme.ACC:
        mats = _realizations(config, snr_per_stage, n, "aggregated")
        rates = np.log2(1.0 + mats[np.arange(n)[:, None], served])
        stalled = ~rates.all(axis=(1, 2))
        if stalled.any():  # the first such stage raises as it would alone
            k = int(stalled.argmax())
            _finish_times(stages[k], mats[k], subfile_size)
        # cumsum adds along each group's users in order, as _finish_times does
        completions = (subfile_size / rates).cumsum(axis=2)[:, :, -1].max(axis=1)
        return sum(completions.tolist())

    if scheme is Scheme.MN:
        b = config.users_per_group
        mats = _realizations(config, snr_per_stage, b * n, "XOR")
        rounds = np.arange(b)[:, None, None]
        # [r, k, i]: member r of the i-th group of stage k, in realization r n + k
        worst = mats[rounds * n + np.arange(n)[:, None], served, rounds].min(axis=2)
        total = 0.0
        for w in worst.ravel().tolist():
            total += subfile_size / _xor_rate(w)
        return total

    raise ParameterError("full_session_delay supports the MN and ACC schemes only")
