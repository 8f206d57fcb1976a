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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, UnboundedDelayError
from .system import Scheme, SnrMatrix, SystemConfig

StageSet = tuple  # ordered tuple of group indices, |stage| == nominal gain


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


@dataclass(frozen=True)
class DeliveryTimeline:
    """Event log of one aggregated transmission stage.

    events:          (time, group, user) triples, nondecreasing in time;
                     each group's users finish in round-robin order
    completion_time: time of the last event
    pointer_history: snapshots (time, pointers) of the per-slot "next user"
                     vector, one snapshot at start and after every event
    """

    events: tuple
    completion_time: float
    pointer_history: tuple

    def jsonl_lines(self):
        """Serialize as JSON-lines: one record per event plus a footer."""
        for ev in self.events:
            yield json.dumps({"t": ev.time, "group": ev.group, "user": ev.user})
        yield json.dumps({"completion_time": self.completion_time})

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


def assign_groups(config: SystemConfig) -> dict:
    """Fixed block assignment of users to (group, position).

    Users 0..B-1 form group 0, the next B form group 1, and so on. The
    grouping is decided before demands or channel are known and never
    changes.
    """
    b = config.users_per_group
    return {k: (k // b, k % b) for k in range(config.num_users)}


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


def cached_fraction(config: SystemConfig) -> Fraction:
    """Exact fraction of each file stored per cache: C(L-1,t-1)/C(L,t)."""
    lam, t = config.num_cache_states, config.cache_subset_size
    if t == 0:
        return Fraction(0)
    return Fraction(math.comb(lam - 1, t - 1), math.comb(lam, t))


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
    if not (subfile_size > 0) or not math.isfinite(subfile_size):
        raise ParameterError(f"subfile_size must be positive, got {subfile_size}")
    mat = snr.snr if isinstance(snr, SnrMatrix) else np.asarray(snr, dtype=float)
    stage = tuple(int(g) for g in stage)
    if len(set(stage)) != len(stage):
        raise ParameterError(f"stage has repeated groups: {stage}")
    if not all(0 <= g < mat.shape[0] for g in stage):
        raise ParameterError(f"stage {stage} out of range for {mat.shape[0]} groups")
    rates = np.log2(1.0 + mat[list(stage), :])
    if np.any(rates <= 0.0):
        bad = [(stage[i], int(j)) for i, j in zip(*np.nonzero(rates <= 0.0))][:4]
        raise UnboundedDelayError(
            f"served users with zero rate never finish: (group, user) {bad}")
    return [list(accumulate(subfile_size / rate for rate in row)) for row in rates.tolist()]


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
    times = _finish_times(stage, snr, subfile_size)
    groups = [int(g) for g in stage]
    batched = []
    first = -math.inf
    for t, i, j in sorted((t, i, j) for i, row in enumerate(times) for j, t in enumerate(row)):
        if t > first * (1.0 + 1e-12):
            first = t
        batched.append((first, i, j))
    batched.sort()  # a batch's finishes now share its time, so they sort by slot
    pointer = [0] * len(groups)      # next user index per slot; == B means done
    events = []
    history = [(0.0, tuple(pointer))]
    for t, i, j in batched:
        events.append(TimelineEvent(t, groups[i], j))
        pointer[i] = j + 1
        history.append((t, tuple(pointer)))
    return DeliveryTimeline(events=tuple(events),
                            completion_time=events[-1].time if events else 0.0,
                            pointer_history=tuple(history))


def acc_stage_completion_closed_form(stage, snr, subfile_size: float) -> float:
    """Per-group serial service times summed, maximized over the stage."""
    return max(row[-1] for row in _finish_times(stage, snr, subfile_size))


def mn_stage_delay(group_user_snrs: Sequence[float], xor_size: float) -> float:
    """Duration of one XOR multicast: the worst served user sets the pace."""
    snrs = np.asarray(group_user_snrs, dtype=float)
    if snrs.ndim != 1 or len(snrs) == 0:
        raise ParameterError("group_user_snrs must be a nonempty 1-D collection")
    # numpy's min and max propagate NaN, which then fails both comparisons
    worst = float(snrs.min())
    if not (worst >= 0.0 and snrs.max() < math.inf):
        raise ParameterError("SNRs must be finite and nonnegative")
    if not (xor_size > 0):
        raise ParameterError(f"xor_size must be positive, got {xor_size}")
    if worst == 0.0:
        raise UnboundedDelayError("the worst served user has zero SNR")
    return xor_size / math.log2(1.0 + worst)


def validate_demands(config: SystemConfig, demands: Sequence[int]) -> tuple:
    demands = tuple(int(d) for d in demands)
    if len(demands) != config.num_users:
        raise ParameterError(
            f"expected {config.num_users} demands, got {len(demands)}")
    if any(not 0 <= d < config.library_size for d in demands):
        raise ParameterError("demand indices must lie in [0, library_size)")
    return demands


def full_session_delay(config: SystemConfig, demands: Sequence[int],
                       snr_per_stage: Sequence, scheme: Scheme) -> float:
    """Total delivery time of one complete session, one fresh realization
    per stage.

    Segment size is 1/C(num_cache_states, cache_subset_size) of a unit file,
    so over the session every user receives exactly its missing
    (1 - cache_fraction) fraction. The aggregated scheme runs one stage per
    stage set; the XOR scheme repeats the whole stage schedule once per
    group member.
    """
    scheme = Scheme.parse(scheme)
    validate_demands(config, demands)
    stages = enumerate_stages(config)
    subfile_size = 1.0 / math.comb(config.num_cache_states, config.cache_subset_size)

    if scheme is Scheme.ACC:
        if len(snr_per_stage) != len(stages):
            raise ParameterError(
                f"aggregated session needs {len(stages)} realizations, "
                f"got {len(snr_per_stage)}")
        return sum(
            acc_stage_completion_closed_form(stage, snr, subfile_size)
            for stage, snr in zip(stages, snr_per_stage))

    if scheme is Scheme.MN:
        b = config.users_per_group
        if len(snr_per_stage) != b * len(stages):
            raise ParameterError(
                f"XOR session needs {b * len(stages)} realizations, "
                f"got {len(snr_per_stage)}")
        total = 0.0
        idx = 0
        for round_idx in range(b):
            for stage in stages:
                snr = snr_per_stage[idx]
                mat = snr.snr if isinstance(snr, SnrMatrix) else np.asarray(snr, dtype=float)
                served = [mat[g, round_idx] for g in stage]
                total += mn_stage_delay(served, subfile_size)
                idx += 1
        return total

    raise ParameterError("full_session_delay supports the MN and ACC schemes only")
