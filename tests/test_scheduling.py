import json
import math
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cachecast.errors import ParameterError, UnboundedDelayError
from cachecast.scheduling import (
    CacheState,
    SubfileId,
    acc_stage_completion_closed_form,
    acc_stage_timeline,
    enumerate_stages,
    full_session_delay,
    mn_stage_delay,
    needed_subfile,
    placement,
)
from cachecast.system import Scheme, SeedSpec, SnrMatrix, SystemConfig, sample_snr
from cachecast.experiments import example2_stage


def config_for(gain, users_per_group, rho=1.0):
    return SystemConfig.from_gain(gain, users_per_group, rho)


# ---------------------------------------------------------------- placement

def test_placement_three_states_one_third():
    config = SystemConfig(nominal_gain=2, users_per_group=1, num_cache_states=3,
                          avg_snr=1.0)
    states = placement(config)
    assert len(states) == 3
    for state in states:
        # cache g holds exactly the singleton-{g} segment of every file
        assert state.contents == frozenset(
            SubfileId(file=n, cache_subset=(state.group,)) for n in range(3))


def test_placement_zero_fraction_leaves_caches_empty():
    config = SystemConfig(nominal_gain=1, users_per_group=1, num_cache_states=3,
                          avg_snr=1.0)
    states = placement(config)
    assert all(state.contents == frozenset() for state in states)
    # whole file is a single segment labelled by the empty subset
    assert needed_subfile((0,), 0, 2) == SubfileId(file=2, cache_subset=())


def test_placement_four_states_half():
    config = SystemConfig(nominal_gain=3, users_per_group=1, num_cache_states=4,
                          avg_snr=1.0)
    states = placement(config)
    per_file = math.comb(4, 2)
    assert per_file == 6
    for state in states:
        mine = [s for s in state.contents if s.file == 0]
        assert len(mine) == 3  # C(3,1) of the 6 segments


@pytest.mark.parametrize("lam,t", [(3, 1), (5, 2), (6, 3), (8, 4)])
def test_cached_fraction_equals_cache_fraction(lam, t):
    # every cache stores C(lam-1, t-1) of each file's C(lam, t) segments
    config = SystemConfig(nominal_gain=t + 1, users_per_group=1, num_cache_states=lam,
                          avg_snr=1.0)
    for state in placement(config):
        for n in range(lam):
            stored = sum(1 for s in state.contents if s.file == n)
            assert Fraction(stored, math.comb(lam, t)) == Fraction(t, lam)


# ---------------------------------------------------------------- stages

def test_stage_enumeration_pairs():
    config = SystemConfig(nominal_gain=2, users_per_group=1, num_cache_states=3,
                          avg_snr=1.0)
    assert enumerate_stages(config) == [(0, 1), (0, 2), (1, 2)]


def test_single_full_stage():
    config = SystemConfig(nominal_gain=3, users_per_group=1, num_cache_states=3,
                          avg_snr=1.0)
    assert enumerate_stages(config) == [(0, 1, 2)]


def test_stage_count_is_binomial():
    config = SystemConfig(nominal_gain=3, users_per_group=1, num_cache_states=5,
                          avg_snr=1.0)
    assert len(enumerate_stages(config)) == math.comb(5, 3) == 10


# ---------------------------------------------------------------- needed segments

def test_needed_subfile_drops_the_served_slot():
    assert needed_subfile((0, 1, 2), 0, 6) == SubfileId(file=6, cache_subset=(1, 2))
    assert needed_subfile((0, 1), 1, 0) == SubfileId(file=0, cache_subset=(0,))


def test_needed_subfile_clique_membership():
    stage = (1, 3, 4)
    for slot in range(3):
        subset = needed_subfile(stage, slot, 0).cache_subset
        for other_slot, group in enumerate(stage):
            if other_slot != slot:
                assert group in subset
        assert stage[slot] not in subset


def test_clique_property_exhaustive_small():
    for lam in range(1, 6):
        for t in range(0, lam):
            config = SystemConfig(nominal_gain=t + 1, users_per_group=1, num_cache_states=lam,
                                  avg_snr=1.0)
            caches = {state.group: state.contents for state in placement(config)}
            for stage in enumerate_stages(config):
                for slot in range(len(stage)):
                    subfile = needed_subfile(stage, slot, demand=lam - 1)
                    for other_slot, group in enumerate(stage):
                        if other_slot != slot:
                            assert subfile in caches[group]


def test_subfile_id_normalizes_subset_order():
    assert SubfileId(file=0, cache_subset=(3, 1)).cache_subset == (1, 3)
    with pytest.raises(ParameterError):
        SubfileId(file=0, cache_subset=(1, 1))


# ---------------------------------------------------------------- stage timeline

def fluid_event_loop(stage, snr, subfile_size):
    """Reference timeline by fluid-rate simulation, independent of the closed
    form: at every instant the active user of each unfinished group gains
    decoded data at its own rate; when it reaches subfile_size the group's
    pointer advances. Finishes within 1e-12 of the step are simultaneous and
    processed in ascending slot order. Returns the events as a list of
    (time, group, user)."""
    rates = np.log2(1.0 + snr.snr[list(stage), :])
    users_per_group = rates.shape[1]
    pointer = [0] * len(stage)
    progress = [0.0] * len(stage)
    active = list(range(len(stage)))
    now = 0.0
    events = []
    while active:
        remaining = [(subfile_size - progress[i]) / float(rates[i, pointer[i]])
                     for i in active]
        dt = min(remaining)
        now += dt
        finishers = [i for i, rem in zip(active, remaining) if rem <= dt * (1.0 + 1e-12)]
        for i in active:
            if i not in finishers:
                progress[i] += dt * float(rates[i, pointer[i]])
        for i in finishers:
            events.append((now, stage[i], pointer[i]))
            pointer[i] += 1
            progress[i] = 0.0
        active = [i for i in active if pointer[i] < users_per_group]
    return events


def assert_matches_fluid_event_loop(stage, snr, subfile_size):
    timeline = acc_stage_timeline(stage, snr, subfile_size)
    events = fluid_event_loop(stage, snr, subfile_size)
    assert [(ev.group, ev.user) for ev in timeline.events] == [(g, b) for _, g, b in events]
    times = [ev.time for ev in timeline.events]
    assert times == pytest.approx([t for t, _, _ in events], rel=1e-12, abs=0.0)
    assert timeline.completion_time == pytest.approx(events[-1][0], rel=1e-12)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31), st.booleans())
def test_closed_form_timeline_matches_the_fluid_event_loop(gain, users, seed, tied_rows):
    rng = np.random.default_rng(seed)
    matrix = rng.exponential(1.0, size=(gain + 1, users)) + 1e-12
    if tied_rows:
        # groups drawn with repetition: equal rows finish at exactly equal times
        matrix = matrix[rng.integers(0, gain + 1, size=gain + 1)]
    stage = tuple(int(g) for g in rng.permutation(gain + 1)[:gain])
    assert_matches_fluid_event_loop(stage, SnrMatrix(snr=matrix), float(rng.uniform(0.05, 2.0)))


def test_worked_example_matches_the_fluid_event_loop():
    assert_matches_fluid_event_loop(*example2_stage())


def test_zero_rate_error_lists_the_group_user_pairs():
    snr = SnrMatrix(snr=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(UnboundedDelayError, match=re.escape("[(1, 0), (1, 2), (0, 1), (0, 2)]")):
        acc_stage_timeline((1, 2, 0), snr, 1.0)


def test_worked_example_timeline():
    stage, snr, size = example2_stage()
    timeline = acc_stage_timeline(stage, snr, size)
    assert timeline.completion_time == pytest.approx(10.0, rel=1e-9)
    first = timeline.events[0]
    assert (first.group, first.user) == (0, 0)
    assert first.time == pytest.approx(1.0, rel=1e-12)
    second = timeline.events[1]
    assert (second.group, second.user) == (2, 0)
    assert second.time == pytest.approx(4.0, rel=1e-12)
    third_batch = [ev for ev in timeline.events if abs(ev.time - 5.0) < 1e-9]
    assert [(ev.group, ev.user) for ev in third_batch] == [(0, 1), (1, 0), (2, 1)]


def test_single_user_groups_complete_independently():
    snr = SnrMatrix(snr=np.array([[1.0], [3.0], [0.5]]))
    timeline = acc_stage_timeline((0, 1, 2), snr, 1.0)
    assert len(timeline.events) == 3
    expected = max(1.0 / math.log2(1 + s) for s in [1.0, 3.0, 0.5])
    assert timeline.completion_time == pytest.approx(expected, rel=1e-12)


def test_symmetric_rates_finish_together():
    snr = SnrMatrix(snr=np.full((3, 4), 1.0))
    timeline = acc_stage_timeline((0, 1, 2), snr, 1.0)
    assert timeline.completion_time == pytest.approx(4.0, rel=1e-12)
    final = [ev for ev in timeline.events if ev.time == timeline.completion_time]
    assert [(ev.group, ev.user) for ev in final] == [(0, 3), (1, 3), (2, 3)]


def test_zero_rate_user_raises():
    snr = SnrMatrix(snr=np.array([[1.0, 0.0], [2.0, 1.0]]))
    with pytest.raises(UnboundedDelayError):
        acc_stage_timeline((0, 1), snr, 1.0)


@pytest.mark.parametrize("stage_delay", [acc_stage_timeline,
                                         acc_stage_completion_closed_form])
@pytest.mark.parametrize("snr", [[[math.nan, 1.0]], [[math.inf, 1.0]], [[-0.5, 1.0]],
                                 [1.0, 2.0]], ids=["nan", "inf", "negative", "1-D"])
def test_a_stage_checks_a_raw_snr_array_as_a_matrix(stage_delay, snr):
    with pytest.raises(ParameterError):
        stage_delay((0,), np.array(snr), 1.0)


def test_round_robin_order_and_monotone_times():
    rng = np.random.default_rng(5)
    snr = SnrMatrix(snr=rng.exponential(1.0, size=(4, 5)) + 1e-9)
    timeline = acc_stage_timeline((0, 2, 3), snr, 0.25)
    times = [ev.time for ev in timeline.events]
    assert times == sorted(times)
    per_group = {}
    for ev in timeline.events:
        per_group.setdefault(ev.group, []).append(ev.user)
    assert set(per_group) == {0, 2, 3}
    for users in per_group.values():
        assert users == list(range(5))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31))
def test_event_simulation_matches_serial_sum_completion(gain, users, seed):
    rng = np.random.default_rng(seed)
    snr = SnrMatrix(snr=rng.exponential(1.0, size=(gain, users)) + 1e-12)
    stage = tuple(range(gain))
    timeline = acc_stage_timeline(stage, snr, 0.5)
    closed = acc_stage_completion_closed_form(stage, snr, 0.5)
    assert timeline.completion_time == pytest.approx(closed, rel=1e-9)
    assert len(timeline.events) == gain * users


def test_conservation_every_user_gets_exactly_one_segment():
    rng = np.random.default_rng(17)
    snr = SnrMatrix(snr=rng.exponential(2.0, size=(3, 6)) + 1e-12)
    size = 0.125
    timeline = acc_stage_timeline((0, 1, 2), snr, size)
    finish = {}
    for ev in timeline.events:
        started = finish.get((ev.group, ev.user - 1), 0.0)
        rate = math.log2(1.0 + snr.snr[ev.group, ev.user])
        assert (ev.time - started) * rate == pytest.approx(size, rel=1e-9)
        finish[(ev.group, ev.user)] = ev.time


def test_jsonl_serialization_round_trip(tmp_path):
    stage, snr, size = example2_stage()
    timeline = acc_stage_timeline(stage, snr, size)
    path = tmp_path / "timeline.jsonl"
    path.write_text("\n".join(timeline.jsonl_lines()) + "\n")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"t": pytest.approx(1.0), "group": 0, "user": 0}
    assert lines[-1] == {"completion_time": pytest.approx(10.0)}
    assert len(lines) == len(timeline.events) + 1


# ---------------------------------------------------------------- XOR stage delay

def test_mn_delay_symmetric_unit_case():
    assert mn_stage_delay([1.0, 1.0, 1.0], 1.0) == pytest.approx(1.0, rel=1e-12)


def test_mn_delay_is_set_by_the_worst_user():
    assert mn_stage_delay([3.0, 1.0, 7.0], 1.0) == pytest.approx(1.0, rel=1e-12)


def test_mn_delay_spot_value():
    assert mn_stage_delay([0.5], 2.0) == pytest.approx(2.0 / math.log2(1.5), rel=1e-12)
    assert mn_stage_delay([0.5], 2.0) == pytest.approx(3.419, abs=5e-4)


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
       st.randoms())
def test_mn_delay_permutation_invariant(snrs, rnd):
    shuffled = list(snrs)
    rnd.shuffle(shuffled)
    assert mn_stage_delay(shuffled, 1.0) == mn_stage_delay(snrs, 1.0)


def test_mn_delay_zero_snr_raises():
    with pytest.raises(UnboundedDelayError):
        mn_stage_delay([1.0, 0.0], 1.0)


@pytest.mark.parametrize("snrs,xor_size", [
    ([], 1.0),
    ([[1.0, 2.0]], 1.0),
    (2.0, 1.0),
    ([1.0, float("nan")], 1.0),
    ([1.0, float("inf")], 1.0),
    ([float("-inf"), 1.0], 1.0),
    ([1.0, -0.5], 1.0),
    ([1.0, 2.0], 0.0),
    ([1.0, 2.0], -1.0),
    ([1.0, 0.0], 0.0),
    # Python's min and max skip a NaN that is not first
    ([float("nan"), 1.0, 2.0], 1.0),
    ([1.0, float("nan"), 2.0], 1.0),
    ([1.0, 2.0, float("nan")], 1.0),
    ([1.0, float("nan"), -1.0], 1.0),
    ([2.0, 1.0, float("inf")], 1.0),
    (np.array([[1.0, 2.0]]), 1.0),
    (np.array([[1.0], [2.0]]), 1.0),
    (np.array(2.0), 1.0),
    (np.array([]), 1.0),
    ("12", 1.0),
    (b"12", 1.0),
])
def test_mn_delay_rejects_bad_input(snrs, xor_size):
    with pytest.raises(ParameterError):
        mn_stage_delay(snrs, xor_size)


def test_mn_delay_accepts_arrays_and_numpy_scalars():
    snrs = [np.float64(3.0), np.float64(1.0)]
    assert mn_stage_delay(snrs, 1.0) == mn_stage_delay(np.array([3.0, 1.0]), 1.0) == 1.0


# ---------------------------------------------------------------- full session

def test_single_user_groups_make_schemes_coincide():
    config = SystemConfig(nominal_gain=2, users_per_group=1, num_cache_states=3,
                          avg_snr=1.0)
    stages = enumerate_stages(config)
    realizations = [sample_snr(config, SeedSpec(base_seed=9, trial_index=i))
                    for i in range(len(stages))]
    demands = (0, 1, 2)
    acc = full_session_delay(config, demands, realizations, Scheme.ACC)
    mn = full_session_delay(config, demands, realizations, Scheme.MN)
    assert acc == pytest.approx(mn, rel=1e-12)


def test_symmetric_session_reduces_to_closed_form():
    # Lambda=2, fraction 1/2, B=2: one stage, delay (1-gamma) K / (gain rate)
    config = SystemConfig(nominal_gain=2, users_per_group=2, num_cache_states=2,
                          avg_snr=1.0)
    snr = SnrMatrix(snr=np.full((2, 2), 3.0))
    delay = full_session_delay(config, (0, 1, 2, 3), [snr], Scheme.ACC)
    rate = math.log2(4.0)
    expected = (1 - 0.5) * 4 / (2 * rate)
    assert delay == pytest.approx(expected, rel=1e-12)


def test_uncached_session_equals_serial_delivery():
    # zero cache fraction: every group gets its whole files one user at a time
    config = SystemConfig(nominal_gain=1, users_per_group=2, num_cache_states=2,
                          avg_snr=1.0)
    realizations = [sample_snr(config, SeedSpec(base_seed=31, trial_index=i))
                    for i in range(2)]
    delay = full_session_delay(config, (0, 1, 2, 3), realizations, Scheme.ACC)
    serial = sum(1.0 / math.log2(1.0 + realizations[g].snr[g, b])
                 for g in range(2) for b in range(2))
    assert delay == pytest.approx(serial, rel=1e-12)


def test_session_realization_counts_are_enforced():
    config = SystemConfig(nominal_gain=2, users_per_group=2, num_cache_states=2,
                          avg_snr=1.0)
    snr = sample_snr(config, SeedSpec(base_seed=1))
    with pytest.raises(ParameterError):
        full_session_delay(config, (0, 1, 2, 3), [snr, snr], Scheme.ACC)
    with pytest.raises(ParameterError):
        full_session_delay(config, (0, 1, 2, 3), [snr], Scheme.MN)
    with pytest.raises(ParameterError):
        full_session_delay(config, (0, 1, 2, 3), [snr], Scheme.TDM)
    with pytest.raises(ParameterError):
        full_session_delay(config, (0, 1), [snr], Scheme.ACC)


@pytest.mark.parametrize("states, gain, b, db", [
    (8, 4, 8, 0.0), (6, 3, 4, 10.0), (5, 2, 6, -10.0)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_is_the_stage_ordered_sum_of_its_stage_delays(states, gain, b, db, seed):
    config = SystemConfig.from_gain(gain, b, 10.0 ** (db / 10.0), num_cache_states=states)
    stages = enumerate_stages(config)
    size = 1.0 / math.comb(states, gain - 1)
    acc = [sample_snr(config, SeedSpec(seed, i)) for i in range(len(stages))]
    mn = [sample_snr(config, SeedSpec(seed + 100, i)) for i in range(b * len(stages))]
    demands = list(range(config.num_users))
    expected = sum(acc_stage_completion_closed_form(stage, snr, size)
                   for stage, snr in zip(stages, acc))
    assert full_session_delay(config, demands, acc, Scheme.ACC).hex() == expected.hex()
    expected = 0.0
    for r in range(b):
        for k, stage in enumerate(stages):
            expected += mn_stage_delay([mn[r * len(stages) + k].snr[g, r] for g in stage], size)
    assert full_session_delay(config, demands, mn, Scheme.MN).hex() == expected.hex()
    # raw arrays and nested lists give the same totals as the SnrMatrix
    assert (full_session_delay(config, demands, [m.snr.tolist() for m in mn], Scheme.MN).hex()
            == expected.hex())


SESSION_CONFIG = SystemConfig(nominal_gain=2, users_per_group=2, num_cache_states=3,
                              avg_snr=1.0)


def session_arrays(scheme, where=None, value=None):
    """Unit-SNR raw arrays for every realization of a SESSION_CONFIG
    session, with `value` at (realization, group, user) `where`."""
    count = {Scheme.ACC: 3, Scheme.MN: 6}[scheme]
    mats = np.ones((count, 3, 2))
    if where is not None:
        mats[where] = value
    return list(mats)


@pytest.mark.parametrize("scheme", [Scheme.ACC, Scheme.MN])
@pytest.mark.parametrize("value", [float("nan"), -0.5, -2.0, float("inf"), float("-inf")])
def test_session_rejects_a_non_finite_or_negative_snr(scheme, value):
    # an unserved entry too: stage 0 serves groups 0 and 1, member 0 in round 0
    for where in ((0, 1, 0), (0, 2, 1)):
        with pytest.raises(ParameterError):
            full_session_delay(SESSION_CONFIG, range(6), session_arrays(scheme, where, value),
                               scheme)


@pytest.mark.parametrize("scheme", [Scheme.ACC, Scheme.MN])
@pytest.mark.parametrize("count_change", [-1, 1])
def test_session_rejects_a_wrong_realization_count(scheme, count_change):
    mats = session_arrays(scheme)
    mats = mats[:-1] if count_change < 0 else mats + mats[:1]
    with pytest.raises(ParameterError, match="realizations, got"):
        full_session_delay(SESSION_CONFIG, range(6), mats, scheme)


@pytest.mark.parametrize("scheme", [Scheme.ACC, Scheme.MN])
@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (3, 1), (2, 2), (6,)], ids=str)
def test_session_rejects_realizations_of_another_topology(scheme, shape):
    mats = session_arrays(scheme)
    mats[-1] = np.ones(shape)
    with pytest.raises(ParameterError, match="stack to shape"):
        full_session_delay(SESSION_CONFIG, range(6), mats, scheme)


@pytest.mark.parametrize("value", [0.0, 1e-17])
def test_session_with_a_served_zero_rate_never_finishes(value):
    # stage (0, 2) is realization 1; its group 2 user 1 is served in round 1
    with pytest.raises(UnboundedDelayError, match=re.escape("[(2, 1)]")):
        full_session_delay(SESSION_CONFIG, range(6),
                           session_arrays(Scheme.ACC, (1, 2, 1), value), Scheme.ACC)
    with pytest.raises(UnboundedDelayError):
        full_session_delay(SESSION_CONFIG, range(6),
                           session_arrays(Scheme.MN, (3 + 1, 2, 1), value), Scheme.MN)
    with pytest.raises(UnboundedDelayError):
        mn_stage_delay([1.0, value], 1.0)


def test_session_ignores_an_unserved_zero_rate():
    # realization 0 serves groups 0 and 1 only; realization 3 serves member 1
    acc = session_arrays(Scheme.ACC, (0, 2, 0), 0.0)
    mn = session_arrays(Scheme.MN, (3, 0, 0), 0.0)
    # a stage serves each group's two unit-SNR users, one after the other, at
    # rate 1 with segments of 1/3; a round's XOR stages take 1/3 each
    assert full_session_delay(SESSION_CONFIG, range(6), acc, Scheme.ACC) == pytest.approx(2.0)
    assert full_session_delay(SESSION_CONFIG, range(6), mn, Scheme.MN) == pytest.approx(2.0)


def textbook_finish_times(stage, mat, size):
    rates = np.log2(1.0 + np.asarray(mat)[list(stage), :]).tolist()
    return [list(accumulate(size / rate for rate in row)) for row in rates]


def textbook_timeline(stage, mat, size):
    """(time, group, user) of every finish: sorted in time, then each batch
    within 1e-12 relative of its first finish moved to that time and
    listed by slot."""
    finishes = sorted((t, i, j) for i, row in enumerate(textbook_finish_times(stage, mat, size))
                      for j, t in enumerate(row))
    events, batch = [], []
    for t, i, j in finishes:
        if batch and t > batch[0][0] * (1.0 + 1e-12):
            events += [(batch[0][0], stage[i], j) for _, i, j in sorted(batch, key=lambda e: e[1:])]
            batch = []
        batch.append((t, i, j))
    events += [(batch[0][0], stage[i], j) for _, i, j in sorted(batch, key=lambda e: e[1:])]
    return events


def textbook_mn_session(stages, realizations, b, size):
    total, idx = 0.0, 0
    for round_idx in range(b):
        for stage in stages:
            served = [realizations[idx].snr[g, round_idx] for g in stage]
            total += size / math.log2(1.0 + float(np.asarray(served).min()))
            idx += 1
    return total


#: every realization of the tied session: groups 0 and 1 finish together at
#: every user, group 2 ties with them at 0.5 and 1.0, and group 1's 1e-13
#: offset is within the batching tolerance
TIED_SNR = SnrMatrix(snr=np.array([[1.0, 1.0, 3.0], [1.0, 1.0 + 1e-13, 3.0], [3.0, 3.0, 1.0]]))


#: (cache states, gain, users per group, SNR in dB): the three session
#: shapes of the analytic_session benchmark, then the tied session
@pytest.mark.parametrize("states, gain, b, db", [
    (8, 4, 8, 0.0), (6, 3, 4, 10.0), (5, 2, 6, -10.0), (3, 2, 3, None)])
def test_stage_delays_are_the_textbook_rebuilds_byte_for_byte(states, gain, b, db):
    rho = 1.0 if db is None else 10.0 ** (db / 10.0)
    config = SystemConfig.from_gain(gain, b, rho, num_cache_states=states)
    stages = enumerate_stages(config)
    size = 1.0 / math.comb(states, gain - 1)

    def draws(seed, count):
        return [TIED_SNR if db is None else sample_snr(config, SeedSpec(seed, i))
                for i in range(count)]

    acc, mn = draws(17, len(stages)), draws(18, b * len(stages))
    completions = []
    for stage, snr in zip(stages, acc):
        timeline = acc_stage_timeline(stage, snr, size)
        expected = textbook_timeline(stage, snr.snr, size)
        assert [(ev.time.hex(), ev.group, ev.user) for ev in timeline.events] == [
            (t.hex(), g, j) for t, g, j in expected]
        closed = max(row[-1] for row in textbook_finish_times(stage, snr.snr, size))
        assert timeline.completion_time.hex() == expected[-1][0].hex()
        assert acc_stage_completion_closed_form(stage, snr, size).hex() == closed.hex()
        completions.append(closed)
    demands = list(range(config.num_users))
    assert full_session_delay(config, demands, acc, Scheme.ACC).hex() == sum(completions).hex()
    assert (full_session_delay(config, demands, mn, Scheme.MN).hex()
            == textbook_mn_session(stages, mn, b, size).hex())


def test_cache_state_is_hashable_frozen():
    state = CacheState(group=0, contents=frozenset({SubfileId(file=0, cache_subset=(0,))}))
    assert state.group == 0
    assert len(state.contents) == 1
