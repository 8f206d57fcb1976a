"""Acceptance suite: one test per criterion (criterion 8 is split into its
four sub-checks). Every criterion runs at its stated tolerance and prints
one PASS line on success; a failed assertion is the criterion's FAIL line.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cachecast import analysis
from cachecast.analysis import (
    acc_rate_exact_integral,
    acc_rate_large_b,
    acc_rate_low_snr,
    exact_mn_rate,
    h_order_stat,
    mn_gain_exact,
    psi,
)
from cachecast.rates import effective_gain, mc_average_rate, trial_rates
from cachecast.scheduling import (
    acc_stage_completion_closed_form,
    acc_stage_timeline,
    enumerate_stages,
    needed_subfile,
    placement,
)
from cachecast.system import Scheme, SeedSpec, SnrMatrix, SystemConfig, substream
from cachecast.experiments import CSV_HEADER, example2_stage

LN2 = math.log(2.0)


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def mc_acc(rho, users_per_group, gain, trials, seed):
    config = SystemConfig.from_gain(gain, users_per_group, rho)
    return mc_average_rate(config, Scheme.ACC, trials, seed)


# -------------------------------------------------------------------------
# criterion 1: closed-form MN rate vs Monte Carlo, 3x3 grid, <= 60 s
# -------------------------------------------------------------------------

# independently derived (40-digit arithmetic) values of the closed form
EXACT_MN_REFERENCE = {
    (0.1, 2): 0.137686617891, (0.1, 4): 0.140830783211, (0.1, 10): 0.142854830322,
    (1.0, 2): 1.04257400743, (1.0, 4): 1.19077538329, (1.0, 10): 1.32097967802,
    (10.0, 2): 4.30889366303, (10.0, 4): 6.04678508602, (10.0, 10): 8.60347382271,
}


def test_criterion_01_exact_mn_matches_monte_carlo():
    started = time.perf_counter()
    worst_z = 0.0
    for (rho, gain), reference in EXACT_MN_REFERENCE.items():
        closed_form = exact_mn_rate(rho, gain).value
        assert closed_form == pytest.approx(reference, abs=2e-11)
        config = SystemConfig.from_gain(gain, 1, rho)
        estimate = mc_average_rate(config, Scheme.MN, 1_000_000,
                                   base_seed=1000 + round(10 * rho) * 100 + gain)
        z = abs(estimate.mean - closed_form) / estimate.std_err
        worst_z = max(worst_z, z)
        assert z < 3.0, f"rho={rho}, gain={gain}: z={z:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report("criterion 1", f"9 grid points within 3 standard errors "
                          f"(worst z={worst_z:.2f}) in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 2: single-user-per-group reduction is pathwise exact
# -------------------------------------------------------------------------

def test_criterion_02_single_user_metrics_bit_identical():
    config = SystemConfig.from_gain(4, 1, avg_snr=1.0)
    acc = trial_rates(config, Scheme.ACC, 10_000, base_seed=20)
    mn = trial_rates(config, Scheme.MN, 10_000, base_seed=20)
    assert acc.shape == (10_000,)
    assert np.array_equal(acc, mn)
    report("criterion 2", "10^4 coupled realizations bit-identical")


# -------------------------------------------------------------------------
# criterion 3: gain collapse at low SNR
# -------------------------------------------------------------------------

def test_criterion_03_low_snr_gain_collapse():
    exact = mn_gain_exact(1e-3, 10)
    assert 1.0 <= exact <= 1.05
    rho = 10.0 ** (-30.0 / 10.0)
    config = SystemConfig.from_gain(10, 1, rho)
    mn = mc_average_rate(config, Scheme.MN, 1_000_000, base_seed=33)
    tdm = mc_average_rate(config, Scheme.TDM, 1_000_000, base_seed=34)
    gain = effective_gain(mn, tdm)
    assert 0.95 <= gain.value <= 1.1
    report("criterion 3", f"exact gain {exact:.5f} in [1, 1.05]; "
                          f"-30 dB Monte Carlo gain {gain.value:.4f} in [0.95, 1.1]")


# -------------------------------------------------------------------------
# criterion 4: multinomial constant vs 10^7-sample Monte Carlo oracle
# -------------------------------------------------------------------------

def min_gamma_mc(gain, users_per_group, samples, seed):
    # the oracle's own stream, fixed apart from the package's generator:
    # Philox from the seed sequence spawned at key (0,)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    total = total_sq = 0.0
    remaining = samples
    while remaining:
        block = min(1_000_000, remaining)
        gammas = rng.standard_gamma(users_per_group, size=(block, gain))
        # a running minimum over the columns: numpy reduces a short row one
        # element at a time, several times slower, and the minimum is exact
        draws = gammas[:, 0].copy()
        for column in range(1, gain):
            np.minimum(draws, gammas[:, column], out=draws)
        total += float(draws.sum())
        total_sq += float((draws * draws).sum())
        remaining -= block
    mean = total / samples
    var = (total_sq - samples * mean * mean) / (samples - 1)
    return mean, math.sqrt(var / samples)


@pytest.mark.slow
def test_criterion_04_psi_oracle_equivalence():
    assert psi(3, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert psi(1, 4) == pytest.approx(4.0, rel=1e-12)
    assert psi(2, 2) == pytest.approx(1.25, rel=1e-12)
    worst_z = 0.0
    pairs = [(g, b) for g in range(1, 10) for b in range(1, 11 - g)]
    assert len(pairs) == 45
    for gain, users in pairs:
        exact = psi(gain, users)
        mc_mean, mc_se = min_gamma_mc(gain, users, 10_000_000,
                                      seed=4_000 + 100 * gain + users)
        if mc_se == 0.0:  # degenerate: min over one deterministic mean path
            continue
        z = abs(exact - mc_mean) / mc_se
        worst_z = max(worst_z, z)
        assert z < 3.0, f"gain={gain}, users={users}: z={z:.2f}"
    report("criterion 4", f"45 (gain, group-size) pairs within 3 standard "
                          f"errors (worst z={worst_z:.2f})")


# -------------------------------------------------------------------------
# criterion 5: low-SNR multinomial rate accuracy
# -------------------------------------------------------------------------

def test_criterion_05_low_snr_acc_accuracy():
    combos = [(2, 2), (3, 4), (6, 10)]
    for rho, tol in ((10.0 ** (-20 / 10), 0.03), (10.0 ** (-30 / 10), 0.015)):
        for users, gain in combos:
            approx = acc_rate_low_snr(rho, users, gain).value
            mc = mc_acc(rho, users, gain, 1_000_000, seed=500 + users * 10 + gain)
            rel = abs(approx - mc.mean) / mc.mean
            assert rel <= tol, (f"rho={rho:.4g}, users={users}, gain={gain}: "
                                f"relative error {rel:.4f} > {tol}")
    report("criterion 5", "relative error <= 3% at -20 dB and <= 1.5% at -30 dB "
                          "for all three shapes")


# -------------------------------------------------------------------------
# criterion 6: exact inversion integral vs Monte Carlo, <= 5 min
# -------------------------------------------------------------------------

def test_criterion_06_exact_integral_matches_monte_carlo():
    started = time.perf_counter()
    cases = [(1.0, 2, 2), (1.0, 3, 4), (0.1, 3, 4)]
    zs = []
    for rho, users, gain in cases:
        value = acc_rate_exact_integral(rho, users, gain).value
        mc = mc_acc(rho, users, gain, 1_000_000, seed=600 + users * 10 + gain)
        z = abs(value - mc.mean) / mc.std_err
        zs.append(z)
        assert z < 3.0, f"(rho={rho}, users={users}, gain={gain}): z={z:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    report("criterion 6", f"z-scores {['%.2f' % z for z in zs]} in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 7: large-group normal approximation, 5% band for B >= 10
# -------------------------------------------------------------------------

def test_criterion_07_large_b_accuracy():
    worst = 0.0
    for users in (10, 20, 50):
        for gain in (4, 10):
            approx = acc_rate_large_b(1.0, users, gain,
                                      h_method=analysis.H_INTEGRAL).value
            mc = mc_acc(1.0, users, gain, 300_000, seed=700 + users + gain)
            rel = abs(approx - mc.mean) / mc.mean
            worst = max(worst, rel)
            assert rel <= 0.05, f"users={users}, gain={gain}: {rel:.4f} > 5%"
    report("criterion 7", f"six shapes within 5% of simulation "
                          f"(worst {100 * worst:.2f}%)")


# -------------------------------------------------------------------------
# criterion 8: the expected-extreme constant H
# -------------------------------------------------------------------------

def test_criterion_08a_table_values_symbolic():
    symbolic = {
        1: 0.0,
        2: math.pi ** -0.5,
        3: 1.5 * math.pi ** -0.5,
        4: 3.0 * math.pi ** -1.5 * math.acos(-1.0 / 3.0),
        5: 2.5 * math.pi ** -1.5 * math.acos(-23.0 / 27.0),
    }
    for gain, value in symbolic.items():
        assert abs(h_order_stat(gain, "table") - value) <= 1e-12
    report("criterion 8a", "closed-form table reproduced to 1e-12")


def test_criterion_08b_integral_matches_table():
    worst = max(abs(h_order_stat(g, "integral") - h_order_stat(g, "table"))
                for g in range(1, 6))
    assert worst <= 1e-8
    report("criterion 8b", f"integral vs table worst |diff| {worst:.2e} <= 1e-8")


def test_criterion_08c_ghq_order_seven_matches_integral():
    # Seven nodes suffice because `ghq` centres them on the mode of the
    # by-parts integrand and scales them by its curvature there.
    worst = 0.0
    worst_gain = None
    for gain in range(1, 21):
        diff = abs(h_order_stat(gain, "ghq", ghq_order=7)
                   - h_order_stat(gain, "integral"))
        if diff > worst:
            worst, worst_gain = diff, gain
    assert worst <= 1e-3, (
        f"order-7 GHQ vs integral: worst |diff| {worst:.3e} at {worst_gain} "
        f"variables exceeds the stated 1e-3")
    report("criterion 8c", f"order-7 GHQ within 1e-3 of the integral (worst {worst:.2e})")


def test_criterion_08d_bounds_hold_up_to_ten_thousand():
    gains = sorted(set(list(range(2, 21))
                       + [int(round(10 ** e)) for e in np.linspace(1.4, 4.0, 14)]))
    assert gains[-1] == 10_000
    for gain in gains:
        h = h_order_stat(gain, "integral")
        upper = math.sqrt(2.0 * math.log(gain))
        lower = math.sqrt(math.log(gain) / (math.pi * math.log(2.0)))
        assert lower - 1e-9 <= h <= upper + 1e-9, f"gain={gain}"
    ratio = h_order_stat(10_000, "integral") / math.sqrt(2.0 * math.log(10_000))
    assert abs(ratio - 1.0) <= 0.15
    report("criterion 8d", f"bounds hold on {len(gains)} sizes up to 1e4; "
                           f"asymptote ratio {ratio:.3f}")


# -------------------------------------------------------------------------
# criterion 9: nominal-gain recovery with growing group size
# -------------------------------------------------------------------------

def test_criterion_09_gain_recovery_in_group_size():
    rho, gain = 1.0, 4
    tdm = mc_average_rate(SystemConfig.from_gain(1, 1, rho), Scheme.TDM,
                          400_000, base_seed=900)
    mc_gains = []
    for users in (1, 4, 16, 64):
        acc = mc_acc(rho, users, gain, 400_000, seed=901 + users)
        mc_gains.append(effective_gain(acc, tdm).value)
    assert mc_gains == sorted(mc_gains), f"not monotone: {mc_gains}"
    assert mc_gains[-1] >= 3.5
    predicted = (acc_rate_large_b(rho, 64, gain, h_method=analysis.H_TABLE).value
                 / exact_mn_rate(rho, 1).value)
    rel = abs(mc_gains[-1] - predicted) / predicted
    assert rel <= 0.03, f"Monte Carlo {mc_gains[-1]:.4f} vs predicted {predicted:.4f}"
    report("criterion 9", f"gains {['%.3f' % g for g in mc_gains]} monotone, "
                          f"final within {100 * rel:.2f}% of the normal form")


# -------------------------------------------------------------------------
# criterion 10: stage-schedule fidelity
# -------------------------------------------------------------------------

def test_criterion_10_stage_timeline_fidelity():
    stage, snr, size = example2_stage()
    timeline = acc_stage_timeline(stage, snr, size)
    assert timeline.completion_time == pytest.approx(10.0, rel=1e-9)
    first, second = timeline.events[0], timeline.events[1]
    assert (first.group, first.user) == (0, 0)
    assert first.time == pytest.approx(1.0, rel=1e-9)
    assert (second.group, second.user) == (2, 0)
    assert second.time == pytest.approx(4.0, rel=1e-9)
    fifth_slot = [ev for ev in timeline.events if abs(ev.time - 5.0) < 1e-9]
    assert [(ev.group, ev.user) for ev in fifth_slot] == [(0, 1), (1, 0), (2, 1)]

    rng = substream(SeedSpec(base_seed=1010, trial_index=0))
    worst = 0.0
    for _ in range(10_000):
        gain = int(rng.integers(1, 6))
        users = int(rng.integers(1, 7))
        matrix = SnrMatrix(snr=rng.exponential(1.0, size=(gain, users)) + 1e-12)
        stage = tuple(range(gain))
        simulated = acc_stage_timeline(stage, matrix, 0.5).completion_time
        closed = acc_stage_completion_closed_form(stage, matrix, 0.5)
        worst = max(worst, abs(simulated - closed) / closed)
    assert worst <= 1e-9
    report("criterion 10", f"worked example reproduced; closed-form cross-check "
                           f"worst relative gap {worst:.2e} over 10^4 stages")


# -------------------------------------------------------------------------
# criterion 11: placement clique property, exhaustive
# -------------------------------------------------------------------------

def test_criterion_11_clique_property_exhaustive():
    checked = 0
    for states in range(1, 9):
        for subset_size in range(0, states):
            config = SystemConfig(nominal_gain=subset_size + 1, users_per_group=1,
                                  num_cache_states=states, avg_snr=1.0)
            caches = {state.group: state.contents for state in placement(config)}
            for stage in enumerate_stages(config):
                for slot in range(len(stage)):
                    subfile = needed_subfile(stage, slot, demand=0)
                    for other_slot, group in enumerate(stage):
                        if other_slot == slot:
                            continue
                        assert subfile in caches[group], (
                            f"states={states}, subset={subset_size}, "
                            f"stage={stage}, slot={slot}")
                        checked += 1
    report("criterion 11", f"{checked} membership checks over all cache "
                           f"counts up to 8")


# -------------------------------------------------------------------------
# criterion 12: byte-identical sweep output across worker counts
# -------------------------------------------------------------------------

def test_criterion_12_sweep_determinism_across_workers(tmp_path):
    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"workers{workers}.csv"
        env = dict(os.environ, CACHECAST_WORKERS=workers)
        result = subprocess.run(
            [sys.executable, "-m", "cachecast", "sweep",
             "--axis", "rho_db=-10:10:5", "--gain", "3", "--users-per-group", "2",
             "--schemes", "mn,acc,tdm", "--analytics", "exact-mn",
             "--trials", "20000", "--seed", "77", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs[workers] = out.read_bytes()
    assert outputs["1"] == outputs["8"]
    header = outputs["1"].decode().splitlines()[0]
    assert header == CSV_HEADER
    report("criterion 12", f"{len(outputs['1'])} bytes identical for 1 and 8 workers")
