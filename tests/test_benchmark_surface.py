import importlib
import inspect
import numbers

import numpy as np

from cachecast import analysis, experiments, rates, scheduling, system

#: Every package name the benchmark reaches, with the keywords it passes:
#: the round bodies in bench/child.py call them, and the tracer in
#: bench/tracing.py wraps the modules' public functions, counts calls of
#: rates.mc_average_rate and scheduling.acc_stage_timeline, replaces
#: numerics.integrate, and reports the per-layer metrics BENCHMARK.json names
#: (experiments.run_sweep, system.substream, ...). The benchmark runs each
#: commit's own sources, so a name cut from the package would fail its rounds
#: only after the change is made; this list makes that a test failure instead.
BENCHMARK_SURFACE = {
    "cli.main": (),
    "analysis.acc_rate_exact_integral": (),
    "analysis.capacity_sum_cdf": (),
    "analysis.psi": (),
    "analysis.h_order_stat": ("method", "ghq_order"),
    "analysis.exact_mn_rate": (),
    "analysis.mn_rate_low_snr": (),
    "analysis.acc_rate_low_snr": (),
    "analysis.acc_rate_large_b": (),
    "system.SystemConfig.from_gain": ("num_cache_states",),
    "system.sample_snr": (),
    "system.substream": (),
    "system.SeedSpec": (),
    "scheduling.enumerate_stages": (),
    "scheduling.acc_stage_timeline": (),
    "scheduling.full_session_delay": (),
    "scheduling.mn_stage_delay": (),
    "experiments.timeline_for": ("preset",),
    "experiments.run_sweep": (),
    "experiments.write_rows": (),
    "rates.mc_average_rate": (),
    "numerics.log_char_moment": (),
    "numerics.integrate.quad": (),
}


def test_every_name_the_benchmark_reaches_resolves():
    for dotted, keywords in BENCHMARK_SURFACE.items():
        module_name, *path = dotted.split(".")
        module = importlib.import_module(f"cachecast.{module_name}")
        obj = module
        for part in path:
            obj = getattr(obj, part)
        assert callable(obj), dotted
        if len(path) == 1 and inspect.isfunction(obj):
            # the tracer wraps only functions defined in the module itself
            assert obj.__module__ == module.__name__, dotted
        if keywords:
            assert set(keywords) <= set(inspect.signature(obj).parameters), dotted
    assert {"integral", "ghq", "asymptotic"} <= set(analysis.H_METHODS)


def test_every_result_field_the_benchmark_reads_is_there():
    # bench/child.py reads .value, .snr and .completion_time from what the
    # round bodies return, and bench/tracing.py counts .num_trials and
    # .events on the results of the calls it wraps
    assert isinstance(analysis.exact_mn_rate(1.0, 2).value, float)
    assert isinstance(analysis.mn_rate_low_snr(0.01, 2).value, float)
    assert isinstance(analysis.acc_rate_low_snr(0.01, 2, 2).value, float)
    config = system.SystemConfig.from_gain(2, 2, 1.0, num_cache_states=3)
    snr = system.sample_snr(config, system.SeedSpec(7, 0))
    assert np.asarray(snr.snr).shape == (3, 2)
    timeline = scheduling.acc_stage_timeline((0, 1), snr, 0.5)
    assert isinstance(timeline.completion_time, float)
    assert len(timeline.events) == 4
    assert isinstance(experiments.timeline_for(preset="example2").completion_time, float)
    estimate = rates.mc_average_rate(config, "tdm", 100, 1)
    assert isinstance(estimate.num_trials, numbers.Integral) and estimate.num_trials == 100
