import importlib
import inspect

from cachecast import analysis

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
