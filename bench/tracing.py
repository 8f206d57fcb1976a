"""Per-layer tracing of cachecast from outside the package.

`install` wraps every public function defined in a cachecast module and
rebinds each module attribute that refers to it, including the names the
package's modules import from one another, so calls between layers pass
through the wrappers. `scipy.integrate.quad` is traced by giving
`cachecast.numerics` and `cachecast.analysis` a stand-in for their
`integrate` module. Each wrapper records calls, inclusive time (outermost
call of a function only, so recursion is not counted twice) and self time
(inclusive minus the time of traced calls made inside it).
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from collections import defaultdict

LAYERS = ("numerics", "system", "scheduling", "rates", "analysis", "experiments", "cli")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = dict.fromkeys(("rates.minor_faults", "rates.sys_s", "rates.trials",
                                     "numerics.quad.neval", "scheduling.timeline_events"), 0)
        self.names = []
        self._depth = defaultdict(int)
        self._stack = []  # child time accumulated by each open span

    def wrap(self, name, fn, count=None):
        """`count(counts, result, usage_before)` adds what the call did;
        it gets the process's resource usage before the outermost call."""
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            self._stack.append(0.0)
            usage = resource.getrusage(resource.RUSAGE_SELF) if count and outermost else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self._depth[name] -= 1
                if outermost:
                    self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
            if count:
                count(self.counts, result, usage)
            return result

        return traced


def _mc_usage(counts, estimate, usage):
    if usage is None:  # nested call, already counted by the outer one
        return
    now = resource.getrusage(resource.RUSAGE_SELF)
    counts["rates.minor_faults"] += now.ru_minflt - usage.ru_minflt
    counts["rates.sys_s"] += now.ru_stime - usage.ru_stime
    counts["rates.trials"] += estimate.num_trials


def _quad_evals(counts, out, usage):
    if isinstance(out, tuple) and len(out) > 2:  # full_output=1
        counts["numerics.quad.neval"] += out[2]["neval"]


def _timeline_events(counts, timeline, usage):
    counts["scheduling.timeline_events"] += len(timeline.events)


_COUNTERS = {
    "rates.mc_average_rate": _mc_usage,
    "scheduling.acc_stage_timeline": _timeline_events,
}


class _Integrate:
    """scipy.integrate with `quad` replaced."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(package) -> Tracer:
    """Trace `package` (the imported cachecast) for the rest of the process."""
    tracer = Tracer()
    modules = [getattr(package, layer) for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, _COUNTERS.get(name))
    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    stand_in = _Integrate(package.numerics.integrate)
    stand_in.quad = tracer.wrap("numerics.quad", stand_in.quad, _quad_evals)
    package.numerics.integrate = stand_in
    package.analysis.integrate = stand_in
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round: calls and inclusive seconds of
    every traced function, the counters, and derived rates."""
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.inclusive[name]
        out[f"{name}.self_s"] = tracer.self_time[name]
    out.update(tracer.counts)
    seconds = tracer.inclusive["rates.mc_average_rate"]
    out["rates.trials_per_s"] = tracer.counts["rates.trials"] / seconds if seconds else 0.0
    return out
