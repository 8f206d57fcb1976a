"""Host-speed probe: calibration loops timed in between the program's work.

The benchmark runs on a shared virtual machine whose speed drifts by 20-100%
over minutes: the same pure-Python loop takes 3.3 ms in one second and 5.5 ms
a few seconds later, with under 1% steal time, so CPU time drifts as much as
wall time. A figure timed on such a host measures the neighbours as much as the
program. The probe times a fixed calibration loop many times while the
program runs (from a timer signal, every `INTERVAL_S`) and a few times
right after the imports, and the benchmark scales each measured time by
`REFERENCE_S / median(calibration time)`: the time the work would have taken
at the reference speed. A change to the program moves the scaled time as it
moves the raw one, since the calibration loops do not call the program.

Two loops, because the drift is not the same for every kind of work:
`python` (interpreter-bound: float maths, dict stores) and `numpy` (random
numbers, `log1p` and a sum over a 1 MiB array). Each workload is scaled by
one of them (`BODY_LOOP`).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: seconds between calibration samples during a timed body
INTERVAL_S = 0.05
#: time of each calibration loop at the reference speed (the fast end of the
#: host it was written on); only a unit, so the scaled figures read as seconds
REFERENCE_S = {"python": 0.0015, "numpy": 0.0006}

_BUFFER = np.empty(131_072)  # 1 MiB, allocated once at import, never freed
_RNG = np.random.default_rng(0)


def _python_loop():
    total, slots = 0.0, {}
    for i in range(8_000):
        total += math.exp(-i * 1e-4) * i
        slots[i & 63] = total
    return total


def _numpy_loop():
    out = _BUFFER
    _RNG.random(out=out)
    np.log1p(out, out=out)
    return float(out.sum())


LOOPS = {"python": _python_loop, "numpy": _numpy_loop}
#: the loop each workload body is scaled by: the one whose scaled times
#: spread least across seeds and drifted least between sets of runs
#: (README.md, "Host speed"); set-up (imports) is interpreter work
BODY_LOOP = {"mc_sweep": "numpy", "exact_acc": "python", "analytic_session": "python"}
SETUP_LOOP = "python"


def sample(kind):
    """Time one calibration loop of `kind`."""
    start = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - start


def samples(kind, count):
    """`count` samples of one loop, e.g. right after set-up."""
    return [sample(kind) for _ in range(count)]


class Probe:
    """Context manager that samples the loop `kind` every `INTERVAL_S` of
    the body it wraps. `spent_wall`/`spent_cpu` is the time the samples
    took, which the caller takes off the body's time."""

    def __init__(self, kind, interval=INTERVAL_S):
        self.kind = kind
        self.interval = interval
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _on_timer(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append(sample(self.kind))
        self.spent_cpu += time.process_time() - cpu
        self.spent_wall += time.perf_counter() - wall

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(samples_of_kind, kind):
    """Factor that turns a time measured alongside these samples into a
    time at the reference speed."""
    return REFERENCE_S[kind] / statistics.median(samples_of_kind)
