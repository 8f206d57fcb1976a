"""Experiment runner: parameter sweeps, figure-data reproduction, system
validation, and stage-timeline export.

Sweeps emit CSV or JSON with one row per (swept value, scheme-or-method).
Monte Carlo rows of points with the same (gain, users_per_group) shape
come from one shared estimation, ``rates.mc_average_rates``.
Closed forms come from one registry, ``ANALYTICS``, keyed by analysis
method id, and every row of a sweep or figure is built by ``_row``, which
turns a numeric failure into an error row. Output is byte-reproducible for
a fixed spec and seed across runs and worker counts; wall-clock timing is
therefore left out of the files unless explicitly requested.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import special

from . import analysis
from .errors import CachecastError, ParameterError
from .rates import check_run, mc_average_rate, mc_average_rates, trial_rates
from .scheduling import (
    acc_stage_completion_closed_form,
    acc_stage_timeline,
    enumerate_stages,
    needed_subfile,
    placement,
)
from .system import (
    Scheme,
    SeedSpec,
    SnrMatrix,
    SystemConfig,
    sample_snr,
    snr_cdf,
    snr_from_db,
    substream,
)

AXIS_NAMES = ("rho_db", "users_per_group", "nominal_gain")


def _over_tdm(rate):
    """Registry entry for a closed-form rate: its gain is over the exact
    TDM rate."""
    def value(rho, users_per_group, gain):
        tdm = analysis.exact_mn_rate(rho, 1).value
        result = rate(rho, users_per_group, gain).value
        return result, result / tdm
    return value


#: closed forms by analysis method id: (rho, users_per_group, gain) ->
#: (rate, gain); the ratio limits have no rate
ANALYTICS = {
    analysis.EXACT_MN: lambda rho, b, g: (analysis.exact_mn_rate(rho, g).value,
                                          analysis.mn_gain_exact(rho, g)),
    analysis.EXACT_ACC_INTEGRAL: _over_tdm(analysis.acc_rate_exact_integral),
    analysis.LOW_SNR_MN: _over_tdm(lambda rho, b, g: analysis.mn_rate_low_snr(rho, g)),
    analysis.LOW_SNR_ACC_MULTINOMIAL: _over_tdm(analysis.acc_rate_low_snr),
    analysis.LARGE_B_NORMAL: _over_tdm(analysis.acc_rate_large_b),
    analysis.LARGE_B_RATIO_LIMIT: lambda rho, b, g: (None, analysis.acc_over_mn_large_b(rho, g)),
    analysis.LOW_SNR_RATIO_LIMIT: lambda rho, b, g: (None, analysis.acc_over_mn_low_snr(g, b)),
}

#: names accepted by --analytics, normalized to analysis method ids
ANALYTIC_ALIASES = {
    **{method: method for method in ANALYTICS},
    "exact-acc": analysis.EXACT_ACC_INTEGRAL,
    "low-snr-acc": analysis.LOW_SNR_ACC_MULTINOMIAL,
    "large-b": analysis.LARGE_B_NORMAL,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a single axis, fixed topology parameters, and the set of
    Monte Carlo schemes and closed forms to evaluate at every point."""

    axis_name: str
    axis_values: tuple
    nominal_gain: int = 4
    users_per_group: int = 4
    rho_db: float = 0.0
    library_size: int | None = None
    schemes: tuple = ()
    analytics: tuple = ()
    num_trials: int = 100_000
    base_seed: int = 42
    out_path: str | None = None
    out_format: str = "csv"
    include_timing: bool = False

    def __post_init__(self):
        if self.axis_name not in AXIS_NAMES:
            raise ParameterError(
                f"unknown sweep axis {self.axis_name!r}; expected one of {AXIS_NAMES}")
        # converted before the check: a numpy array has no truth value
        try:
            object.__setattr__(self, "axis_values", tuple(self.axis_values))
        except TypeError:
            raise ParameterError(
                f"axis_values must be a sequence, got {self.axis_values!r}") from None
        if not self.axis_values:
            raise ParameterError("the sweep axis needs at least one value")
        object.__setattr__(self, "schemes",
                           tuple(Scheme.parse(s) for s in self.schemes))
        normalized = []
        for name in self.analytics:
            key = str(name).strip().lower()
            if key not in ANALYTIC_ALIASES:
                raise ParameterError(
                    f"unknown analytic {name!r}; expected one of {sorted(set(ANALYTIC_ALIASES))}")
            normalized.append(ANALYTIC_ALIASES[key])
        object.__setattr__(self, "analytics", tuple(normalized))
        if not self.schemes and not self.analytics:
            raise ParameterError("select at least one scheme or analytic")
        if self.out_format not in ("csv", "json"):
            raise ParameterError(f"out_format must be csv or json, got {self.out_format!r}")

    def point(self, value):
        """Fixed parameters at one swept value: (rho, users_per_group, gain)."""
        if self.axis_name == "rho_db":
            return snr_from_db(value), int(self.users_per_group), int(self.nominal_gain)
        if self.axis_name == "users_per_group":
            return snr_from_db(self.rho_db), int(value), int(self.nominal_gain)
        return snr_from_db(self.rho_db), int(self.users_per_group), int(value)


@dataclass(frozen=True)
class ResultRow:
    swept: float
    scheme: str
    rate_mean: float | None = None
    rate_stderr: float | None = None
    gain: float | None = None
    gain_stderr: float | None = None
    trials: int | None = None
    wall_time_ms: float | None = None
    error: str | None = None


CSV_HEADER = ",".join(field.name for field in fields(ResultRow))


def parse_axis(text: str):
    """Parse ``name=start:stop:step`` or ``name=v1,v2,...`` axis syntax."""
    if "=" not in text:
        raise ParameterError(f"axis must look like name=values, got {text!r}")
    name, _, values = text.partition("=")
    name = name.strip().lower()
    if name in ("b", "users-per-group"):
        name = "users_per_group"
    if name in ("g", "gain"):
        name = "nominal_gain"
    if name == "rho-db":
        name = "rho_db"
    if name not in AXIS_NAMES:
        raise ParameterError(f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
    values = values.strip()
    if ":" in values:
        try:
            start, stop, step = (float(part) for part in values.split(":"))
        except ValueError:
            raise ParameterError(f"could not parse axis range {values!r}") from None
        if step <= 0:
            raise ParameterError(f"axis step must be positive, got {step}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ParameterError(f"axis range {values!r} is empty")
        parsed = [start + i * step for i in range(count)]
    else:
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ParameterError(f"could not parse axis values {values!r}") from None
    if not parsed:
        raise ParameterError(f"axis {text!r} has no values")
    if name in ("users_per_group", "nominal_gain"):
        if any(abs(v - round(v)) > 1e-9 for v in parsed):
            raise ParameterError(f"{name} axis values must be integers, got {values!r}")
        parsed = [int(round(v)) for v in parsed]
    return name, tuple(parsed)


def _derived_seed(base_seed: int, point_index: int, kind: str) -> int:
    SeedSpec(base_seed=base_seed)  # a bad seed is a ParameterError
    # crc32 keeps the derivation stable across processes (unlike hash())
    entropy = (int(base_seed), int(point_index), zlib.crc32(kind.encode()))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _row(swept, scheme, compute, shared_s=0.0):
    """One output row from compute(), which returns the row's other cells.
    A CachecastError becomes an error row instead of aborting the sweep;
    any other row carries the time of compute() plus `shared_s`, that of
    the shared work the row reads."""
    started = time.perf_counter()
    try:
        cells = compute()
    except CachecastError as exc:
        return ResultRow(swept=float(swept), scheme=scheme,
                         error=f"{type(exc).__name__}: {exc}")
    return ResultRow(swept=float(swept), scheme=scheme,
                     wall_time_ms=1e3 * (shared_s + time.perf_counter() - started), **cells)


def _mc_seed(base_seed: int, gain: int, users_per_group: int) -> int:
    """Seed of the shared draws of every point with this shape."""
    return _derived_seed(base_seed, gain, f"shared-draws[b={users_per_group}]")


def _mc_estimates(spec):
    """Shared Monte Carlo estimate of every point, by point index, with the
    time in seconds its shape's estimation took. Points with the same
    (gain, users_per_group) shape are one estimation: one draw per chunk
    serves all their SNRs and every scheme, TDM always included as the gain
    reference. A bad trial count or seed fails the sweep; any other
    CachecastError stands in for the estimate of its shape's points, whose
    rows become error rows."""
    shapes = {}
    for index, value in enumerate(spec.axis_values):
        rho, users_per_group, gain = spec.point(value)
        # built even without schemes: an impossible topology fails the sweep
        SystemConfig.from_gain(gain, users_per_group, rho, library_size=spec.library_size)
        shapes.setdefault((gain, users_per_group), []).append((index, rho))
    if not spec.schemes:
        return {}
    check_run(spec.num_trials, spec.base_seed)
    schemes = tuple(dict.fromkeys((Scheme.TDM,) + spec.schemes))
    estimates = {}
    for (gain, users_per_group), points in shapes.items():
        started = time.perf_counter()
        try:
            shared = mc_average_rates(gain, users_per_group, [rho for _, rho in points],
                                      schemes, spec.num_trials,
                                      _mc_seed(spec.base_seed, gain, users_per_group))
        except CachecastError as exc:
            shared = [exc] * len(points)
        elapsed = time.perf_counter() - started
        estimates.update((index, (estimate, elapsed))
                         for (index, _), estimate in zip(points, shared))
    return estimates


def _gain_cells(gain):
    return {"gain": gain.value, "gain_stderr": gain.std_err,
            "trials": gain.numerator.num_trials}


def _mc_cells(shared, scheme):
    if isinstance(shared, CachecastError):
        raise shared
    rate = shared.rates[scheme]
    return {"rate_mean": rate.mean, "rate_stderr": rate.std_err,
            **_gain_cells(shared.gain(scheme))}


def _closed_form_row(swept, scheme, closed_form, rho, users_per_group, gain):
    """Row of one closed form shaped like the ANALYTICS entries."""
    return _row(swept, scheme, lambda: dict(
        zip(("rate_mean", "gain"), closed_form(rho, users_per_group, gain))))


def run_sweep(spec: ExperimentSpec, *, label_suffix: str = "") -> list:
    """Evaluate the sweep and, when the spec names an output path, write it
    atomically. Per-point numeric failures land in the row's error column
    without aborting the sweep."""
    estimates = _mc_estimates(spec)
    rows = []
    for index, value in enumerate(spec.axis_values):
        rho, users_per_group, gain = spec.point(value)
        if index in estimates:
            shared, elapsed = estimates[index]
            rows += [_row(value, scheme.value + label_suffix,
                          lambda scheme=scheme: _mc_cells(shared, scheme), elapsed)
                     for scheme in spec.schemes]
        rows += [_closed_form_row(value, method + label_suffix, ANALYTICS[method],
                                  rho, users_per_group, gain)
                 for method in spec.analytics]
    if spec.out_path:
        write_rows(rows, spec.out_path, spec.out_format, spec.include_timing)
    return rows


def _record(row: ResultRow, include_timing: bool) -> dict:
    """The row's fields in CSV_HEADER order; timing is rounded, or dropped
    unless asked for, since it differs between reruns."""
    record = asdict(row)
    timing = row.wall_time_ms if include_timing else None
    record["wall_time_ms"] = None if timing is None else round(timing, 3)
    return record


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-sweep-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_rows(rows, path: str, out_format: str = "csv", include_timing: bool = False):
    records = [_record(row, include_timing) for row in rows]
    if out_format == "csv":
        # None is written as an empty cell, floats as repr; only cells with a
        # comma or quote (error messages) are quoted
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(record.values() for record in records)
        _atomic_write(path, text.getvalue())
    elif out_format == "json":
        _atomic_write(path, json.dumps(records, indent=2, sort_keys=True) + "\n")
    else:
        raise ParameterError(f"unknown output format {out_format!r}")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _fig1(trials, seed):
    # XOR-scheme gain collapse vs average SNR, one curve per nominal gain
    rows = []
    for gain in (2, 5, 10):
        spec = ExperimentSpec("rho_db", np.arange(-20.0, 30.0 + 1e-9, 1.0),
                              nominal_gain=gain, users_per_group=1,
                              analytics=("exact-mn",), num_trials=trials, base_seed=seed)
        rows += run_sweep(spec, label_suffix=f"[g={gain}]")
    return rows


def _fig3(trials, seed):
    # effective gains vs SNR at gain 10: XOR baseline and aggregated curves
    rows = []
    axis = np.arange(-20.0, 30.0 + 1e-9, 2.0)
    rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=10, users_per_group=1,
                                     schemes=("mn",), num_trials=trials, base_seed=seed))
    for b in (2, 4, 6):
        rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=10, users_per_group=b,
                                         schemes=("acc",), num_trials=trials, base_seed=seed),
                          label_suffix=f"[b={b}]")
    return rows


def _fig4(trials, seed):
    # low-SNR aggregated-over-XOR ratio vs users per group
    rows = []
    for gain, b_max in ((2, 16), (5, 16), (10, 12)):
        spec = ExperimentSpec("users_per_group", range(1, b_max + 1), nominal_gain=gain,
                              analytics=("low-snr-ratio-limit",), num_trials=trials,
                              base_seed=seed)
        rows += run_sweep(spec, label_suffix=f"[g={gain}]")
    return rows


def _fig5(trials, seed):
    # aggregated average rate vs SNR at gain 4: simulation, exact integral,
    # low-SNR forms
    rows = []
    axis = np.arange(-20.0, 10.0 + 1e-9, 2.0)
    rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=4, users_per_group=1,
                                     schemes=("mn",), analytics=("low-snr-mn",),
                                     num_trials=trials, base_seed=seed),
                      label_suffix="[b=1]")
    for b in (2, 3):
        rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=4, users_per_group=b,
                                         schemes=("acc",),
                                         analytics=("exact-acc-integral", "low-snr-acc"),
                                         num_trials=trials, base_seed=seed),
                          label_suffix=f"[b={b}]")
    return rows


def _fig6(trials, seed):
    # aggregated average rate vs SNR at three users per group, varying gain
    rows = []
    axis = np.arange(-20.0, 10.0 + 1e-9, 2.0)
    for gain in (2, 4, 8):
        rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=gain, users_per_group=3,
                                         schemes=("acc",), analytics=("low-snr-acc",),
                                         num_trials=trials, base_seed=seed),
                          label_suffix=f"[g={gain}]")
    return rows


def _fig7(trials, seed):
    # aggregated rate vs users per group at 0 dB, large-B normal form
    rows = []
    axis = (2, 4, 6, 8, 10, 16, 24, 32, 48, 64)
    for gain in (2, 3, 4, 5):
        rows += run_sweep(ExperimentSpec("users_per_group", axis, nominal_gain=gain,
                                         rho_db=0.0, schemes=("acc",),
                                         analytics=("large-b-normal",),
                                         num_trials=trials, base_seed=seed),
                          label_suffix=f"[g={gain}]")
    return rows


def _fig8(trials, seed):
    # the same large-B form at gain 10 under the different H evaluations
    axis = (2, 4, 6, 8, 10, 16, 24, 32, 48, 64)
    rows = run_sweep(ExperimentSpec("users_per_group", axis, nominal_gain=10, rho_db=0.0,
                                    schemes=("acc",), num_trials=trials, base_seed=seed))
    for method in (analysis.H_INTEGRAL, analysis.H_GHQ, analysis.H_ASYMPTOTIC):
        large_b = _over_tdm(functools.partial(analysis.acc_rate_large_b, h_method=method))
        rows += [_closed_form_row(b, f"large-b-normal[h={method}]", large_b,
                                  snr_from_db(0.0), b, 10)
                 for b in axis]
    return rows


def _mc_ratio_rows(axis, gain, users_per_group, trials, seed, label):
    """Monte Carlo ACC-over-MN rate ratio at every SNR of the axis, from the
    draws a sweep of both schemes shares, so the ratio's error counts their
    covariance."""
    started = time.perf_counter()
    shared = mc_average_rates(gain, users_per_group, [snr_from_db(v) for v in axis],
                              (Scheme.ACC, Scheme.MN), trials,
                              _mc_seed(seed, gain, users_per_group))
    elapsed = time.perf_counter() - started
    return [_row(value, f"mc-ratio[{label}]",
                 lambda estimate=estimate: _gain_cells(estimate.gain(Scheme.ACC, Scheme.MN)),
                 elapsed)
            for value, estimate in zip(axis, shared)]


def _large_b_ghq_over_mn(rho, users_per_group, gain):
    acc = analysis.acc_rate_large_b(rho, users_per_group, gain, h_method=analysis.H_GHQ).value
    return acc, acc / analysis.exact_mn_rate(rho, gain).value


def _fig9(trials, seed):
    # aggregated-over-XOR ratio vs SNR for gains beyond the closed-form
    # table, H via order-7 Gauss-Hermite
    rows = []
    axis = np.arange(-20.0, 30.0 + 1e-9, 2.0)
    for gain in (6, 8, 10):
        rows += [_closed_form_row(value, f"ratio-large-b-ghq7[g={gain}]",
                                  _large_b_ghq_over_mn, snr_from_db(value), 6, gain)
                 for value in axis]
        rows += _mc_ratio_rows(axis, gain, 6, trials, seed, f"g={gain}")
    return rows


def _fig10(trials, seed):
    # aggregated-over-XOR ratio vs SNR at gain 4 for several group sizes,
    # with the many-users limit curve as reference
    rows = []
    axis = np.arange(-20.0, 30.0 + 1e-9, 2.0)
    for b in (2, 8, 32):
        rows += _mc_ratio_rows(axis, 4, b, trials, seed, f"b={b}")
    rows += run_sweep(ExperimentSpec("rho_db", axis, nominal_gain=4,
                                     analytics=("large-b-ratio-limit",),
                                     num_trials=trials, base_seed=seed))
    return rows


FIGURE_PRESETS = {
    "fig1": _fig1, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6,
    "fig7": _fig7, "fig8": _fig8, "fig9": _fig9, "fig10": _fig10,
}


def run_figure(name: str, out_dir: str, num_trials: int = 100_000,
               base_seed: int = 42) -> str:
    """Produce one figure preset's data as <out_dir>/<name>.csv.

    Axis ranges mirror the reference plots qualitatively; they are
    documented choices, not pixel-faithful reconstructions.
    """
    if name not in FIGURE_PRESETS:
        raise ParameterError(
            f"unknown figure preset {name!r}; expected one of {sorted(FIGURE_PRESETS)}")
    rows = FIGURE_PRESETS[name](num_trials, base_seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    write_rows(rows, path, "csv")
    return path


# ---------------------------------------------------------------------------
# validation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    config: SystemConfig
    num_trials: int
    base_seed: int
    tol_scale: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "num_trials": self.num_trials,
            "base_seed": self.base_seed,
            "tol_scale": self.tol_scale,
            "config": {
                "num_users": self.config.num_users,
                "num_cache_states": self.config.num_cache_states,
                "cache_fraction": float(self.config.cache_fraction),
                "library_size": self.config.library_size,
                "avg_snr": self.config.avg_snr,
            },
            "checks": [asdict(check) for check in self.checks],
        }


def _ks_statistic(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_samples)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(grid - cdf_values),
                                   np.abs(grid - 1.0 / n - cdf_values))))


def validate_system(config: SystemConfig, num_trials: int = 100_000,
                    base_seed: int = 42, tol_scale: float = 1.0) -> ValidationReport:
    """Statistical and structural self-checks on one configuration.

    tol_scale multiplies every tolerance: 1.0 is the calibrated default,
    0.0 makes statistical checks impossible to pass (harness self-test).
    """
    if tol_scale < 0:
        raise ParameterError("tol_scale must be nonnegative")
    if num_trials < 1000:
        raise ParameterError("validation needs at least 1000 trials")
    checks = []
    rho = config.avg_snr
    gain = config.nominal_gain
    rng = substream(SeedSpec(base_seed=base_seed, trial_index=0))

    def add(name, measured, limit, detail=""):
        checks.append(CheckResult(name=name, passed=bool(measured <= limit),
                                  measured=float(measured), limit=float(limit),
                                  detail=detail))

    # exponential sampling: mean and CDF spot value
    n = int(num_trials)
    draws = -rho * np.log1p(-rng.random(n))
    add("snr-sample-mean", abs(draws.mean() - rho),
        4.0 * rho / math.sqrt(n) * tol_scale, "law of large numbers, 4 sigma")
    p = snr_cdf(rho, rho)
    add("snr-cdf-at-mean", abs(np.mean(draws <= rho) - p),
        4.0 * math.sqrt(p * (1 - p) / n) * tol_scale, "binomial 4 sigma")

    # worst-of-gain SNR is exponential with mean rho/gain
    m = min(n, 100_000)
    mins = (-rho * np.log1p(-rng.random((m, gain)))).min(axis=1)
    mins.sort()
    ks = _ks_statistic(mins, 1.0 - np.exp(-mins * gain / rho))
    # the 1.628/sqrt(m) limits and the p-values both come from the asymptotic
    # Kolmogorov law, so at tol_scale 1 a failing check reports p < 0.00998
    add("min-snr-ks", ks, 1.628 / math.sqrt(m) * tol_scale,
        f"KS vs Exp(rho/gain), 1% level; p={special.kolmogorov(math.sqrt(m) * ks):.3g}")

    # per-group capacity-sum structure: sum of B exponentials ~ Gamma(B, rho)
    b = config.users_per_group
    sums = (-rho * np.log1p(-rng.random((m, b)))).sum(axis=1)
    sums.sort()
    gamma_cdf = special.gammainc(b, sums / rho)
    ks = _ks_statistic(sums, gamma_cdf)
    add("group-sum-gamma-ks", ks, 1.628 / math.sqrt(m) * tol_scale,
        f"KS vs Gamma(B, rho), 1% level; p={special.kolmogorov(math.sqrt(m) * ks):.3g}")

    # timeline vs serial-sum completion + conservation
    worst_completion = 0.0
    worst_conservation = 0.0
    stage = tuple(range(gain))
    for trial in range(200):
        snr = sample_snr(config, SeedSpec(base_seed=base_seed, trial_index=trial + 1))
        timeline = acc_stage_timeline(stage, snr, 1.0)
        closed = acc_stage_completion_closed_form(stage, snr, 1.0)
        worst_completion = max(worst_completion,
                               abs(timeline.completion_time - closed) / closed)
        finish = {}
        for ev in timeline.events:
            # group service is serial, so the user's service interval runs
            # from the previous member's finish to its own
            started = finish.get((ev.group, ev.user - 1), 0.0)
            rate = math.log2(1.0 + snr.snr[ev.group, ev.user])
            worst_conservation = max(worst_conservation,
                                     abs((ev.time - started) * rate - 1.0))
            finish[(ev.group, ev.user)] = ev.time
    add("timeline-closed-form", worst_completion, 1e-9 * tol_scale,
        "timeline vs serial-sum completion")
    add("timeline-conservation", worst_conservation, 1e-9 * tol_scale,
        "delivered data per user equals the segment size")

    # placement clique property, exhaustive for small cache counts
    if config.num_cache_states <= 8:
        caches = placement(config)
        missing = 0
        total = 0
        for stage_set in enumerate_stages(config):
            for slot in range(len(stage_set)):
                subfile = needed_subfile(stage_set, slot, demand=0)
                for other_slot, group in enumerate(stage_set):
                    if other_slot == slot:
                        continue
                    total += 1
                    if subfile not in caches[group].contents:
                        missing += 1
        add("placement-clique", float(missing), 0.0,
            f"{total} (stage, slot, peer) membership checks")

    # Monte Carlo estimators vs closed forms
    mc_tdm = mc_average_rate(config, Scheme.TDM, max(num_trials, 10_000),
                             _derived_seed(base_seed, 0, "validate-tdm"))
    exact_tdm = analysis.exact_mn_rate(rho, 1).value
    add("mc-tdm-vs-exact", abs(mc_tdm.mean - exact_tdm),
        4.0 * mc_tdm.std_err * tol_scale, "4 standard errors")
    mc_mn = mc_average_rate(config, Scheme.MN, max(num_trials, 10_000),
                            _derived_seed(base_seed, 0, "validate-mn"))
    exact_mn = analysis.exact_mn_rate(rho, gain).value
    add("mc-mn-vs-exact", abs(mc_mn.mean - exact_mn),
        4.0 * mc_mn.std_err * tol_scale, "4 standard errors")

    # single-user-per-group reduction: aggregated and XOR metrics coincide
    if config.users_per_group == 1:
        acc = trial_rates(config, Scheme.ACC, 5000, _derived_seed(base_seed, 0, "b1"))
        mn = trial_rates(config, Scheme.MN, 5000, _derived_seed(base_seed, 0, "b1"))
        add("acc-mn-single-user-pathwise", float(np.max(np.abs(acc - mn))), 0.0,
            "bit-identical per-trial metrics")

    # multinomial constant spot values
    add("psi-single-user", abs(analysis.psi(gain, 1) - 1.0 / gain), 1e-12 * tol_scale)
    add("psi-single-group", abs(analysis.psi(1, 3) - 3.0), 1e-12 * tol_scale)
    add("psi-two-by-two", abs(analysis.psi(2, 2) - 1.25), 1e-12 * tol_scale)

    # expected-extreme constant: closed-form table vs defining integral
    worst_h = max(abs(analysis.h_order_stat(g, analysis.H_TABLE)
                      - analysis.h_order_stat(g, analysis.H_INTEGRAL))
                  for g in range(1, 6))
    add("h-table-vs-integral", worst_h, 1e-8 * tol_scale)

    return ValidationReport(config=config, num_trials=num_trials,
                            base_seed=base_seed, tol_scale=tol_scale,
                            checks=tuple(checks))


# ---------------------------------------------------------------------------
# timeline export
# ---------------------------------------------------------------------------

#: Per-user rates (subfiles per slot) of the worked three-group example;
#: SNRs are reconstructed so log2(1+snr) lands back on these numbers.
EXAMPLE2_RATES = (
    (1.0, 0.25, 0.2),
    (0.2, 1.0, 0.25),
    (0.25, 1.0, 0.2),
)


def example2_stage():
    """(stage, SnrMatrix, subfile_size) of the worked round-robin example."""
    rates = np.asarray(EXAMPLE2_RATES)
    return (0, 1, 2), SnrMatrix(snr=2.0 ** rates - 1.0), 1.0


def timeline_for(config: SystemConfig | None = None, stage=None,
                 seed: SeedSpec | None = None, subfile_size: float = 1.0,
                 preset: str | None = None):
    """Build a stage timeline either from the example preset or from a
    sampled realization of the given config."""
    if preset is not None:
        if preset != "example2":
            raise ParameterError(f"unknown timeline preset {preset!r}")
        stage, snr, size = example2_stage()
        return acc_stage_timeline(stage, snr, size)
    if config is None or seed is None:
        raise ParameterError("timeline needs either a preset or (config, seed)")
    if stage is None:
        stage = tuple(range(config.nominal_gain))
    snr = sample_snr(config, seed)
    return acc_stage_timeline(stage, snr, subfile_size)
