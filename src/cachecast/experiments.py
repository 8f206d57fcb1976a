"""Experiment runner: parameter sweeps, figure-data reproduction, system
validation, and stage-timeline export.

Sweeps emit CSV or JSON with one row per (swept value, scheme-or-method).
Monte Carlo rows of points with the same (gain, users_per_group) shape
come from one shared estimation, ``rates.mc_average_rates``.
Closed forms come from one registry, ``ANALYTICS``, keyed by analysis
method id. A figure preset is data: a list of sweep specs in
``FIGURE_PRESETS``, so ``run_sweep`` makes every row of a sweep or figure,
and ``_row`` turns a numeric failure into an error row. Rows hold results
only, so output is byte-reproducible for a fixed spec and seed across runs
and worker counts; the time of each shared estimation and closed-form row
goes to the ``cachecast`` logger at INFO level instead.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import os
import sys
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import special

from . import analysis
from .errors import CachecastError, ParameterError, check_int
from .rates import check_run, mc_average_rates, trial_rates
from .scheduling import (
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
    exponentials,
    sample_snr,
    snr_cdf,
    snr_from_db,
    substream,
)

AXIS_NAMES = ("rho_db", "users_per_group", "nominal_gain")

#: Monte Carlo row beside the schemes: the ACC-over-MN gain of the shared
#: estimate, whose error counts the covariance of the two rates
MC_RATIO = "mc-ratio"

log = logging.getLogger(__name__)


def _over_mn(rate, rho, reference_gain=1):
    """(rate, gain) of a closed-form rate: the gain is over the exact MN rate
    at reference_gain, which at 1 is the TDM rate."""
    return rate.value, rate.value / analysis.exact_mn_rate(rho, reference_gain).value


#: closed forms by name: (rho, users_per_group, gain) -> (rate, gain); the
#: ratio limits have no rate. Every analysis method id, the large-B form
#: under each explicit H evaluation, and the large-B form with order-7 GHQ
#: over exact MN. Each entry looks its analysis function up when called.
ANALYTICS = {
    analysis.EXACT_MN: lambda rho, b, g: (analysis.exact_mn_rate(rho, g).value,
                                          analysis.mn_gain_exact(rho, g)),
    analysis.EXACT_ACC_INTEGRAL:
        lambda rho, b, g: _over_mn(analysis.acc_rate_exact_integral(rho, b, g), rho),
    analysis.LOW_SNR_MN: lambda rho, b, g: _over_mn(analysis.mn_rate_low_snr(rho, g), rho),
    analysis.LOW_SNR_ACC_MULTINOMIAL:
        lambda rho, b, g: _over_mn(analysis.acc_rate_low_snr(rho, b, g), rho),
    analysis.LARGE_B_NORMAL: lambda rho, b, g: _over_mn(analysis.acc_rate_large_b(rho, b, g), rho),
    **{f"{analysis.LARGE_B_NORMAL}[h={h}]": lambda rho, b, g, h=h: _over_mn(
        analysis.acc_rate_large_b(rho, b, g, h_method=h), rho)
       for h in (analysis.H_INTEGRAL, analysis.H_GHQ, analysis.H_ASYMPTOTIC)},
    "ratio-large-b-ghq7": lambda rho, b, g: _over_mn(
        analysis.acc_rate_large_b(rho, b, g, h_method=analysis.H_GHQ), rho, g),
    analysis.LARGE_B_RATIO_LIMIT: lambda rho, b, g: (None, analysis.acc_over_mn_large_b(rho, g)),
    analysis.LOW_SNR_RATIO_LIMIT: lambda rho, b, g: (None, analysis.acc_over_mn_low_snr(g, b)),
}

#: names accepted by --analytics, normalized to ANALYTICS names
ANALYTIC_ALIASES = {
    **{method: method for method in ANALYTICS},
    "exact-acc": analysis.EXACT_ACC_INTEGRAL,
    "low-snr-acc": analysis.LOW_SNR_ACC_MULTINOMIAL,
    "large-b": analysis.LARGE_B_NORMAL,
}


def _number(name, value, integral):
    """A numeric spec value: a finite real, and where integral is set an
    integral one, returned as an int. Anything else is a ParameterError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if math.isfinite(value) and not (integral and value != int(value)):
            return int(value) if integral else value
    raise ParameterError(
        f"{name} must be {'an integer' if integral else 'a finite number'}, got {value!r}")


def _mc_row(name):
    """A Monte Carlo row name: a delivery scheme's value, or mc-ratio."""
    if str(name).strip().lower() == MC_RATIO:
        return MC_RATIO
    try:
        return Scheme.parse(name).value
    except ParameterError:
        raise ParameterError(f"unknown scheme {name!r}; expected one of "
                             f"{[scheme.value for scheme in Scheme] + [MC_RATIO]}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a single axis, fixed topology parameters, and the set of
    Monte Carlo rows (schemes, or mc-ratio) and closed forms to evaluate at
    every point. Trial count and seed are checked as for a Monte Carlo
    estimate (rates.check_run) even without one, whatever rows it holds."""

    axis_name: str
    axis_values: tuple
    nominal_gain: int = 4
    users_per_group: int = 4
    rho_db: float = 0.0
    schemes: tuple = ()
    analytics: tuple = ()
    num_trials: int = 100_000
    base_seed: int = 42

    def __post_init__(self):
        if self.axis_name not in AXIS_NAMES:
            raise ParameterError(
                f"unknown sweep axis {self.axis_name!r}; expected one of {AXIS_NAMES}")
        # converted before the check: a numpy array has no truth value
        try:
            values = tuple(self.axis_values)
        except TypeError:
            raise ParameterError(
                f"axis_values must be a sequence, got {self.axis_values!r}") from None
        if not values:
            raise ParameterError("the sweep axis needs at least one value")
        object.__setattr__(self, "axis_values", tuple(
            _number(self.axis_name, value, self.axis_name != "rho_db") for value in values))
        for name in ("nominal_gain", "users_per_group", "rho_db"):
            object.__setattr__(self, name, _number(name, getattr(self, name), name != "rho_db"))
        object.__setattr__(self, "schemes", tuple(_mc_row(s) for s in self.schemes))
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
        check_run(self.num_trials, self.base_seed)

    def point(self, value):
        """Fixed parameters at one swept value: (rho, users_per_group, gain)."""
        if self.axis_name == "rho_db":
            return snr_from_db(value), self.users_per_group, self.nominal_gain
        if self.axis_name == "users_per_group":
            return snr_from_db(self.rho_db), value, self.nominal_gain
        return snr_from_db(self.rho_db), self.users_per_group, value


@dataclass(frozen=True)
class ResultRow:
    swept: float
    scheme: str
    rate_mean: float | None = None
    rate_stderr: float | None = None
    gain: float | None = None
    gain_stderr: float | None = None
    trials: int | None = None
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
        if not all(math.isfinite(part) for part in (start, stop, step)):
            raise ParameterError(f"axis range {values!r} must be finite")
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
    return name, tuple(parsed)


def _derived_seed(base_seed: int, point_index: int, kind: str) -> int:
    # crc32 keeps the derivation stable across processes (unlike hash())
    entropy = (int(base_seed), int(point_index), zlib.crc32(kind.encode()))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _row(swept, scheme, compute):
    """One output row from compute(), which returns the row's other cells.
    A CachecastError becomes an error row instead of aborting the sweep."""
    try:
        cells = compute()
    except CachecastError as exc:
        return ResultRow(swept=float(swept), scheme=scheme,
                         error=f"{type(exc).__name__}: {exc}")
    return ResultRow(swept=float(swept), scheme=scheme, **cells)


def _mc_seed(base_seed: int, gain: int, users_per_group: int) -> int:
    """Seed of the shared draws of every point with this shape."""
    return _derived_seed(base_seed, gain, f"shared-draws[b={users_per_group}]")


def _mc_estimates(spec):
    """Shared Monte Carlo estimate of every point, by point index. Points
    with the same (gain, users_per_group) shape are one estimation, logged
    with its time: one draw per chunk serves all their SNRs and every
    scheme, TDM always included as the gain reference. A CachecastError
    stands in for the estimate of its shape's points, whose rows become
    error rows. The log record also gives the workers that ran, the seconds
    spent drawing and building the metrics, and the throughput, trials
    times SNRs per second."""
    shapes = {}
    for index, value in enumerate(spec.axis_values):
        rho, users_per_group, gain = spec.point(value)
        # built even without schemes: an impossible topology fails the sweep
        SystemConfig.from_gain(gain, users_per_group, rho)
        shapes.setdefault((gain, users_per_group), []).append((index, rho))
    if not spec.schemes:
        return {}
    # TDM is the gain reference; mc-ratio reads ACC and MN
    schemes = tuple(dict.fromkeys(["tdm"] + [
        scheme for name in spec.schemes
        for scheme in (("acc", "mn") if name == MC_RATIO else (name,))]))
    estimates = {}
    for (gain, users_per_group), points in shapes.items():
        timings = {}  # filled by mc_average_rates, empty if it rejects the shape
        started = time.perf_counter()
        try:
            shared = mc_average_rates(gain, users_per_group, [rho for _, rho in points],
                                      schemes, spec.num_trials,
                                      _mc_seed(spec.base_seed, gain, users_per_group),
                                      timings=timings)
        except CachecastError as exc:
            shared = [exc] * len(points)
        seconds = time.perf_counter() - started
        log.info("shared estimation gain=%d users_per_group=%d: %d SNRs, %d trials, "
                 "%d workers, draw %.6f s, metrics %.6f s, %.0f trial-SNRs/s, cpu %.6f s, %.6f s",
                 gain, users_per_group, len(points), spec.num_trials, timings.get("workers", 0),
                 timings.get("draw_s", 0.0), timings.get("metrics_s", 0.0),
                 spec.num_trials * len(points) / seconds, timings.get("cpu_s", 0.0), seconds)
        estimates.update((index, estimate) for (index, _), estimate in zip(points, shared))
    return estimates


def _mc_cells(shared, name):
    """Cells of a Monte Carlo row: a scheme's rate and gain over TDM, or
    only the ACC-over-MN gain for mc-ratio. A failed shape raises its error."""
    if isinstance(shared, CachecastError):
        raise shared
    scheme, reference = (Scheme.ACC, Scheme.MN) if name == MC_RATIO else (Scheme(name), Scheme.TDM)
    gain, rate = shared.gain(scheme, reference), shared.rates[scheme]
    cells = {"gain": gain.value, "gain_stderr": gain.std_err, "trials": rate.num_trials}
    if name == MC_RATIO:
        return cells
    return {"rate_mean": rate.mean, "rate_stderr": rate.std_err, **cells}


def run_sweep(spec: ExperimentSpec, *, label_suffix: str = "") -> list:
    """Evaluate the sweep into rows. Per-point numeric failures land in the
    row's error column without aborting the sweep. Each closed-form row is
    logged with its time."""
    estimates = _mc_estimates(spec)
    rows = []
    for index, value in enumerate(spec.axis_values):
        rho, users_per_group, gain = spec.point(value)
        if index in estimates:
            rows += [_row(value, name + label_suffix,
                          lambda shared=estimates[index], name=name: _mc_cells(shared, name))
                     for name in spec.schemes]
        for method in spec.analytics:
            started = time.perf_counter()
            rows.append(_row(value, method + label_suffix, lambda: dict(
                zip(("rate_mean", "gain"), ANALYTICS[method](rho, users_per_group, gain)))))
            log.info("closed form %s at %s: %.6f s", rows[-1].scheme, rows[-1].swept,
                     time.perf_counter() - started)
    return rows


def write_text(text: str, path: str | None):
    """The one writer of every command's output: to stdout when there is no
    path, otherwise atomically (a temporary file in the same directory,
    then os.replace), creating the directory first."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-cachecast-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_rows(rows, path: str | None, out_format: str = "csv"):
    """Rows as CSV or JSON, through write_text (stdout when path is None)."""
    records = [asdict(row) for row in rows]
    if out_format == "csv":
        # None is written as an empty cell, floats as repr; only cells with a
        # comma or quote (error messages) are quoted
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(record.values() for record in records)
        write_text(text.getvalue(), path)
    elif out_format == "json":
        write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", path)
    else:
        raise ParameterError(f"unknown output format {out_format!r}")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _entry(axis_name, axis_values, suffix="", **spec_fields):
    """One preset entry: (ExperimentSpec fields, label suffix)."""
    return dict(axis_name=axis_name, axis_values=axis_values, **spec_fields), suffix


_SNR = np.arange(-20.0, 30.0 + 1e-9, 2.0)
_LOW_SNR = np.arange(-20.0, 10.0 + 1e-9, 2.0)
_GROUP_SIZES = (2, 4, 6, 8, 10, 16, 24, 32, 48, 64)

#: figure presets: each an ordered list of (ExperimentSpec fields, label
#: suffix) entries, run by figure_rows. Axis ranges mirror the reference
#: plots qualitatively; they are documented choices, not pixel-faithful
#: reconstructions.
FIGURE_PRESETS = {
    # XOR-scheme gain collapse vs average SNR, one curve per nominal gain
    "fig1": [_entry("rho_db", np.arange(-20.0, 30.0 + 1e-9, 1.0), f"[g={g}]", nominal_gain=g,
                    users_per_group=1, analytics=("exact-mn",)) for g in (2, 5, 10)],
    # effective gains vs SNR at gain 10: XOR baseline and aggregated curves
    "fig3": [_entry("rho_db", _SNR, nominal_gain=10, users_per_group=1, schemes=("mn",))]
            + [_entry("rho_db", _SNR, f"[b={b}]", nominal_gain=10, users_per_group=b,
                      schemes=("acc",)) for b in (2, 4, 6)],
    # low-SNR aggregated-over-XOR ratio vs users per group
    "fig4": [_entry("users_per_group", range(1, b_max + 1), f"[g={g}]", nominal_gain=g,
                    analytics=("low-snr-ratio-limit",))
             for g, b_max in ((2, 16), (5, 16), (10, 12))],
    # aggregated average rate vs SNR at gain 4: simulation, exact integral,
    # low-SNR forms
    "fig5": [_entry("rho_db", _LOW_SNR, "[b=1]", nominal_gain=4, users_per_group=1,
                    schemes=("mn",), analytics=("low-snr-mn",))]
            + [_entry("rho_db", _LOW_SNR, f"[b={b}]", nominal_gain=4, users_per_group=b,
                      schemes=("acc",), analytics=("exact-acc-integral", "low-snr-acc"))
               for b in (2, 3)],
    # aggregated average rate vs SNR at three users per group, varying gain
    "fig6": [_entry("rho_db", _LOW_SNR, f"[g={g}]", nominal_gain=g, users_per_group=3,
                    schemes=("acc",), analytics=("low-snr-acc",)) for g in (2, 4, 8)],
    # aggregated rate vs users per group at 0 dB, large-B normal form
    "fig7": [_entry("users_per_group", _GROUP_SIZES, f"[g={g}]", nominal_gain=g,
                    schemes=("acc",), analytics=("large-b-normal",)) for g in (2, 3, 4, 5)],
    # the same large-B form at gain 10 under the different H evaluations
    "fig8": [_entry("users_per_group", _GROUP_SIZES, nominal_gain=10, schemes=("acc",))]
            + [_entry("users_per_group", _GROUP_SIZES, nominal_gain=10,
                      analytics=(f"large-b-normal[h={h}]",))
               for h in (analysis.H_INTEGRAL, analysis.H_GHQ, analysis.H_ASYMPTOTIC)],
    # aggregated-over-XOR ratio vs SNR for gains beyond the closed-form
    # table, H via order-7 Gauss-Hermite, beside the Monte Carlo ratio
    "fig9": [_entry("rho_db", _SNR, f"[g={g}]", nominal_gain=g, users_per_group=6, **kind)
             for g in (6, 8, 10)
             for kind in ({"analytics": ("ratio-large-b-ghq7",)}, {"schemes": (MC_RATIO,)})],
    # aggregated-over-XOR ratio vs SNR at gain 4 for several group sizes,
    # with the many-users limit curve as reference
    "fig10": [_entry("rho_db", _SNR, f"[b={b}]", nominal_gain=4, users_per_group=b,
                     schemes=(MC_RATIO,)) for b in (2, 8, 32)]
             + [_entry("rho_db", _SNR, nominal_gain=4, analytics=("large-b-ratio-limit",))],
}


def figure_rows(name: str, trials: int, seed: int) -> list:
    """One figure preset's rows: run_sweep over its entries in order."""
    if name not in FIGURE_PRESETS:
        raise ParameterError(
            f"unknown figure preset {name!r}; expected one of {sorted(FIGURE_PRESETS)}")
    rows = []
    for spec_fields, suffix in FIGURE_PRESETS[name]:
        spec = ExperimentSpec(**spec_fields, num_trials=trials, base_seed=seed)
        rows += run_sweep(spec, label_suffix=suffix)
    return rows


def run_figure(name: str, out_dir: str, num_trials: int = 100_000,
               base_seed: int = 42) -> str:
    """Write one figure preset's rows to <out_dir>/<name>.csv."""
    rows = figure_rows(name, num_trials, base_seed)
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
    if not 0 <= tol_scale < math.inf:
        raise ParameterError(f"tol_scale must be finite and nonnegative, got {tol_scale}")
    n = check_int(num_trials, "num_trials", minimum=1000)
    checks = []
    rho = config.avg_snr
    gain = config.nominal_gain
    rng = substream(SeedSpec(base_seed=base_seed, trial_index=0))

    def add(name, measured, limit, detail=""):
        checks.append(CheckResult(name=name, passed=bool(measured <= limit),
                                  measured=float(measured), limit=float(limit),
                                  detail=detail))

    # exponential sampling: mean and CDF spot value
    draws = exponentials(rng, n, rho)
    add("snr-sample-mean", abs(draws.mean() - rho),
        4.0 * rho / math.sqrt(n) * tol_scale, "law of large numbers, 4 sigma")
    p = snr_cdf(rho, rho)
    add("snr-cdf-at-mean", abs(np.mean(draws <= rho) - p),
        4.0 * math.sqrt(p * (1 - p) / n) * tol_scale, "binomial 4 sigma")

    # worst-of-gain SNR is exponential with mean rho/gain
    m = min(n, 100_000)
    mins = exponentials(rng, (m, gain), rho).min(axis=1)
    mins.sort()
    ks = _ks_statistic(mins, 1.0 - np.exp(-mins * gain / rho))
    # the 1.628/sqrt(m) limits and the p-values both come from the asymptotic
    # Kolmogorov law, so at tol_scale 1 a failing check reports p < 0.00998
    add("min-snr-ks", ks, 1.628 / math.sqrt(m) * tol_scale,
        f"KS vs Exp(rho/gain), 1% level; p={special.kolmogorov(math.sqrt(m) * ks):.3g}")

    # per-group capacity-sum structure: sum of B exponentials ~ Gamma(B, rho)
    b = config.users_per_group
    sums = exponentials(rng, (m, b), rho).sum(axis=1)
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
        # each group serves its members one after another, so the stage
        # ends when the slowest group has sent every member's subfile
        closed = float(np.max(np.sum(1.0 / np.log2(1.0 + snr.snr[list(stage)]), axis=1)))
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

    # Monte Carlo estimators vs exact rates, the three schemes from one draw
    (mc,) = mc_average_rates(gain, b, [rho], (Scheme.TDM, Scheme.MN, Scheme.ACC),
                             max(n, 10_000), _derived_seed(base_seed, 0, "validate-mc"))
    for name, scheme, exact in (
            ("mc-tdm-vs-exact", Scheme.TDM, analysis.exact_mn_rate(rho, 1)),
            ("mc-mn-vs-exact", Scheme.MN, analysis.exact_mn_rate(rho, gain)),
            ("mc-acc-vs-exact", Scheme.ACC, analysis.acc_rate_exact_integral(rho, b, gain))):
        estimate = mc.rates[scheme]
        add(name, abs(estimate.mean - exact.value), 4.0 * estimate.std_err * tol_scale,
            "4 standard errors")

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

    return ValidationReport(config=config, num_trials=n,
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


def timeline_for(config: SystemConfig | None = None, seed: SeedSpec | None = None,
                 subfile_size: float = 1.0, preset: str | None = None):
    """Build a stage timeline either from the example preset or from a
    sampled realization of the given config, serving groups 0..gain-1."""
    if preset is not None:
        if preset != "example2":
            raise ParameterError(f"unknown timeline preset {preset!r}")
        stage, snr, size = example2_stage()
        return acc_stage_timeline(stage, snr, size)
    if config is None or seed is None:
        raise ParameterError("timeline needs either a preset or (config, seed)")
    snr = sample_snr(config, seed)
    return acc_stage_timeline(tuple(range(config.nominal_gain)), snr, subfile_size)
