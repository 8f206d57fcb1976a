"""Command-line front end.

Subcommands: ``sweep`` (parameter sweeps to CSV/JSON), ``figure`` (named
figure-data presets, or ``all`` of them), ``validate`` (self-checks with a
machine-readable report), ``timeline`` (JSON-lines event log of one
transmission stage).

Average SNR is given in dB on the command line and converted to linear
internally. Exit codes: 0 success, 1 validation failure, 2 parameter
error or an output that cannot be written, 3 numeric error. The
CACHECAST_WORKERS environment variable sets the Monte Carlo worker count,
by default the number of usable cores, at most two; results are identical
for any value. A top-level ``-v`` logs the time of every shared Monte Carlo
estimation (with the workers that ran and its draw and metric seconds)
and closed-form row to stderr; output files are the same with or without
it.
Every output goes through ``experiments.write_text``: to the ``--out`` path
atomically, creating its directory, or to stdout where ``--out`` is optional
(``sweep``, ``validate``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import NumericsError, ParameterError
from .experiments import (
    FIGURE_PRESETS,
    ExperimentSpec,
    parse_axis,
    run_figure,
    run_sweep,
    timeline_for,
    validate_system,
    write_rows,
    write_text,
)
from .system import SeedSpec, SystemConfig, snr_from_db


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="Cache-aided delivery over Rayleigh fading: sweeps, "
                    "figure data, validation, stage timelines.")
    parser.add_argument("-v", dest="verbose", action="store_true",
                        help="log timings to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--axis", help="sweep axis, e.g. rho_db=-20:30:1 or b=2,4,8")
    sweep.add_argument("--gain", type=int, help="nominal gain (served groups)")
    sweep.add_argument("--users-per-group", type=int)
    sweep.add_argument("--rho-db", type=float, help="average SNR in dB when fixed")
    sweep.add_argument("--schemes", help="comma list from tdm,mn,acc,mc-ratio (ACC over MN)")
    sweep.add_argument("--analytics", help="comma list, e.g. exact-mn,large-b")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", help="output file path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"))
    sweep.add_argument("--config", help="JSON file with spec fields; flags override")

    figure = sub.add_parser("figure", help="reproduce figure presets")
    figure.add_argument("names", nargs="+", metavar="name",
                        choices=sorted(FIGURE_PRESETS) + ["all"],
                        help="preset names, or 'all' for every preset")
    figure.add_argument("--out", required=True, help="output directory")
    figure.add_argument("--trials", type=int, default=100_000)
    figure.add_argument("--seed", type=int, default=42)

    validate = sub.add_parser("validate", help="run the self-check suite")
    validate.add_argument("--trials", type=int, default=100_000)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--gain", type=int, default=2)
    validate.add_argument("--users-per-group", type=int, default=4)
    validate.add_argument("--cache-states", type=int,
                          help="cache states (>= gain, default the gain); "
                               "fixes the placement size")
    validate.add_argument("--rho-db", type=float, default=0.0)
    validate.add_argument("--tol-scale", type=float, default=1.0)
    validate.add_argument("--out", help="write the JSON report here instead of stdout")

    timeline = sub.add_parser("timeline", help="export one stage's event log")
    timeline.add_argument("--preset", choices=("example2",))
    timeline.add_argument("--gain", type=int, default=3)
    timeline.add_argument("--users-per-group", type=int, default=3)
    timeline.add_argument("--rho-db", type=float, default=0.0)
    timeline.add_argument("--seed", type=int, default=42)
    timeline.add_argument("--subfile-size", type=float, default=1.0)
    timeline.add_argument("--out", required=True, help="JSON-lines output path")
    return parser


#: config keys and flags -> ExperimentSpec fields; "out" and "format" go to
#: the writer, not the spec
_SWEEP_KEYS = {
    "axis": "axis", "gain": "nominal_gain", "users_per_group": "users_per_group",
    "rho_db": "rho_db", "schemes": "schemes", "analytics": "analytics",
    "trials": "num_trials", "seed": "base_seed", "out": "out", "format": "format",
}


def _split_list(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return tuple(part.strip() for part in str(value).split(",") if part.strip())


def _sweep_spec(args):
    """(spec, output path, format) from config-file keys overridden by flags;
    anything unset or null keeps its default: ExperimentSpec's, stdout, CSV.
    Setting the swept field as well, by flag or key, is a ParameterError."""
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"could not read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _SWEEP_KEYS:
                raise ParameterError(f"unknown config field {key!r}")
            if value is not None:
                settings[_SWEEP_KEYS[key]] = value
    for flag, field_name in _SWEEP_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            settings[field_name] = value

    out, out_format = settings.pop("out", None), settings.pop("format", "csv")
    if out_format not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {out_format!r}")
    axis = settings.pop("axis", None)
    if axis is None:
        raise ParameterError("a sweep axis is required (--axis or config file)")
    axis_name, axis_values = parse_axis(str(axis))
    if axis_name in settings:
        raise ParameterError(f"{axis_name} is the sweep axis, so it cannot also be fixed")
    for key in ("schemes", "analytics"):
        if key in settings:
            settings[key] = _split_list(settings[key])
    spec = ExperimentSpec(axis_name=axis_name, axis_values=axis_values, **settings)
    return spec, out, out_format


def _cmd_sweep(args) -> int:
    spec, out, out_format = _sweep_spec(args)
    write_rows(run_sweep(spec), out, out_format)
    return 0


def _cmd_figure(args) -> int:
    names = sorted(FIGURE_PRESETS) if "all" in args.names else args.names
    for name in names:
        print(run_figure(name, args.out, num_trials=args.trials, base_seed=args.seed),
              flush=True)
    return 0


def _cmd_validate(args) -> int:
    config = SystemConfig.from_gain(args.gain, args.users_per_group,
                                    snr_from_db(args.rho_db),
                                    num_cache_states=args.cache_states)
    report = validate_system(config, num_trials=args.trials,
                             base_seed=args.seed, tol_scale=args.tol_scale)
    write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_timeline(args) -> int:
    if args.preset:
        timeline = timeline_for(preset=args.preset)
    else:
        config = SystemConfig.from_gain(args.gain, args.users_per_group,
                                        snr_from_db(args.rho_db))
        timeline = timeline_for(config=config, seed=SeedSpec(base_seed=args.seed),
                                subfile_size=args.subfile_size)
    write_text("\n".join(timeline.jsonl_lines()) + "\n", args.out)
    print(args.out)
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
    "timeline": _cmd_timeline,
}


def exit_code_for(exc: Exception) -> int:
    """Exit-code policy: parameter errors and unwritable outputs 2, numeric
    errors 3."""
    if isinstance(exc, (ParameterError, OSError)):
        return 2
    if isinstance(exc, NumericsError):
        return 3
    raise exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    log = logging.getLogger("cachecast")
    if args.verbose:
        handler = logging.StreamHandler()  # stderr
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if args.verbose:
            log.removeHandler(handler)
            log.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
