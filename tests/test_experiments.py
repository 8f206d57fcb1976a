import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special, stats

from cachecast import analysis, cli, experiments, rates, system
from cachecast.cli import exit_code_for, main
from cachecast.errors import NumericsError, ParameterError
from cachecast.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    FIGURE_PRESETS,
    figure_rows,
    parse_axis,
    run_figure,
    run_sweep,
    timeline_for,
    validate_system,
    write_rows,
)
from cachecast.rates import mc_average_rates
from cachecast.system import SeedSpec, SystemConfig, snr_from_db


# ---------------------------------------------------------------- axis parsing

def test_parse_colon_range():
    name, values = parse_axis("rho_db=-20:30:10")
    assert name == "rho_db"
    assert values == (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0)


def test_parse_comma_list_and_aliases():
    assert parse_axis("b=1,2,4") == ("users_per_group", (1, 2, 4))
    assert parse_axis("gain=2,5,10") == ("nominal_gain", (2, 5, 10))
    assert parse_axis("rho-db=0:1:1") == ("rho_db", (0.0, 1.0))


@pytest.mark.parametrize("text", ["rho_db", "foo=1:2:1", "rho_db=1:2:0",
                                  "rho_db=5:1:1", "b=", "b=x,y", "rho_db=0:inf:1",
                                  "rho_db=0:nan:1", "rho_db=0:10:inf"])
def test_parse_axis_rejects_malformed_input(text):
    with pytest.raises(ParameterError):
        parse_axis(text)


# ---------------------------------------------------------------- spec validation

def test_spec_requires_some_output_quantity():
    with pytest.raises(ParameterError):
        ExperimentSpec(axis_name="rho_db", axis_values=(0.0,))


def test_spec_rejects_unknown_names():
    with pytest.raises(ParameterError):
        ExperimentSpec(axis_name="bandwidth", axis_values=(1,), schemes=("mn",))
    with pytest.raises(ParameterError):
        ExperimentSpec(axis_name="rho_db", axis_values=(0.0,), analytics=("magic",))
    with pytest.raises(ParameterError):
        ExperimentSpec(axis_name="rho_db", axis_values=(0.0,), schemes=("cdma",))
    with pytest.raises(ParameterError, match=re.escape("['tdm', 'mn', 'acc', 'mc-ratio']")):
        ExperimentSpec(axis_name="rho_db", axis_values=(0.0,), schemes=("mc_ratio",))


def test_spec_accepts_numpy_axes():
    spec = ExperimentSpec(axis_name="rho_db", axis_values=np.arange(-4.0, 5.0, 4.0),
                          schemes=("tdm",))
    assert spec.axis_values == (-4.0, 0.0, 4.0)
    for empty in (np.array([]), (), None):
        with pytest.raises(ParameterError):
            ExperimentSpec(axis_name="rho_db", axis_values=empty, schemes=("tdm",))


@pytest.mark.parametrize("fields", [
    {"users_per_group": 3.9}, {"nominal_gain": 2.7}, {"nominal_gain": True},
    {"rho_db": "abc"}, {"rho_db": math.nan}, {"rho_db": -math.inf},
    {"axis_name": "users_per_group", "axis_values": (2, 2.5)},
    {"axis_name": "nominal_gain", "axis_values": ("3",)},
    {"axis_values": (0.0, math.inf)}, {"axis_values": (0.0, "10")},
], ids=lambda fields: repr(fields))
def test_spec_rejects_non_integral_or_non_finite_numbers(fields):
    with pytest.raises(ParameterError):
        ExperimentSpec(**{"axis_name": "rho_db", "axis_values": (0.0,),
                          "schemes": ("tdm",), **fields})


def test_spec_keeps_integral_numbers_as_ints():
    spec = ExperimentSpec(axis_name="users_per_group", axis_values=np.array([2.0, 4.0]),
                          nominal_gain=np.int64(3), rho_db=np.float64(-2.5),
                          schemes=("acc",))
    assert spec.axis_values == (2, 4) and spec.nominal_gain == 3
    assert all(type(value) is int for value in spec.axis_values + (spec.nominal_gain,))
    assert spec.point(spec.axis_values[1]) == (snr_from_db(-2.5), 4, 3)


# ---------------------------------------------------------------- sweeps

def test_single_point_row_accounting():
    spec = ExperimentSpec(axis_name="rho_db", axis_values=(0.0,),
                          nominal_gain=2, users_per_group=2,
                          schemes=("tdm", "mn", "acc"), analytics=("exact-mn",),
                          num_trials=100, base_seed=11)
    rows = run_sweep(spec)
    assert len(rows) == 4
    assert [row.scheme for row in rows] == ["tdm", "mn", "acc", "exact-mn"]
    tdm_row = rows[0]
    assert tdm_row.gain == 1.0
    assert tdm_row.gain_stderr == 0.0
    assert all(row.error is None for row in rows)


def test_per_point_failures_are_recorded_not_raised():
    # the large-B normal form needs at least two users per group
    spec = ExperimentSpec(axis_name="users_per_group", axis_values=(1, 2),
                          nominal_gain=10, analytics=("large-b",),
                          num_trials=100, base_seed=1)
    rows = run_sweep(spec)
    assert rows[0].error is not None and "ParameterError" in rows[0].error
    assert rows[1].error is None


def test_analytics_only_sweep_runs_no_monte_carlo(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mc_average_rates(*args, **kwargs)

    monkeypatch.setattr(experiments, "mc_average_rates", counting)
    rows = run_sweep(ExperimentSpec(axis_name="rho_db", axis_values=(-10.0, 0.0),
                                    nominal_gain=3, users_per_group=2,
                                    analytics=("exact-mn", "low-snr-ratio-limit"),
                                    num_trials=100, base_seed=2))
    assert [row.error for row in rows] == [None] * 4
    assert calls == []


def test_single_user_groups_make_acc_and_mn_rows_identical():
    rows = run_sweep(ExperimentSpec(axis_name="rho_db", axis_values=(-20.0, 0.0, 20.0),
                                    nominal_gain=4, users_per_group=1,
                                    schemes=("tdm", "mn", "acc"), num_trials=3000,
                                    base_seed=21))
    for tdm, mn, acc in zip(rows[::3], rows[1::3], rows[2::3]):
        assert (tdm.gain, tdm.gain_stderr) == (1.0, 0.0)
        assert (mn.rate_mean, mn.rate_stderr, mn.gain, mn.gain_stderr) == (
            acc.rate_mean, acc.rate_stderr, acc.gain, acc.gain_stderr)


def test_multi_rho_sweep_is_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    outputs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("CACHECAST_WORKERS", workers)
        path = tmp_path / f"workers{workers}.csv"
        write_rows(run_sweep(ExperimentSpec(axis_name="rho_db",
                                            axis_values=(-40.0, -10.0, 20.0, 60.0),
                                            nominal_gain=3, users_per_group=4,
                                            schemes=("acc", "tdm", "mn"), num_trials=40_000,
                                            base_seed=13)),
                   str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_point_does_not_depend_on_the_other_points_of_its_sweep():
    def sweep(axis):
        return run_sweep(ExperimentSpec(axis_name="rho_db", axis_values=axis,
                                        nominal_gain=3, users_per_group=2,
                                        schemes=("tdm", "mn", "acc"), num_trials=1000,
                                        base_seed=17))
    alone, among = sweep((5.0,)), sweep((-5.0, 5.0, 15.0))
    assert alone == among[3:6]


def _timing_records(caplog):
    """(kind, args) of every timing record: kind is "shared" for a shared
    estimation and "closed" for a closed-form row; the time is args[-1]."""
    return [(record.msg.split()[0], record.args) for record in caplog.records
            if record.name == "cachecast.experiments"]


def test_a_shapes_logged_time_excludes_other_shapes_and_closed_forms(monkeypatch, caplog):
    # a slow closed form after each point and a slow second shape: the
    # first shape's logged time must hold neither
    def slow_exact_mn(rho, users_per_group, gain):
        time.sleep(0.2)
        return 1.0, 1.0

    def estimate(gain, users_per_group, *args, **kwargs):
        if users_per_group == 3:
            time.sleep(0.3)
        return mc_average_rates(gain, users_per_group, *args, **kwargs)

    monkeypatch.setitem(experiments.ANALYTICS, analysis.EXACT_MN, slow_exact_mn)
    monkeypatch.setattr(experiments, "mc_average_rates", estimate)
    caplog.set_level(logging.INFO, logger="cachecast")
    rows = run_sweep(ExperimentSpec(axis_name="users_per_group", axis_values=(2, 3),
                                    nominal_gain=2, schemes=("tdm", "acc"),
                                    analytics=("exact-mn",), num_trials=200,
                                    base_seed=5))
    assert [row.scheme for row in rows] == ["tdm", "acc", "exact-mn"] * 2
    records = _timing_records(caplog)
    assert [(kind, args[:4] if kind == "shared" else args[:2]) for kind, args in records] == [
        ("shared", (2, 2, 1, 200)), ("shared", (2, 3, 1, 200)),
        ("closed", ("exact-mn", 2.0)), ("closed", ("exact-mn", 3.0))]
    # a shared record's throughput is its trials times SNRs over its time
    assert all(args[-3] == args[3] * args[2] / args[-1]
               for kind, args in records if kind == "shared")
    # a time that held the other shape or the closed forms would read >= 0.2 s
    # for the first shape and >= 0.5 s for the second
    first, second, *closed = [args[-1] for _, args in records]
    assert first < 0.2 and 0.3 <= second < 0.5
    assert all(seconds >= 0.2 for seconds in closed)


def test_a_failing_shape_makes_error_rows_and_spares_the_others(monkeypatch):
    def estimate(gain, users_per_group, *args, **kwargs):
        if users_per_group == 3:
            raise NumericsError("psi missed its budget")
        return mc_average_rates(gain, users_per_group, *args, **kwargs)

    monkeypatch.setattr(experiments, "mc_average_rates", estimate)
    rows = run_sweep(ExperimentSpec(axis_name="users_per_group", axis_values=(2, 3, 4),
                                    nominal_gain=2, schemes=("tdm", "acc"),
                                    analytics=("exact-mn",), num_trials=200,
                                    base_seed=5))
    errors = [row.error for row in rows]
    failed = "NumericsError: psi missed its budget"
    assert errors == [None, None, None, failed, failed, None, None, None, None]
    assert rows[3].rate_mean is None and rows[5].rate_mean is not None


@pytest.mark.parametrize("num_trials, base_seed", [(50, 1), (1000, -1)])
def test_a_bad_trial_count_or_seed_fails_the_sweep(num_trials, base_seed):
    with pytest.raises(ParameterError):
        run_sweep(ExperimentSpec(axis_name="users_per_group", axis_values=(2, 3),
                                 nominal_gain=2, schemes=("acc",), analytics=("exact-mn",),
                                 num_trials=num_trials, base_seed=base_seed))


def test_a_negative_seed_is_a_parameter_error_in_figures_too(tmp_path):
    with pytest.raises(ParameterError):
        run_figure("fig10", str(tmp_path), num_trials=100, base_seed=-1)


def test_registry_covers_every_analysis_method():
    method_ids = {analysis.EXACT_MN, analysis.EXACT_ACC_INTEGRAL, analysis.LOW_SNR_MN,
                  analysis.LOW_SNR_ACC_MULTINOMIAL, analysis.LARGE_B_NORMAL,
                  analysis.LARGE_B_RATIO_LIMIT, analysis.LOW_SNR_RATIO_LIMIT}
    figure_variants = {"large-b-normal[h=integral]", "large-b-normal[h=ghq]",
                       "large-b-normal[h=asymptotic]", "ratio-large-b-ghq7"}
    assert set(experiments.ANALYTICS) == method_ids | figure_variants
    assert set(experiments.ANALYTIC_ALIASES.values()) <= set(experiments.ANALYTICS)
    for method in experiments.ANALYTICS:
        assert experiments.ANALYTIC_ALIASES[method] == method


def test_csv_header_is_stable(tmp_path):
    path = tmp_path / "out.csv"
    spec = ExperimentSpec(axis_name="rho_db", axis_values=(0.0,),
                          schemes=("tdm",), num_trials=100, base_seed=3)
    write_rows(run_sweep(spec), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "swept,scheme,rate_mean,rate_stderr,gain,gain_stderr,trials,error"
    assert len(lines) == 2


def test_rerun_reproduces_identical_bytes(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (first, second):
        spec = ExperimentSpec(axis_name="rho_db", axis_values=(-10.0, 0.0, 10.0),
                              nominal_gain=3, users_per_group=2,
                              schemes=("mn", "acc"), analytics=("exact-mn",),
                              num_trials=500, base_seed=99)
        write_rows(run_sweep(spec), str(path))
    assert first.read_bytes() == second.read_bytes()


def test_json_output_round_trips(tmp_path):
    path = tmp_path / "out.json"
    spec = ExperimentSpec(axis_name="rho_db", axis_values=(0.0,),
                          schemes=("tdm",), analytics=("exact-mn",),
                          num_trials=200, base_seed=5)
    rows = run_sweep(spec)
    write_rows(rows, str(path), "json")
    loaded = json.loads(path.read_text())
    assert len(loaded) == len(rows) == 2
    assert loaded[0]["scheme"] == "tdm"
    assert sorted(loaded[0]) == sorted(CSV_HEADER.split(","))
    assert loaded[1]["gain"] == pytest.approx(rows[1].gain)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _csv_records(path):
    header, *lines = _csv_rows(path)
    assert all(len(line) == len(header) for line in lines)
    return header, [dict(zip(header, line)) for line in lines]


def test_csv_and_json_agree_cell_for_cell(tmp_path):
    # users_per_group=1 makes the large-B form fail, so one row is an error row
    spec = ExperimentSpec(axis_name="users_per_group", axis_values=(1, 2),
                          nominal_gain=3, schemes=("tdm", "acc"), analytics=("large-b",),
                          num_trials=200, base_seed=8)
    rows = run_sweep(spec)
    assert sum(row.error is not None for row in rows) == 1
    write_rows(rows, str(tmp_path / "out.csv"), "csv")
    write_rows(rows, str(tmp_path / "out.json"), "json")
    header, table = _csv_records(tmp_path / "out.csv")
    records = json.loads((tmp_path / "out.json").read_text())
    assert header == CSV_HEADER.split(",")
    assert len(table) == len(records) == len(rows)
    for line, record in zip(table, records):
        assert sorted(line) == sorted(record)
        for key, value in record.items():
            if value is None:
                assert line[key] == "", key
            else:
                assert type(value)(line[key]) == value, key


# b=1 makes the large-B form fail, so the output holds an error row
ERROR_ROW_SWEEP = ["sweep", "--axis", "b=1,2,4", "--gain", "4", "--schemes", "tdm,acc,mn",
                   "--analytics", "large-b,exact-mn,low-snr-acc", "--trials", "2000"]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_verbose_sweep_writes_the_same_bytes_and_logs_timings(tmp_path, capsys, out_format):
    argv = ERROR_ROW_SWEEP + ["--format", out_format]
    quiet, verbose = tmp_path / f"quiet.{out_format}", tmp_path / f"verbose.{out_format}"
    assert main(argv + ["--out", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["-v"] + argv + ["--out", str(verbose)]) == 0
    logged = capsys.readouterr().err.splitlines()
    assert quiet.read_bytes() == verbose.read_bytes()
    assert "ParameterError" in quiet.read_text()
    # one record per shape's shared estimation and one per closed-form row
    assert [line.split()[:2] for line in logged] == (
        [["shared", "estimation"]] * 3 + [["closed", "form"]] * 9)
    assert all(line.endswith(" s") for line in logged)


def test_verbose_shared_estimation_reports_throughput(tmp_path, capsys):
    argv = ["-v", "sweep", "--axis", "rho_db=0,10,20", "--gain", "4", "--users-per-group",
            "2", "--schemes", "tdm,acc", "--trials", "20000",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0
    (line,) = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("shared estimation")]
    fields = line.split(": ", 1)[1].split(", ")
    assert fields[:3] == ["3 SNRs", "20000 trials", f"{rates._worker_count()} workers"]
    (draw_label, draw, draw_unit), (metrics_label, metrics, metrics_unit) = (
        field.split() for field in fields[3:5])
    assert (draw_label, draw_unit, metrics_label, metrics_unit) == ("draw", "s", "metrics", "s")
    throughput, unit = fields[5].split()
    seconds = float(fields[7].split()[0])
    assert unit == "trial-SNRs/s"
    assert float(throughput) == pytest.approx(3 * 20000 / seconds, rel=1e-3)
    # the draw and the metrics are parts of the estimation's time
    assert 0.0 < float(draw) and 0.0 < float(metrics)
    assert float(draw) + float(metrics) <= seconds + 1.5e-6  # each printed to 1e-6
    # every worker's CPU seconds, next to the elapsed ones, hold the calling one's
    cpu_label, cpu, cpu_unit = fields[6].split()
    assert (cpu_label, cpu_unit) == ("cpu", "s")
    assert float(draw) + float(metrics) <= float(cpu) + 1.5e-6


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_without_out_prints_the_out_file_bytes(tmp_path, capsys, out_format):
    argv = ERROR_ROW_SWEEP + ["--format", out_format]
    path = tmp_path / f"sweep.{out_format}"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "ParameterError" in printed
    assert printed == path.read_text()


# ---------------------------------------------------------------- figure presets

def test_every_documented_preset_exists():
    assert sorted(FIGURE_PRESETS) == [
        "fig1", "fig10", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]


def test_gain_collapse_preset_endpoints(tmp_path):
    path = run_figure("fig1", str(tmp_path), num_trials=100, base_seed=1)
    assert open(path).readline().rstrip("\n") == CSV_HEADER
    rows = _csv_rows(path)[1:]
    by_curve = {}
    for cells in rows:
        by_curve.setdefault(cells[1], []).append((float(cells[0]), float(cells[4])))
    assert set(by_curve) == {"exact-mn[g=2]", "exact-mn[g=5]", "exact-mn[g=10]"}
    for label, points in by_curve.items():
        points.sort()
        gains = [g for _, g in points]
        assert all(b >= a for a, b in zip(gains, gains[1:]))  # monotone in SNR
        assert 1.0 <= gains[0] <= 1.02                        # collapse at -20 dB
    assert 6.0 <= by_curve["exact-mn[g=10]"][-1][1] <= 6.7    # 30 dB endpoint


def test_low_snr_ratio_preset_smoke(tmp_path):
    path = run_figure("fig4", str(tmp_path), num_trials=100, base_seed=1)
    rows = _csv_rows(path)[1:]
    curves = {cells[1] for cells in rows}
    assert curves == {"low-snr-ratio-limit[g=2]", "low-snr-ratio-limit[g=5]",
                      "low-snr-ratio-limit[g=10]"}
    assert all(cells[-1] == "" for cells in rows)


def test_fig10_ratio_rows_divide_the_sweep_rates(tmp_path):
    trials, seed = 100, 6
    _, table = _csv_records(run_figure("fig10", str(tmp_path), num_trials=trials,
                                       base_seed=seed))
    ratios = {(line["scheme"], float(line["swept"])): float(line["gain"])
              for line in table if line["scheme"].startswith("mc-ratio")}
    axis = np.arange(-20.0, 30.0 + 1e-9, 2.0)
    assert len(ratios) == 3 * len(axis)
    for b in (2, 8, 32):
        sweep = run_sweep(ExperimentSpec(axis_name="rho_db", axis_values=axis,
                                         nominal_gain=4, users_per_group=b,
                                         schemes=("acc", "mn"), num_trials=trials,
                                         base_seed=seed))
        rate = {(row.scheme, row.swept): row.rate_mean for row in sweep}
        for value in axis:
            key = (f"mc-ratio[b={b}]", float(value))
            assert ratios[key] == rate["acc", float(value)] / rate["mn", float(value)]
    # the ratio's error comes from the covariance of the shared draws
    assert all(float(line["gain_stderr"]) > 0.0 for line in table
               if line["scheme"].startswith("mc-ratio"))


def test_mc_ratio_sweep_matches_the_fig10_rows(tmp_path):
    trials, seed = 2000, 6
    _, figure = _csv_records(run_figure("fig10", str(tmp_path), num_trials=trials,
                                        base_seed=seed))
    cells = ("rate_mean", "rate_stderr", "gain", "gain_stderr", "trials", "error")
    expected = {line["swept"]: [line[cell] for cell in cells]
                for line in figure if line["scheme"] == "mc-ratio[b=8]"}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--schemes", "mc-ratio", "--axis", "rho_db=-20,-6,0,14,30",
                 "--gain", "4", "--users-per-group", "8", "--trials", str(trials),
                 "--seed", str(seed), "--out", str(out)]) == 0
    _, swept = _csv_records(out)
    assert [line["scheme"] for line in swept] == ["mc-ratio"] * 5
    for line in swept:
        assert [line[cell] for cell in cells] == expected[line["swept"]]
        assert line["rate_mean"] == "" and float(line["gain_stderr"]) > 0.0


def test_fig10_failing_shape_makes_error_rows(monkeypatch):
    def estimate(gain, users_per_group, *args, **kwargs):
        if users_per_group == 8:
            raise NumericsError("psi missed its budget")
        return mc_average_rates(gain, users_per_group, *args, **kwargs)

    monkeypatch.setattr(experiments, "mc_average_rates", estimate)
    rows = figure_rows("fig10", 100, 6)
    errors = {row.scheme: set() for row in rows}
    for row in rows:
        errors[row.scheme].add(row.error)
    assert errors == {"mc-ratio[b=2]": {None}, "mc-ratio[b=8]": {"NumericsError: psi missed its budget"},
                      "mc-ratio[b=32]": {None}, "large-b-ratio-limit": {None}}
    assert all(row.gain is None for row in rows if row.error is not None)


def test_fig8_rows_evaluate_large_b_under_each_h_method():
    rows = figure_rows("fig8", 100, 3)
    tdm = analysis.exact_mn_rate(1.0, 1).value
    methods = (analysis.H_INTEGRAL, analysis.H_GHQ, analysis.H_ASYMPTOTIC)
    checked = 0
    for row in rows:
        if not row.scheme.startswith("large-b-normal[h="):
            continue
        method = row.scheme[len("large-b-normal[h="):-1]
        assert method in methods
        checked += 1
        if (method, row.swept) == (analysis.H_ASYMPTOTIC, 2.0):
            # the loose asymptotic H makes the form negative at b = 2
            assert row.error.startswith("NumericsError: the large-B normal form is not positive")
            assert row.rate_mean is None and row.gain is None
            continue
        rate = analysis.acc_rate_large_b(1.0, int(row.swept), 10, h_method=method).value
        assert row.error is None
        assert row.rate_mean == rate
        assert row.gain == rate / tdm
    assert checked == 3 * 10


def test_fig8_numeric_failures_become_error_rows(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericsError("H out of budget")

    monkeypatch.setattr(analysis, "acc_rate_large_b", failing)
    rows = figure_rows("fig8", 100, 3)
    large_b = [row for row in rows if row.scheme.startswith("large-b-normal")]
    assert len(large_b) == 3 * 10
    for row in large_b:
        assert row.error == "NumericsError: H out of budget"
        assert row.rate_mean is None and row.gain is None
    assert all(row.error is None for row in rows if row.scheme == "acc")


def test_fig9_ratio_rows_divide_large_b_by_exact_mn():
    rows = figure_rows("fig9", 100, 4)
    checked = 0
    for row in rows:
        if not row.scheme.startswith("ratio-large-b-ghq7"):
            continue
        gain = int(row.scheme[len("ratio-large-b-ghq7[g="):-1])
        rho = snr_from_db(row.swept)
        acc = analysis.acc_rate_large_b(rho, 6, gain, h_method=analysis.H_GHQ).value
        assert row.error is None
        assert row.rate_mean == acc
        assert row.gain == acc / analysis.exact_mn_rate(rho, gain).value
        checked += 1
    assert checked == 3 * 26


def test_figures_are_byte_identical_across_worker_counts(tmp_path, monkeypatch, capsys):
    # 9000 trials are two chunks, so two workers estimate them in parallel
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("CACHECAST_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        assert main(["figure", "fig9", "fig10", "--out", str(out), "--trials", "9000"]) == 0
        outputs[workers] = [(out / f"{name}.csv").read_bytes() for name in ("fig9", "fig10")]
    assert outputs["1"] == outputs["2"]
    capsys.readouterr()
    assert main(["-v", "figure", "fig9", "--out", str(tmp_path / "verbose"),
                 "--trials", "300"]) == 0
    # one record per shape's shared estimation and one per closed-form row
    kinds = [line.split()[:2] for line in capsys.readouterr().err.splitlines()]
    assert kinds.count(["shared", "estimation"]) == 3
    assert kinds.count(["closed", "form"]) == 3 * 26
    assert len(kinds) == 3 + 3 * 26


def test_unknown_preset_is_a_parameter_error(tmp_path):
    with pytest.raises(ParameterError):
        run_figure("fig2", str(tmp_path))


def test_rate_vs_group_size_preset_normal_form_tracks_simulation(tmp_path):
    # the large-group normal column stays within 5% of the simulated column
    # from ten users per group onward
    path = run_figure("fig7", str(tmp_path), num_trials=20_000, base_seed=2)
    rows = _csv_rows(path)[1:]
    by_key = {(cells[1], float(cells[0])): cells for cells in rows}
    for gain in (2, 3, 4, 5):
        for users in (10, 16, 24, 32, 48, 64):
            mc = float(by_key[(f"acc[g={gain}]", users)][2])
            approx = float(by_key[(f"large-b-normal[g={gain}]", users)][2])
            assert abs(approx - mc) / mc <= 0.05, (gain, users)


# ---------------------------------------------------------------- validation

def test_default_validation_passes():
    # four cache states at quarter fraction: gain 2 with four users per group
    config = SystemConfig.from_gain(2, 4, avg_snr=1.0, num_cache_states=4)
    assert config.num_cache_states == 4
    assert float(config.cache_fraction) == 0.25
    report = validate_system(config, num_trials=20_000, base_seed=42)
    failed = [check.name for check in report.checks if not check.passed]
    assert report.passed, f"failed checks: {failed}"
    names = {check.name for check in report.checks}
    assert "placement-clique" in names
    assert {"mc-tdm-vs-exact", "mc-mn-vs-exact", "mc-acc-vs-exact"} <= names


def test_ks_checks_report_their_p_value():
    config = SystemConfig.from_gain(2, 3, avg_snr=1.0)
    report = validate_system(config, num_trials=5_000, base_seed=42)
    for check in report.checks:
        if check.name.endswith("-ks"):
            p = float(check.detail.rpartition("p=")[2])
            assert p == pytest.approx(stats.kstwo.sf(check.measured, 5_000), rel=1e-2)


def test_ks_p_value_is_the_asymptotic_kolmogorov_law(monkeypatch):
    config = SystemConfig.from_gain(4, 1, avg_snr=1.0)

    def ks_checks():
        report = validate_system(config, num_trials=100_000, base_seed=42)
        checks = {check.name: check for check in report.checks if check.name.endswith("-ks")}
        assert len(checks) == 2
        for check in checks.values():
            p = special.kolmogorov(math.sqrt(100_000) * check.measured)
            assert check.detail.endswith(f"p={p:.3g}")
            # the limit is the Kolmogorov law's 1% point, so failing means p < 1%
            assert check.passed == (p >= special.kolmogorov(1.628))
        return checks

    ks_checks()
    # a draw 5% too large: the minima are no longer Exp(rho/gain), and the
    # check must fail on its p-value
    monkeypatch.setattr(experiments, "exponentials",
                        lambda *args: 1.05 * system.exponentials(*args))
    skewed = ks_checks()["min-snr-ks"]
    assert not skewed.passed
    assert special.kolmogorov(math.sqrt(100_000) * skewed.measured) < 1e-6
    assert special.kolmogorov(1.628) == pytest.approx(0.009976, abs=1e-6)


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, cachecast.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout.strip() == "False", result.stderr


def test_package_import_loads_no_submodule_and_no_scipy():
    # names are imported from their modules, so the package itself is empty
    code = ("import sys, cachecast; print(sorted(m for m in sys.modules "
            "if m.startswith(('cachecast.', 'scipy'))))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout.strip() == "[]", result.stderr


def test_zero_tolerance_fails_the_harness():
    config = SystemConfig.from_gain(2, 4, avg_snr=1.0)
    report = validate_system(config, num_trials=5_000, base_seed=42, tol_scale=0.0)
    assert not report.passed


def test_single_user_config_includes_pathwise_check():
    config = SystemConfig.from_gain(3, 1, avg_snr=1.0)
    report = validate_system(config, num_trials=5_000, base_seed=7)
    names = {check.name for check in report.checks}
    assert "acc-mn-single-user-pathwise" in names
    assert report.passed


def test_report_serializes_to_json():
    config = SystemConfig.from_gain(2, 2, avg_snr=1.0)
    report = validate_system(config, num_trials=5_000, base_seed=3)
    payload = json.dumps(report.to_dict())
    parsed = json.loads(payload)
    assert parsed["passed"] == report.passed
    assert len(parsed["checks"]) == len(report.checks)


# ---------------------------------------------------------------- timeline helper

def test_preset_timeline_matches_the_worked_example():
    timeline = timeline_for(preset="example2")
    assert timeline.completion_time == pytest.approx(10.0, rel=1e-9)
    assert (timeline.events[0].group, timeline.events[0].user) == (0, 0)


def test_symmetric_single_user_stage_has_simultaneous_events():
    config = SystemConfig.from_gain(4, 1, avg_snr=1.0)
    timeline = timeline_for(config=config, seed=SeedSpec(base_seed=123))
    assert len(timeline.events) == 4


def test_sampled_timeline_respects_invariants():
    config = SystemConfig.from_gain(3, 4, avg_snr=2.0)
    timeline = timeline_for(config=config, seed=SeedSpec(base_seed=5))
    times = [ev.time for ev in timeline.events]
    assert times == sorted(times)
    assert timeline.completion_time == times[-1]
    assert len(timeline.events) == 12


def test_timeline_requires_preset_or_config():
    with pytest.raises(ParameterError):
        timeline_for()
    with pytest.raises(ParameterError):
        timeline_for(preset="example3")


# ---------------------------------------------------------------- CLI

def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "cachecast", *argv],
                          capture_output=True, text=True, env=env)


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli("sweep", "--axis", "rho_db=0:10:10", "--gain", "2",
                     "--users-per-group", "2", "--schemes", "mn,tdm",
                     "--analytics", "exact-mn", "--trials", "200",
                     "--seed", "9", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3


def test_cli_sweep_accepts_config_file_with_flag_overrides(tmp_path):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({
        "axis": "rho_db=0:0:1", "gain": 2, "users_per_group": 2,
        "schemes": ["tdm"], "trials": 200, "seed": 4,
        "out": str(tmp_path / "from_config.csv"),
    }))
    override = tmp_path / "override.csv"
    result = run_cli("sweep", "--config", str(config_path), "--out", str(override))
    assert result.returncode == 0, result.stderr
    assert override.exists()
    assert not (tmp_path / "from_config.csv").exists()


@pytest.mark.parametrize("key", ["timing", "library_size"])
def test_cli_config_rejects_fields_sweeps_do_not_use(tmp_path, capsys, key):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({"axis": "rho_db=0", "schemes": ["tdm"], key: 1}))
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert f"unknown config field {key!r}" in capsys.readouterr().err


def test_cli_config_rejects_an_unknown_format(tmp_path, capsys):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({"axis": "rho_db=0", "schemes": ["tdm"],
                                       "format": "xml"}))
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert "format must be csv or json, got 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("axis, key, value", [
    ("rho_db=0", "users_per_group", 3.9), ("rho_db=0", "gain", 2.7), ("b=2", "rho_db", "abc"),
])
def test_cli_config_rejects_non_integral_or_non_finite_values(tmp_path, capsys, axis, key,
                                                              value):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({"axis": axis, "schemes": ["tdm"], key: value}))
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_parameter_error_exit_code(tmp_path):
    result = run_cli("sweep", "--axis", "rho_db=0:1:1", "--schemes", "warp",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "rho_db=4000", "--analytics", "exact-mn"],
    ["validate", "--rho-db", "4000", "--trials", "1000"],
    ["timeline", "--rho-db", "4000"],
], ids=["sweep", "validate", "timeline"])
def test_cli_overflowing_rho_db_is_a_parameter_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "non-finite linear SNR" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_axis_is_a_parameter_error():
    result = run_cli("sweep", "--schemes", "tdm")
    assert result.returncode == 2


def test_cli_validate_exit_codes(tmp_path):
    report_path = tmp_path / "report.json"
    ok = run_cli("validate", "--trials", "5000", "--seed", "42",
                 "--out", str(report_path))
    assert ok.returncode == 0, ok.stderr
    assert json.loads(report_path.read_text())["passed"] is True
    broken = run_cli("validate", "--trials", "5000", "--seed", "42",
                     "--tol-scale", "0")
    assert broken.returncode == 1


def test_cli_validate_defaults_to_as_many_cache_states_as_the_gain(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "--gain", "5", "--trials", "1000", "--out", str(out)]) in (0, 1)
    config = json.loads(out.read_text())["config"]
    assert config["num_cache_states"] == 5
    assert config["num_users"] == config["library_size"] == 20


@pytest.mark.parametrize("argv", [
    ["validate", "--trials", "1000"],
    ["sweep", "--axis", "rho_db=0", "--analytics", "exact-mn"],
    ["figure", "fig4", "--trials", "100"],
], ids=["validate", "sweep", "figure"])
def test_cli_unwritable_output_is_exit_2_not_a_failed_validation(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv, config", [
    (["validate", "--trials", "1000", "--tol-scale", "nan"], None),
    (["validate", "--trials", "1000", "--tol-scale", "inf"], None),
    (["figure", "fig4", "--trials", "0"], None),
    (["figure", "fig4", "--seed", "-5"], None),
    (["sweep", "--axis", "gain=2", "--rho-db", "0", "--analytics", "exact-mn", "--trials", "1"],
     None),
    (["sweep", "--axis", "gain=2", "--rho-db", "0", "--analytics", "exact-mn", "--seed", "-3"],
     None),
    (["sweep", "--axis", "rho_db=0", "--rho-db", "30", "--gain", "2", "--analytics",
      "exact-mn"], None),
    (["sweep", "--axis", "b=2", "--analytics", "exact-mn"], {"users_per_group": 3}),
], ids=["tol-scale-nan", "tol-scale-inf", "figure-trials", "figure-seed", "sweep-trials",
        "sweep-seed", "axis-also-a-flag", "axis-also-a-config-key"])
def test_cli_rejects_bad_run_parameters_before_writing(tmp_path, capsys, argv, config):
    if config is not None:
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(config_path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_timeline_preset(tmp_path):
    out = tmp_path / "timeline.jsonl"
    result = run_cli("timeline", "--preset", "example2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{out}\n"
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0] == {"t": pytest.approx(1.0), "group": 0, "user": 0}
    assert lines[-1] == {"completion_time": pytest.approx(10.0)}
    assert len(lines) == len(timeline_for(preset="example2").events) + 1


@pytest.mark.parametrize("argv, code", [
    (["validate", "--trials", "5000", "--tol-scale", "0"], 1),
    (["timeline", "--gain", "3", "--users-per-group", "4"], 0),
], ids=["validate", "timeline"])
def test_cli_out_into_a_missing_directory_creates_it(tmp_path, capsys, argv, code):
    path = tmp_path / "missing" / "dir" / "out"
    assert main(argv + ["--out", str(path)]) == code
    assert path.read_text()
    assert os.listdir(path.parent) == ["out"]


def test_cli_figure_all_runs_every_preset_in_sorted_order(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run_figure(name, out_dir, num_trials, base_seed):
        calls.append((name, num_trials, base_seed))
        return os.path.join(out_dir, f"{name}.csv")

    monkeypatch.setattr(cli, "run_figure", fake_run_figure)
    assert main(["figure", "all", "--out", str(tmp_path), "--trials", "300",
                 "--seed", "5"]) == 0
    assert calls == [(name, 300, 5) for name in sorted(FIGURE_PRESETS)]
    assert capsys.readouterr().out.split() == [
        os.path.join(str(tmp_path), f"{name}.csv") for name in sorted(FIGURE_PRESETS)]


def test_cli_figure_writes_one_csv_per_named_preset(tmp_path, capsys):
    assert main(["figure", "fig4", "fig1", "--out", str(tmp_path), "--trials", "100",
                 "--seed", "1"]) == 0
    paths = capsys.readouterr().out.split()
    assert paths == [str(tmp_path / "fig4.csv"), str(tmp_path / "fig1.csv")]
    for path in paths:
        assert open(path).readline().strip() == CSV_HEADER


def test_cli_sweep_below_the_squared_rate_underflow_makes_error_rows(tmp_path):
    # at -3000 dB the TDM rate is about 1e-300, whose square is 0: the gain
    # error cannot be formed, so every row is a NumericsError row
    out = tmp_path / "deep.csv"
    assert main(["sweep", "--axis", "rho_db=-3000", "--gain", "2", "--users-per-group", "2",
                 "--schemes", "tdm,mn,acc", "--trials", "1000", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["scheme"] for row in rows] == ["tdm", "mn", "acc"]
    for row in rows:
        assert row["error"].startswith("NumericsError: TDM reference rate"), row
        assert row["rate_mean"] == row["gain"] == ""


@pytest.mark.parametrize("schemes, rho_dbs", [
    ("tdm", "-80"),
    ("tdm,mn,acc", "-700,-1600"),
])
def test_cli_sweep_far_below_the_domain_keeps_a_positive_stderr(tmp_path, schemes, rho_dbs):
    # there the control-corrected residual is nearly constant; its
    # standard error is floored at one rounding per step of the estimate,
    # never 0
    out = tmp_path / "far.csv"
    assert main(["sweep", "--axis", f"rho_db={rho_dbs}", "--gain", "2",
                 "--users-per-group", "2", "--schemes", schemes, "--trials", "1000",
                 "--seed", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == len(schemes.split(",")) * len(rho_dbs.split(","))
    for row in rows:
        assert row["error"] == "", row
        assert float(row["rate_stderr"]) > 0.0, row
        assert float(row["rate_stderr"]) >= 2 ** -53 * float(row["rate_mean"]), row


def test_cli_sweep_where_squared_errors_underflow_keeps_a_gain_error(tmp_path):
    # at -1600 dB the rates are near 1e-160 and their squared standard
    # errors underflow; the gain error is formed relative to the TDM mean
    out = tmp_path / "deep.csv"
    assert main(["sweep", "--axis", "rho_db=-1600", "--gain", "2", "--users-per-group", "2",
                 "--schemes", "tdm,mn,acc", "--trials", "1000", "--seed", "3",
                 "--out", str(out)]) == 0
    rows = {row["scheme"]: row for row in csv.DictReader(out.open())}
    assert float(rows["tdm"]["gain_stderr"]) == 0.0
    for scheme in ("mn", "acc"):
        assert rows[scheme]["error"] == ""
        assert 0.0 < float(rows[scheme]["gain_stderr"]) < math.inf, rows[scheme]


def test_exit_code_mapping_unit():
    assert exit_code_for(ParameterError("x")) == 2
    assert exit_code_for(NumericsError("y")) == 3
    assert exit_code_for(FileExistsError("z")) == 2
    assert exit_code_for(PermissionError("w")) == 2
    with pytest.raises(KeyError):
        exit_code_for(KeyError("unrelated"))


def test_main_returns_parameter_error_code_in_process(tmp_path):
    code = main(["sweep", "--axis", "nope=1", "--schemes", "tdm",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
