"""cachecast benchmark.

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 25 --trace 0

Builds the package from `src/` (byte-compiles it), draws the workload's
inputs from the seed, computes the references the outputs are checked
against, then runs rounds of the workload until `--seconds` have passed.
Each round is a fresh `python3 bench/child.py` process with one Monte Carlo
worker and single-threaded BLAS, so every round pays the start-up and
first-use costs a user's run pays. The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` count the checked
operations of every round, and `metrics` holds the medians over rounds of
the end-to-end metrics, or with `--trace 1` of the per-layer metrics from
traced rounds (alternating with untraced ones, which give the overhead).
See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: rounds still running this long after the run began are stopped and count
#: as a crash, so that a run ends well within three minutes
RUN_DEADLINE_S = 150.0
#: relative error the time-to-accuracy metric projects to
TARGET_REL_ERR = 1e-3


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _build():
    if not os.path.isfile(os.path.join(SRC, "cachecast", "__init__.py")):
        _fail(f"no cachecast sources under {SRC}")
    if not compileall.compile_dir(os.path.join(SRC, "cachecast"), quiet=1):
        _fail("cachecast does not compile")


def _child_env():
    env = dict(os.environ)
    env.pop("CACHECAST_WORKERS", None)
    env.pop("PYTHONPATH", None)
    # numpy and scipy each load OpenBLAS, and each would start a helper
    # thread per core; one thread keeps the process within the core count
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _run_round(workload, inputs_path, run_dir, traced, deadline):
    result_path = os.path.join(run_dir, "result.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), SRC, workload,
            inputs_path, result_path, "1" if traced else "0"]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    # times scaled to the reference host speed (speed.py); the raw ones are kept
    result["raw_setup_s"] = result["imported_at"] - started
    result["setup_s"] = result["raw_setup_s"] * speed.scale(result["setup_speed"],
                                                            speed.SETUP_LOOP)
    if workload != "setup":
        kind = speed.BODY_LOOP[workload]
        result["speed_scale"] = speed.scale(result["body_speed"], kind)
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] *= result["speed_scale"]
        result["cpu_s"] *= result["speed_scale"]
    return result


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _benchmark_spec()
    _build()
    sys.path.insert(0, BENCH_DIR)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _measure(args, spec, run_dir, checks, workloads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, spec, run_dir, checks, workloads):
    begun = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed)
    inputs_path = os.path.join(run_dir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    cli = None
    if args.workload == "mc_sweep":  # its references include a program rerun
        sys.path.insert(0, SRC)
        import cachecast.cli as cli
    refs = workloads.references(args.workload, inputs, run_dir, cli)

    plain, traced, setups, ops, crashed = [], [], [], [], None
    start = time.perf_counter()
    deadline = begun + RUN_DEADLINE_S
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        try:
            result = _run_round(args.workload, inputs_path, run_dir, trace_this, deadline)
            # one more set-up sample per round: import time is the noisiest figure
            setups.append(_run_round("setup", inputs_path, run_dir, False, deadline)["setup_s"])
            round_ops, rel_err = workloads.round_ops(args.workload, inputs, refs, result, run_dir)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            crashed = exc
            break
        result["time_to_accuracy_s"] = (result["wall_s"]
                                        * max(1.0, (rel_err / TARGET_REL_ERR) ** 2))
        ops += round_ops
        (traced if trace_this else plain).append(result)
        setups.append(result["setup_s"])
        print(f"bench: round {len(plain) + len(traced)}{' traced' if trace_this else ''}: "
              f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
              f"setup {result['setup_s']:.3f} s, peak rss {result['peak_rss_mb']:.1f} MB "
              f"(unscaled: wall {result['raw_wall_s']:.3f} s, setup {result['raw_setup_s']:.3f} s)",
              file=sys.stderr)
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            break

    if crashed is not None:
        print(f"bench: {args.workload} round failed: {crashed}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        _fail("no complete round to report")
    failed = [op for op in ops if not op.passed]
    unexpected = [op for op in failed if not op.known_fault]
    vacuous = checks.vacuous_checks(ops)
    for op in unexpected[:20]:
        bad = [c for c in op.checks if not c.passed]
        print(f"bench: FAILED {op.name}: " + "; ".join(
            f"{c.what}: {c.value!r} vs {c.ref!r} (tol {c.tol!r}, {c.kind})" for c in bad),
            file=sys.stderr)
    for check in vacuous[:20]:
        print(f"bench: VACUOUS check {check.what} ({check.kind}, tol {check.tol!r})",
              file=sys.stderr)

    if args.trace:
        wanted = spec["per_layer"]
        samples = [r["layers"] for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        unscaled = statistics.median(r["raw_wall_s"] for r in plain)
        for sample in samples:
            sample["trace.overhead_s"] = overhead
            sample["host.unscaled_wall_s"] = unscaled
    else:
        wanted = spec["end_to_end"]
        samples = plain
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        values = setups if name == "setup_s" else [s[name] for s in samples]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}
    print(json.dumps({
        "correct": crashed is None and not unexpected and not vacuous,
        "attempted": len(ops) + (crashed is not None),
        "failed": len(failed) + (crashed is not None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
