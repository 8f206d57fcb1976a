"""One round of a benchmark workload, in a fresh process.

Usage: python3 child.py <src dir> <workload> <inputs.json> <result.json> <trace 0|1>

The workload `setup` only imports the package, for extra set-up samples.

The first thing the process does is import cachecast.cli, so the time from
process start to that point is the set-up a user of the command pays. The
workload body then runs on the inputs run.py generated from the seed; its
wall time, CPU time and peak memory are recorded. Anything the checks need
that only this process holds (the sampled channel matrices) is reduced to
reference values after the body, outside the timed region.

The host's speed is sampled (see speed.py) right after the imports and
throughout the body; the time the samples take is not counted in the body.
"""

import math
import sys
import time


def _import_cachecast(src, traced):
    sys.path.insert(0, src)
    if not traced:
        import cachecast.cli  # noqa: F401
        return time.perf_counter(), {}
    modules_before = len(sys.modules)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.special  # noqa: F401
    scipy_done = time.perf_counter()
    import cachecast.cli  # noqa: F401
    done = time.perf_counter()
    return done, {"import.scipy_s": scipy_done - start,
                  "import.cachecast_s": done - scipy_done,
                  "import.modules": len(sys.modules) - modules_before}


def _mc_sweep(cc, inputs, out_dir):
    return {"exit_codes": [
        cc.cli.main(part["argv"] + ["--out", f"{out_dir}/{part['name']}.csv"])
        for part in inputs["parts"]]}


def _exact_acc(cc, inputs, out_dir):
    rates, cdfs = [], []
    for point in inputs["points"]:
        rates.append(cc.analysis.acc_rate_exact_integral(
            point["rho"], point["users_per_group"], inputs["gain"]).value)
        cdfs.append([cc.analysis.capacity_sum_cdf(y, point["rho"], point["users_per_group"])
                     for y in point["ys"]])
    fault = inputs["fault"]
    fault_cdf = cc.analysis.capacity_sum_cdf(fault["y"], fault["rho"], fault["users_per_group"])
    return {"rates": rates, "cdfs": cdfs, "fault_cdf": fault_cdf}


def _session(cc, spec, demands):
    system, scheduling = cc.system, cc.scheduling
    config = system.SystemConfig.from_gain(spec["gain"], spec["users_per_group"], spec["rho"],
                                           num_cache_states=spec["cache_states"])
    stages = scheduling.enumerate_stages(config)
    size = 1.0 / math.comb(spec["cache_states"], spec["gain"] - 1)
    acc_snr = [system.sample_snr(config, system.SeedSpec(spec["acc_seed"], i))
               for i in range(len(stages))]
    acc_stages = [scheduling.acc_stage_timeline(stage, snr, size).completion_time
                  for stage, snr in zip(stages, acc_snr)]
    acc_total = scheduling.full_session_delay(config, demands, acc_snr, "acc")
    # the XOR schedule repeats every stage once per group member; round r
    # serves member r of each group in the stage
    mn_snr = [system.sample_snr(config, system.SeedSpec(spec["mn_seed"], i))
              for i in range(spec["users_per_group"] * len(stages))]
    served = [[mn_snr[r * len(stages) + k].snr[g, r] for g in stage]
              for r in range(spec["users_per_group"]) for k, stage in enumerate(stages)]
    mn_stages = [scheduling.mn_stage_delay(snrs, size) for snrs in served]
    mn_total = scheduling.full_session_delay(config, demands, mn_snr, "mn")
    return {"stages": stages, "size": size, "acc_snr": acc_snr, "served": served,
            "acc_stages": acc_stages, "acc_total": acc_total,
            "mn_stages": mn_stages, "mn_total": mn_total}


def _analytic_session(cc, inputs, out_dir):
    analysis = cc.analysis
    psi = [analysis.psi(g, b) for g, b in inputs["psi"]]
    h = {method: [analysis.h_order_stat(g, method) for g in inputs["h_gains"]]
         for method in ("integral", "ghq", "asymptotic")}
    exact_mn = [analysis.exact_mn_rate(rho, g).value for rho, g in inputs["mn"]]
    low_mn = [analysis.mn_rate_low_snr(rho, g).value for rho, g in inputs["low_snr_mn"]]
    low_acc = [analysis.acc_rate_low_snr(rho, b, g).value
               for rho, b, g in inputs["low_snr_acc"]]
    sessions = [_session(cc, spec, demands)
                for spec, demands in zip(inputs["sessions"], inputs["demands"])]
    example2 = cc.experiments.timeline_for(preset="example2").completion_time
    return {"psi": psi, "h": h, "exact_mn": exact_mn, "low_snr_mn": low_mn,
            "low_snr_acc": low_acc, "sessions": sessions, "example2": example2}


def _session_references(outputs):
    """Recompute every stage with numpy from the matrices the program drew."""
    import numpy as np
    import oracles

    for s in outputs["sessions"]:
        s["acc_refs"] = [oracles.acc_stage_completion(np.asarray(snr.snr)[list(stage)], s["size"])
                         for stage, snr in zip(s["stages"], s["acc_snr"])]
        s["mn_refs"] = [oracles.mn_stage_delay(snrs, s["size"]) for snrs in s["served"]]
        for key in ("stages", "acc_snr", "served"):
            del s[key]


def _peak_rss_mb():
    # VmHWM is this process's own high-water mark; ru_maxrss would also
    # count the parent's memory, which the child inherits at spawn
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


#: calibration samples taken right after the imports
SETUP_SAMPLES = 12

BODIES = {"mc_sweep": _mc_sweep, "exact_acc": _exact_acc,
          "analytic_session": _analytic_session}


def main(argv):
    src, workload, inputs_path, result_path, traced = argv
    traced = traced == "1"
    imported_at, import_stats = _import_cachecast(src, traced)

    import json
    import os
    import resource

    import cachecast
    import speed

    setup_samples = speed.samples(speed.SETUP_LOOP, SETUP_SAMPLES)
    if not os.path.abspath(cachecast.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"cachecast imported from {cachecast.__file__}, not from {src}")
    if workload == "setup":
        with open(result_path, "w") as fh:
            json.dump({"imported_at": imported_at, "setup_speed": setup_samples}, fh)
        return
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install(cachecast)
    body = BODIES[workload]
    out_dir = os.path.dirname(result_path)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with speed.Probe(speed.BODY_LOOP[workload]) as probe:
        outputs = body(cachecast, inputs, out_dir)
    wall = time.perf_counter() - start - probe.spent_wall
    after = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = _peak_rss_mb()

    if workload == "analytic_session":
        _session_references(outputs)
    result = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": ((after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
                  - probe.spent_cpu),
        "setup_speed": setup_samples,
        "body_speed": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "layers": {**tracing.layer_metrics(tracer), **import_stats} if traced else {},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
