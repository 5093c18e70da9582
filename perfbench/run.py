#!/usr/bin/env python3
"""The benchmark of record: one workload, one seed, one run.

    python3 perfbench/run.py --workload datalog-batch --seed 1 --seconds 30 \
        --trace 0

Builds twchase_cli, twchased, twgen and the replay harness from source
(RelWithDebInfo, the repository's default build type) into
``.bench_build/perfbench``, makes the workload's jobs from ``--seed``, runs
them for ``--seconds`` and checks every output. ``--trace 0`` runs the
shipped binaries at their default options and reports the end-to-end
metrics; ``--trace 1`` replays the jobs in-process with a timing observer
(and, for the daemon, times every HTTP call) and reports the per-layer
metrics. The metric names and units come from BENCHMARK.json.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Above it a table gives each metric with its
sample count, median and quartiles. A run record with the host, compiler,
build type, source digest and seed is written next to the build.
"""

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree clean

import benchstats  # noqa: E402
import loadgen  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ("twchase_cli", "twchased", "twgen", "perfbench_replay",
           "perfbench_calibrate")
SETUP_REPEATS = 5


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build and run record.

def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/twchase_cli.cc", "data/staircase.twc",
                   "data/elevator.twc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full twchase checkout" % needed, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] +
                     list(TARGETS))
        for argv in steps:
            if subprocess.call(argv, stdout=log, stderr=subprocess.STDOUT):
                fail("build failed, see %s" % log_path)
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
        "CMAKE_CXX_FLAGS_" + build_type.upper(), "")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing to time a %r build" % build_type, 3)
    if cache.get("TWCHASE_SANITIZE", "OFF") not in ("OFF", "") or \
            "-fsanitize" in flags or "-O0" in flags:
        fail("refusing to time a sanitizer or unoptimised build", 3)
    bins = {t: os.path.join(BUILD, "twchase", "tools", t) for t in TARGETS}
    for target in ("perfbench_replay", "perfbench_calibrate"):
        bins[target] = os.path.join(BUILD, target)
    return bins, cache


def source_digest():
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                             recursive=True) +
                   glob.glob(os.path.join(ROOT, "tools", "*")) +
                   [os.path.join(ROOT, "CMakeLists.txt")])
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def host_record(cache):
    def first(path, prefix):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                if line.startswith("set(CMAKE_CXX_COMPILER_VERSION"):
                    compiler += " " + line.split('"')[1]
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# Set-up.

def make_pool(workload, seed):
    """The workload's jobs. The Python-made programs and their least models
    are the harness's work, not the program's, and are not timed."""
    workdir = os.path.join(BUILD, "work", "%s-%d" % (workload, seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.POOLS[workload](workdir, os.path.join(ROOT, "data"),
                                     seed)
    return jobs, workdir


def setup(workload, bins, jobs, workdir):
    """The part of set-up that runs the shipped binaries: the twgen inputs,
    a parse check of every input with twchase_cli and, for the daemon,
    twchased launch until /v1/healthz answers. Returns the daemon or
    None."""
    workloads.make_inputs(bins, jobs)
    workloads.check_inputs(bins["twchase_cli"], jobs)
    if workload != "daemon-mixed":
        return None
    daemon = loadgen.Daemon(bins["twchased"],
                            os.path.join(workdir, "twchased.log"))
    try:
        daemon.wait_ready()
    except RuntimeError:
        daemon.kill()
        raise
    return daemon


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(workload, bins, jobs, workdir, calibration):
    """Sets up SETUP_REPEATS more times, after the measurement, and returns
    the CPU time (user + system) each set-up's processes spent, the daemon
    counted to its exit, unscaled and scaled to the reference host (see
    loadgen.Calibration). CPU time, because on a shared host the wall time
    of the same set-up swings with the other tenants' load. After its own
    measurement every run is in the same state, whatever ran before it.
    Two calibration runs follow each set-up."""
    raw, marks = [], []
    for _ in range(SETUP_REPEATS):
        marks.append(calibration.mark())
        before = children_cpu_s()
        daemon = setup(workload, bins, jobs, workdir)
        if daemon is not None:
            problem = daemon.shutdown()
            if problem:
                raise RuntimeError(problem)
        raw.append(children_cpu_s() - before)
        calibration.sample()
        calibration.sample()
    return raw, [calibration.scale(t, m) for t, m in zip(raw, marks)]


# ---------------------------------------------------------------------------
# Measurement.

class Failures:
    def __init__(self):
        self.items = []

    def __call__(self, job, problems):
        self.items.append((job["id"], problems))
        print("FAILED %s: %s" % (job["id"], "; ".join(problems)))


def untraced(workload, bins, jobs, daemon, seconds, failures, calibration):
    """End-to-end pass. Returns (metric values, table rows, attempted,
    unscaled values).

    CLI jobs are timed by their CPU time (user + system, all threads, from
    wait4): on a shared host the wall time of the same job swings by 2x
    from run to run with the other tenants' load, its CPU time far less,
    and the rest of that drift is taken out by scaling each job's CPU time
    to the reference host with the calibration runs next to it. Daemon
    jobs are timed by wall latency, unscaled, since the daemon bounds them
    by wall-clock deadlines (the preflight probe, the preemption slice),
    and CPU spent up to a wall deadline shrinks as the host gets busier."""
    rows = {}
    unscaled = {}
    if daemon is None:
        records = loadgen.cli_loop(bins["perfbench_replay"],
                                   bins["twchase_cli"], jobs, seconds,
                                   failures, calibration,
                                   workloads.CYCLES[workload])
        ok = [r for r in records if r["ok"]]
        raw = [r["cpu_s"] for r in records]
        times = [calibration.scale(r["cpu_s"], r["mark"]) for r in records]
        unscaled = _job_metrics(raw, ok, sum(raw))
        values = _job_metrics(times, ok, sum(times))
        peak = max(r["rss_mb"] for r in records)
        rows["peak_rss_mb"] = [r["rss_mb"] for r in records]
        attempted = len(records)
    else:
        records = loadgen.daemon_loop(daemon, jobs, seconds, failures)
        counted = [r for r in records if r["in_window"]]
        ok = [r for r in counted if r["ok"]]
        times = [r["latency_s"] for r in counted]
        values = _job_metrics(times, ok, seconds)
        daemon.wait_idle()
        peak = daemon.vm_hwm_mb()
        problem = daemon.shutdown()
        attempted = len(records) + 1  # the shutdown counts as one operation
        if problem:
            failures({"id": "twchased"}, [problem])
        rows["peak_rss_mb"] = [peak]
    values["peak_rss_mb"] = peak
    values["ok_rate"] = 1.0 - len(failures.items) / attempted
    rows["job_p50_s"] = rows["job_p90_s"] = times
    rows["jobs_per_s"] = rows["steps_per_s"] = len(ok)
    return values, rows, attempted, unscaled


def _job_metrics(times, ok, window):
    """Latency quantiles of ``times``; jobs and steps of the correct jobs
    ``ok`` over ``window`` seconds."""
    return {
        "job_p50_s": benchstats.quantile(times, 0.5),
        "job_p90_s": benchstats.quantile(times, 0.9),
        "jobs_per_s": len(ok) / window,
        "steps_per_s": sum(r["steps"] for r in ok) / window,
    }


def _sum(outs, key):
    return sum(o.get(key, 0) for o in outs)


def _mean(outs, key):
    return _sum(outs, key) / len(outs) if outs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced_outs):
    """Per-layer values from the replayed jobs' outputs."""
    outs = [o for _, o in traced if not o.get("error")]
    base = [o for _, o in untraced_outs if not o.get("error")]
    auto = [o for o in outs if "preflight_ms" in o]
    measured = [o for o in outs if "series_ms" in o]
    robust = [o for o in outs if "robust_ms" in o]
    mb = 1024.0 * 1024.0
    preflight = [o["preflight_ms"] for o in auto] or [0.0]
    v = {
        "parser.parse_ms": benchstats.median([o["parse_ms"] for o in outs]),
        "analysis.preflight_ms_p50": benchstats.quantile(preflight, 0.5),
        "analysis.preflight_ms_p90": benchstats.quantile(preflight, 0.9),
        "analysis.empirical_frac": _ratio(_sum(auto, "empirical"), len(auto)),
        "analysis.probe_steps": _mean(auto, "probe_steps"),
        "core.establish_ms": _mean(outs, "establish_ms"),
        "core.check_ms": _mean(outs, "check_ms"),
        "core.apply_ms": _mean(outs, "apply_ms"),
        "core.round_end_ms": _mean(outs, "round_end_ms"),
        "core.result_free_ms": _mean(outs, "result_free_ms"),
        "core.rounds": _mean(outs, "rounds"),
        "core.steps": _mean(outs, "steps"),
        "core.triggers_considered": _mean(outs, "triggers_considered"),
        "core.apply_frac": _ratio(_sum(outs, "steps"),
                                  _sum(outs, "triggers_considered")),
        "core.seed_probes": _mean(outs, "seed_probes"),
        "core.matches_invalidated": _mean(outs, "matches_invalidated"),
        "core.parallel_tasks": _mean(outs, "parallel_tasks"),
        "core.parallel_eval_ms": _mean(outs, "parallel_eval_ms"),
        "core.parallel_merge_ms": _mean(outs, "parallel_merge_ms"),
        "core.parallel_imbalance": max(
            [o["parallel_imbalance"] for o in outs] or [0]),
        "core.derivation_mb": max(
            [o["derivation_bytes"] for o in outs] or [0]) / mb,
        "model.instance_mb": max(
            [o["instance_bytes"] for o in outs] or [0]) / mb,
        "core.journal_to_instance": _ratio(_sum(outs, "derivation_bytes"),
                                           _sum(outs, "instance_bytes")),
        "core.robust_ms": _mean(robust, "robust_ms"),
        "hom.index_probes": _mean(outs, "index_probes"),
        "hom.column_scans": _mean(outs, "column_scans"),
        "hom.join_fallbacks": _mean(outs, "join_fallbacks"),
        "hom.index_builds": _mean(outs, "index_builds"),
        "hom.index_build_mb": _mean(outs, "index_build_bytes") / mb,
        "hom.core_full": _mean(outs, "core_full"),
        "hom.folds": _mean(outs, "folds"),
        "hom.answer_ms": _mean(outs, "answer_ms"),
        "plan.core_proofs": _mean(outs, "plan_core_proofs"),
        "plan.certified_frac": _ratio(_sum(outs, "plan_core_certified"),
                                      _sum(outs, "plan_core_proofs")),
        "plan.enumerations_skipped": _mean(outs, "plan_enumerations_skipped"),
        "tw.series_ms": _mean(measured, "series_ms"),
        "tw.aggregate_ms": _mean(robust, "aggregate_ms"),
        "obs.trace_overhead": _ratio(_sum(outs, "wall_ms"),
                                     _sum(base, "wall_ms")),
    }
    return v


SERVICE_ZERO = ("core.segments_per_job", "core.resume_overhead",
                "service.submit_ms_p50", "service.submit_ms_p90",
                "service.poll_ms_p50", "service.poll_ms_p90",
                "service.result_ms_p50", "service.result_ms_p90",
                "service.result_kb", "util.queue_wait_s_p50",
                "util.queue_wait_s_p90", "util.preemptions")


def service_metrics(records, sched, replayed, untraced_outs):
    done = [r for r in records if r["ok"]]

    def q(values, p):
        return benchstats.quantile(values, p) if values else 0.0

    submit = [r["submit_ms"] for r in records]
    poll = [ms for r in records for ms in r["poll_ms"]]
    result = [r["result_ms"] for r in done]
    wait = [max(0.0, r["latency_s"] - r["elapsed_s"]) for r in done]
    # Daemon time of each replayed job against the same job run once,
    # uninterrupted, in-process (parse + preflight + chase, as the daemon's
    # elapsed_seconds covers).
    daemon_s = sum(rec["elapsed_s"] for rec in replayed)
    inproc_s = sum((o.get("parse_ms", 0) + o.get("preflight_ms", 0) +
                    o.get("chase_ms", 0)) / 1000.0 for _, o in untraced_outs)
    return {
        "core.segments_per_job": _ratio(sum(r["segments"] for r in done),
                                        len(done)),
        "core.resume_overhead": _ratio(daemon_s, inproc_s),
        "service.submit_ms_p50": q(submit, 0.5),
        "service.submit_ms_p90": q(submit, 0.9),
        "service.poll_ms_p50": q(poll, 0.5),
        "service.poll_ms_p90": q(poll, 0.9),
        "service.result_ms_p50": q(result, 0.5),
        "service.result_ms_p90": q(result, 0.9),
        "service.result_kb": _ratio(sum(r["result_kb"] for r in done),
                                    len(done)),
        "util.queue_wait_s_p50": q(wait, 0.5),
        "util.queue_wait_s_p90": q(wait, 0.9),
        "util.preemptions": float(sched["preemptions"]),
    }


def traced(workload, bins, jobs, daemon, seconds, failures, stem):
    """Per-layer pass. Returns (metric values, attempted, self times)."""
    replay_seconds = seconds
    attempted = 0
    service = {name: 0.0 for name in SERVICE_ZERO}
    selfs = {}
    records = []
    if daemon is not None:
        recorder = spanlib.SpanRecorder()
        records = loadgen.daemon_loop(daemon, jobs, seconds / 2, failures,
                                      spans=recorder)
        sched = daemon.wait_idle()
        problem = daemon.shutdown()
        attempted += len(records) + 1
        if problem:
            failures({"id": "twchased"}, [problem])
        spanlib.write_chrome_trace(stem + ".client-trace.json",
                                   recorder.spans, pid=2)
        selfs.update(spanlib.self_time_by_name(recorder.spans))
        records = sorted((r for r in records if r["ok"]),
                         key=lambda r: r["job_no"])
        jobs = [r["job"] for r in records]
        replay_seconds = seconds / 2
        if not jobs:
            fail("no daemon job completed; nothing to replay")
    trace_path = stem + ".trace.json"
    replay = loadgen.Replay(bins["perfbench_replay"], trace_path)
    try:
        t_out, u_out = loadgen.replay_loop(replay, jobs, replay_seconds,
                                           failures)
    finally:
        replay.close()
    attempted += 2 * len(t_out)
    values = layer_metrics(t_out, u_out)
    if daemon is not None:
        replayed = [records[i % len(records)] for i in range(len(u_out))]
        service = service_metrics(records, sched, replayed, u_out)
    values.update(service)
    for name, ms in spanlib.self_time_by_name(
            spanlib.load_chrome_trace(trace_path)).items():
        selfs[name] = selfs.get(name, 0.0) + ms
    return values, attempted, selfs


# ---------------------------------------------------------------------------
# Report.

def print_table(title, declared, values, rows):
    print("\n%s" % title)
    print("%-28s %14s %-9s %6s %12s %12s %12s" % (
        "metric", "value", "unit", "n", "median", "q1", "q3"))
    for m in declared:
        name = m["name"]
        line = "%-28s %14.6g %-9s" % (name, values[name], m["unit"])
        sample = rows.get(name)
        if isinstance(sample, int):
            line += " %6d" % sample
        elif sample:
            s = benchstats.summary(sample)
            line += " %6d %12.6g %12.6g %12.6g" % (s["n"], s["median"],
                                                   s["q1"], s["q3"])
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    bins, cache = build()
    host = host_record(cache)
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                     args.trace))
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(host))

    failures = Failures()
    daemon = None
    try:
        jobs, workdir = make_pool(args.workload, args.seed)
        daemon = setup(args.workload, bins, jobs, workdir)
        if args.trace:
            values, attempted, selfs = traced(args.workload, bins, jobs,
                                              daemon, args.seconds, failures,
                                              stem)
            rows = {}
        else:
            calibration = loadgen.Calibration(bins["perfbench_replay"],
                                              bins["perfbench_calibrate"])
            values, rows, attempted, unscaled = untraced(
                args.workload, bins, jobs, daemon, args.seconds, failures,
                calibration)
            selfs = {}
        daemon = None
        if not args.trace:
            raw, times = setup_times(args.workload, bins, jobs, workdir,
                                     calibration)
            values["setup_s"] = benchstats.median(times)
            rows["setup_s"] = times
            unscaled["setup_s"] = benchstats.median(raw)
    finally:
        if daemon is not None and daemon.proc.poll() is None:
            daemon.kill()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not produced: %s" % ", ".join(missing))
    print_table("end-to-end metrics" if not args.trace else
                "per-layer metrics", declared, values, rows)
    print("error_rate %.6g (%d failed of %d attempted)" % (
        len(failures.items) / attempted, len(failures.items), attempted))
    if "job_p90_s" in rows and not benchstats.p90_resolved(
            len(rows["job_p90_s"])):
        print("job_p90_s unresolved: %d jobs, fewer than 10 beyond the p90"
              % len(rows["job_p90_s"]))
    if not args.trace:
        print("host calibration: %d runs, median %.6g s; CPU times scaled "
              "to a host where it takes %g s" % (
                  len(calibration.samples),
                  benchstats.median(calibration.samples),
                  loadgen.Calibration.REFERENCE_S))
        print("unscaled: " + " ".join(
            "%s=%.6g" % kv for kv in sorted(unscaled.items())))
    if selfs:
        print("\nself time by span (ms, summed over jobs)")
        for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print("  %-14s %12.3f" % (name, ms))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "metrics": {m["name"]: dict(
                  metrics[m["name"]],
                  **(benchstats.summary(rows[m["name"]])
                     if isinstance(rows.get(m["name"]), list) else {}))
                  for m in declared},
              "failures": failures.items, "self_time_ms": selfs}
    if not args.trace:
        record["calibration"] = {"samples_s": calibration.samples,
                                 "unscaled": unscaled}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": not failures.items, "attempted": attempted,
                      "failed": len(failures.items), "metrics": metrics}))


if __name__ == "__main__":
    main()
