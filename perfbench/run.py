#!/usr/bin/env python3
"""End-to-end benchmark of the MNM simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload functional_fast --seed 1 \
        --seconds 24 --trace 0

Run from the repository root. Builds the simulator libraries and the
mnm_perfbench program from source (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench), runs one workload for --seconds of
timed passes, checks the simulated outputs, and prints a report whose
last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reports the
per-layer metrics instead: it spends half the time untraced and half
traced, so the tracing overhead is measured too, and writes the spans as
Chrome trace-event JSON beside the results.
"""

import argparse
import collections
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import benchmath  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("functional_fast", "timing_cores", "functional_fallback")
DEFAULT_SEED = 1
# Never used while writing the benchmark or a change: recheck claims on it.
HELD_OUT_SEED = 7177

# Every mnm_perfbench process of one invocation must end by then.
DEADLINE_S = 170

END_TO_END = (
    ("minstr_per_s", "Minstr/cpu-s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PROF_PHASES = ("run", "batch_gen", "l1_peek", "verdict", "hier_walk",
               "update_feed", "cold_account", "feed_drain", "gen_overlap",
               "lane_descent")


def per_layer_units():
    units = {
        "trace.ns_per_instr": "ns",
        "trace.calls_per_kinstr": "count",
        "trace.busy_frac": "ratio",
        "sim.ns_per_instr": "ns",
        "sim.requests_per_instr": "count",
        "sim.warmup_frac": "ratio",
        "runner.cpu_per_wall": "ratio",
        "runner.busy_frac": "ratio",
        "runner.tail_s": "s",
        "cpu.ooo.ns_per_instr": "ns",
        "cpu.cycle.ns_per_instr": "ns",
        "cpu.ooo.host_ns_per_sim_cycle": "ns",
        "core.lookups_per_req": "count",
        "core.bypasses_per_lookup": "count",
        "core.coverage": "ratio",
        "core.violations": "count",
        "core.ns_per_verdict": "ns",
        "cache.probes_per_req": "count",
        "cache.l1_hit_rate": "ratio",
        "cache.mem_per_kreq": "count",
        "cache.ns_per_access": "ns",
        "setup.hierarchy_ms": "ms",
        "setup.mnm_ms": "ms",
        "setup.workload_ms": "ms",
    }
    for phase in PROF_PHASES:
        units["prof.%s.share" % phase] = "ratio"
    units["tracing.overhead_frac"] = "ratio"
    return units


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout"
             % ROOT)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd, bdir)
        run_build_step(["cmake", "--build", bdir, "-j",
                        str(len(os.sched_getaffinity(0)))], bdir)


def run_build_step(cmd, bdir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, timeout=850).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build step %s failed: %s" % (cmd[:2], e))
    if rc != 0:
        fail("build step %s exited %d" % (" ".join(cmd[:2]), rc))


def environment(bdir, raw):
    """What the numbers depend on besides the code."""
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return {
        "nproc": raw["nproc"],
        "compiler": version,
        "build_type": build_type,
        "flags": flags,
        "overlap": raw["overlap"],
        "workers": raw["workers"],
        "threads": raw["threads"],
    }


def host_cpu_times():
    """(steal, total) jiffies of the host's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(before, after):
    """Share of CPU time a hypervisor gave to other guests: a run with a
    high share was slowed by the host, not by the code."""
    if not before or not after or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_program(bdir, workload, seed, seconds, trace, stem, deadline,
                budget=None):
    """One mnm_perfbench process; returns its raw JSON. @p budget
    replaces the workload's measured-window instructions per cell."""
    out = os.path.join(bdir, "results", stem + ".raw.json")
    cmd = [os.path.join(bdir, "mnm_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out]
    if budget:
        cmd += ["--budget", str(budget)]
    if trace:
        cmd += ["--trace-file",
                os.path.join(bdir, "results", stem + ".trace.json")]
    # Only generated inputs and the benchmark's own settings reach the
    # simulator: no inherited MNM_* knob.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MNM_")}
    if trace:
        env["MNM_PROF"] = "time"
    if os.path.exists(out):
        os.remove(out)
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                            stderr=sys.stderr,
                            timeout=max(1.0, deadline - time.time())
                            ).returncode
    except subprocess.TimeoutExpired:
        fail("mnm_perfbench did not finish in time")
    if rc != 0:
        fail("mnm_perfbench exited %d" % rc)
    with open(out) as f:
        return json.load(f)


def end_to_end(raw):
    m = benchmath.median_over_passes(raw["passes"], raw["workers"])
    values = {name: m[name] for name, _ in END_TO_END if name in m}
    values["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    return values


def per_layer(untraced, traced):
    r = benchmath.ratio
    # A sum no cell of the workload produced (no cpu cells, say) is 0.
    s = collections.defaultdict(float, traced["layers"])
    rp = collections.defaultdict(float, traced["replay"])
    runner = benchmath.median_over_passes(untraced["passes"],
                                          untraced["workers"])
    v = {
        "trace.ns_per_instr": r(s["gen_ns"], s["gen_instr"]),
        "trace.calls_per_kinstr": r(1e3 * s["gen_calls"], s["gen_instr"]),
        "trace.busy_frac": r(s["gen_ns"], s["cell_ns"]),
        "sim.ns_per_instr": r(s["sim_ns"], s["sim_instr"]),
        "sim.requests_per_instr": r(s["sim_requests"], s["sim_instr"]),
        "sim.warmup_frac": r(s["sim_warm_ns"], s["sim_ns"]),
        "runner.cpu_per_wall": runner["runner.cpu_per_wall"],
        "runner.busy_frac": runner["runner.busy_frac"],
        "runner.tail_s": runner["runner.tail_s"],
        "cpu.ooo.ns_per_instr": r(s["ooo_ns"], s["ooo_instr"]),
        "cpu.cycle.ns_per_instr": r(s["cycle_ns"], s["cycle_instr"]),
        "cpu.ooo.host_ns_per_sim_cycle": r(s["ooo_ns"], s["ooo_cycles"]),
        "core.lookups_per_req": r(s["lookups"], s["mnm_requests"]),
        "core.bypasses_per_lookup": r(s["bypasses"], s["lookups"]),
        "core.coverage": r(s["identified"], s["opportunities"]),
        # Per pass over the grid. Sound specs are checked to have none,
        # so this counts the unsound PaperReset cells' violations.
        "core.violations": r(s["violations"], len(traced["passes"])),
        "core.ns_per_verdict": r(rp["verdict_ns"], rp["verdicts"]),
        "cache.probes_per_req": r(s["probes"], s["requests"]),
        "cache.l1_hit_rate": r(s["l1_hits"], s["l1_accesses"]),
        "cache.mem_per_kreq": r(1e3 * s["mem_accesses"], s["requests"]),
        "cache.ns_per_access": r(rp["access_ns"], rp["accesses"]),
        "setup.hierarchy_ms": r(rp["hierarchy_ns"], 1e6 * rp["hierarchies"]),
        "setup.mnm_ms": r(rp["mnm_ns"], 1e6 * rp["mnms"]),
        "setup.workload_ms": r(rp["workload_ns"], 1e6 * rp["workloads"]),
    }
    ticks = traced.get("prof_ticks", {})
    total = sum(ticks.values())
    for phase in PROF_PHASES:
        v["prof.%s.share" % phase] = r(ticks.get(phase, 0), total)
    fast = end_to_end(untraced)["minstr_per_s"]
    slow = end_to_end(traced)["minstr_per_s"]
    v["tracing.overhead_frac"] = 1.0 - r(slow, fast)
    return v


def report(raw_runs, trace, seed, env, values, units):
    """Human-readable lines before the result line."""
    first = raw_runs[0]
    passes = sum(len(x["passes"]) for x in raw_runs)
    print("perfbench %s seed=%d (default %d, held-out %d) trace=%d"
          % (first["workload"], seed, DEFAULT_SEED, HELD_OUT_SEED, trace))
    print("  grid: %d cells x %d passes, %d+%d instructions per cell, "
          "%d reference re-runs"
          % (first["cells"], passes, first["warmup"], first["budget"],
             sum(x["reference_cells"] for x in raw_runs)))
    print("  environment: " + json.dumps(env, sort_keys=True))
    wall = benchmath.median_over_passes(first["passes"], first["workers"])
    print("  wall-clock throughput %.6g Minstr/s (not a metric: host steal "
          "moves it)" % wall["wall_minstr_per_s"])
    attempted = sum(x["attempted"] for x in raw_runs)
    failed = sum(x["failed"] for x in raw_runs)
    checks = sum(x["checks"] for x in raw_runs)
    checks_failed = sum(x["checks_failed"] for x in raw_runs)
    print("  checks: %d cell runs, %d failed (failed_frac %.6g); "
          "%d output checks, %d failed"
          % (attempted, failed, benchmath.ratio(failed, attempted),
             checks, checks_failed))
    for x in raw_runs:
        for what, count in x["failures"].items():
            print("    FAILED x%d: %s" % (count, what))
    for name, value in values.items():
        extra = ""
        if name in ("cell_ms_p50", "cell_ms_p90"):
            cells = len(first["passes"][0]["cells"])
            extra = "  (%d cells/pass, %d beyond p90)" % (
                cells, benchmath.beyond(cells, 90))
        print("  %-32s %14.6g %s%s" % (name, value, units[name], extra))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)"
             % (args.workload, ", ".join(WORKLOADS)), 2)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bdir = build_dir()
    build(bdir)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    started = time.time()
    deadline = started + DEADLINE_S
    cpu_before = host_cpu_times()
    if args.trace:
        half = max(1, args.seconds // 2)
        untraced = run_program(bdir, args.workload, args.seed, half, False,
                              stem + "-untraced", deadline)
        traced = run_program(bdir, args.workload, args.seed, half, True,
                            stem + "-traced", deadline)
        raw_runs = [untraced, traced]
        values = per_layer(untraced, traced)
        units = per_layer_units()
        out_name = stem + ".layers.json"
    else:
        raw_runs = [run_program(bdir, args.workload, args.seed, args.seconds,
                               False, stem, deadline)]
        values = end_to_end(raw_runs[0])
        units = dict(END_TO_END)
        out_name = stem + ".e2e.json"

    attempted = sum(x["attempted"] for x in raw_runs)
    failed = sum(x["failed"] for x in raw_runs)
    env = environment(bdir, raw_runs[0])
    env["steal_frac"] = steal_frac(cpu_before, host_cpu_times())
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    with open(os.path.join(bdir, "results", out_name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "elapsed_s": time.time() - started, "result": result,
                   "failures": [x["failures"] for x in raw_runs]},
                  f, indent=1, sort_keys=True)
    report(raw_runs, args.trace, args.seed, env, values, units)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
