#!/usr/bin/env python3
"""Run the 21 paper and ablation benches as one suite, and gate it.

Each bench runs in turn at MNM_JOBS=4 (or --jobs) with its run manifest
(MNM_STATS_JSON) written to a temporary file. Their stdout is
concatenated into --out, the input tools/extract_results.py splits into
the CSVs under results/. With --record, a JSON record of the run is
written too: per bench, the wall time, the CPU time its process tree
used (getrusage of the waited-for children), the sweep cell count
(runner.cells), the simulated instructions per CPU second (the sum of
every sweep.<label>.<app>.instructions counter over that CPU time) and
the bench's work: every sweep.<label>.<app>.work.<counter> summed over
its cells (WORK_COUNTERS; warm-up included).

The suite fails when a bench exits non-zero or when a bench that
writes a manifest leaves its "metrics" block empty: every bench that
simulates anything must account for it in the manifest.

The suite is the one performance record, and it has two gates:

  --expect-work FILE  the exact gate: every bench's work counts must
      equal those in FILE (a --record of an earlier run at the same
      MNM_INSTRUCTIONS and MNM_APPS; the comparison is refused
      otherwise). Each bench and counter that moved is printed, with
      its value per instruction before and after. The counts do not
      depend on the host, the job count or the schedule, so any
      difference is a change in what the simulator does. After a
      change that moves them on purpose, re-run the same --record
      command and commit the record.
  --base-build DIR    the paired CPU gate: PAIRS alternating runs of
      the whole suite, DIR's benches and --build-dir's, the first side
      switching every pair, each measured as the suite's CPU seconds.
      It fails only when this build is slower in at least
      SLOWER_TO_FAIL pairs and its median exceeds the base median by
      more than the base's interquartile range. Only the benches both
      builds have are run; their stdout is discarded.

Every other MNM_* knob in the environment (MNM_INSTRUCTIONS, MNM_APPS,
...) passes through to the benches unchanged.

usage: tools/run_suite.py [--build-dir build] [--jobs 4]
                          [--out suite-results.txt] [--record FILE]
                          [--expect-work FILE]
       tools/run_suite.py [--build-dir build] [--jobs 4]
                          --base-build DIR
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCHES = [
    "fig02_miss_time_fraction",
    "fig03_miss_power_fraction",
    "fig10_rmnm_coverage",
    "fig11_smnm_coverage",
    "fig12_tmnm_coverage",
    "fig13_cmnm_coverage",
    "fig14_hmnm_coverage",
    "fig15_exec_reduction",
    "fig16_power_reduction",
    "table1_rmnm_scenario",
    "table2_characteristics",
    "table3_hmnm_configs",
    "eq12_analytic_validation",
    "ext_tlb_filter",
    "abl_cmnm_masking",
    "abl_cpu_models",
    "abl_inclusion",
    "abl_serial_vs_parallel",
    "abl_smnm_modes",
    "abl_tmnm_counter_width",
    "abl_way_prediction",
]

#: The per-cell work counters (sim/runner.hh foldCellMetrics), in the
#: order the record and the gate list them.
WORK_COUNTERS = ("instructions", "l1_probes", "probes", "bypasses",
                 "verdicts", "feed_events")

#: The paired CPU gate: PAIRS pairs of suite runs; a regression needs
#: this build slower in at least SLOWER_TO_FAIL of them.
PAIRS = 10
SLOWER_TO_FAIL = 9

RECORD_SCHEMA = "mnm-suite-v2"


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def sweep_cells(metrics):
    """Every cell's metrics node: metrics.sweep.<label>.<app>."""
    for apps in metrics.get("sweep", {}).values():
        yield from apps.values()


def run_bench(name, build_dir, jobs, out, scratch):
    binary = os.path.join(build_dir, "bench", "bench_" + name)
    manifest = os.path.join(scratch, name + ".json")
    env = dict(os.environ, MNM_JOBS=str(jobs), MNM_STATS_JSON=manifest)
    cpu_before = children_cpu_s()
    start = time.monotonic()
    proc = subprocess.run([binary], env=env, stdout=subprocess.PIPE)
    wall_s = time.monotonic() - start
    cpu_s = children_cpu_s() - cpu_before
    out.write(proc.stdout)
    row = {"bench": name, "rc": proc.returncode,
           "wall_s": round(wall_s, 3), "cpu_s": round(cpu_s, 3)}
    if not os.path.exists(manifest):
        row["manifest"] = False
        return row
    with open(manifest) as f:
        metrics = json.load(f)["metrics"]
    row["manifest"] = True
    row["metrics_empty"] = not metrics
    row["cells"] = metrics.get("runner", {}).get("cells", 0)
    cells = list(sweep_cells(metrics))
    instructions = sum(c.get("instructions", 0) for c in cells)
    row["instructions"] = instructions
    row["instr_per_cpu_s"] = (round(instructions / cpu_s)
                              if cpu_s > 0 else 0)
    row["work"] = {k: sum(c.get("work", {}).get(k, 0) for c in cells)
                   for k in WORK_COUNTERS}
    return row


def run_suite(build_dir, jobs, out, benches, verbose):
    """One pass over @p benches; (rows, wall seconds)."""
    rows = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch:
        for name in benches:
            row = run_bench(name, build_dir, jobs, out, scratch)
            rows.append(row)
            if verbose:
                print(f"{name:28s} {row['wall_s']:8.2f} s wall "
                      f"{row['cpu_s']:8.2f} s cpu "
                      f"{row.get('cells', 0):5d} cells", file=sys.stderr)
    return rows, time.monotonic() - start


def suite_failures(rows):
    """One message per bench that exited non-zero or left its manifest
    empty."""
    messages = []
    for r in rows:
        if r["rc"] != 0:
            messages.append(f"bench_{r['bench']} exited non-zero")
        if r.get("metrics_empty"):
            messages.append(f"bench_{r['bench']} wrote a manifest with "
                            f"empty metrics")
    return messages


# ------------------------------------------------- the gates' arithmetic
# Free of I/O: tools/test_run_suite.py calls these directly.

def compare_work(expected, actual):
    """The exact gate. @p expected and @p actual are suite records.
    Returns (refusal, moved): refusal names why the records cannot be
    compared (different budgets, or a record without work counts) and
    is None otherwise; moved holds one line per bench and counter whose
    count differs."""
    if expected.get("schema") != RECORD_SCHEMA:
        return (f"the expected record's schema is "
                f"{expected.get('schema')!r}, not {RECORD_SCHEMA!r}: it "
                f"carries no work counts", [])
    for key in ("instructions", "apps"):
        if expected.get(key) != actual.get(key):
            return (f"budgets differ: the expected record ran "
                    f"MNM_{key.upper()}={expected.get(key)}, this run "
                    f"{actual.get(key)}", [])
    want = {r["bench"]: r.get("work") for r in expected["benches"]}
    got = {r["bench"]: r.get("work") for r in actual["benches"]}
    def per_instruction(work, counter):
        return work[counter] / work["instructions"] if work[
            "instructions"] else 0.0

    moved = []
    for bench in list(want) + [b for b in got if b not in want]:
        old, new = want.get(bench), got.get(bench)
        if old == new:
            continue
        if old is None or new is None:
            side = "this run" if old is None else "the expected record"
            moved.append(f"{bench}: work counted only in {side}")
            continue
        for counter in WORK_COUNTERS:
            if old[counter] == new[counter]:
                continue
            line = f"{bench}.{counter}: {old[counter]} -> {new[counter]}"
            if counter != "instructions":
                line += (f" ({per_instruction(old, counter):.6f} -> "
                         f"{per_instruction(new, counter):.6f} per "
                         f"instruction)")
            moved.append(line)
    return None, moved


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired_verdict(base, this):
    """The paired CPU gate. @p base and @p this are the suite CPU
    seconds of each pair, in pair order. Fails only when this build is
    slower in at least SLOWER_TO_FAIL pairs and its median exceeds the
    base median by more than the base's interquartile range."""
    if len(base) != len(this) or len(base) < 2:
        raise ValueError("the gate needs two or more complete pairs")
    slower = sum(1 for b, t in zip(base, this) if t > b)
    base_q = quartiles(base)
    this_q = quartiles(this)
    iqr = base_q[2] - base_q[0]
    return {"pairs": len(base), "slower": slower, "base": base_q,
            "this": this_q, "iqr": iqr,
            "fail": (slower >= SLOWER_TO_FAIL and
                     this_q[1] - base_q[1] > iqr)}


# ----------------------------------------------------------- the modes

def run_paired(args):
    benches = [b for b in BENCHES
               if all(os.path.exists(os.path.join(d, "bench", "bench_" + b))
                      for d in (args.base_build, args.build_dir))]
    for name in BENCHES:
        if name not in benches:
            print(f"run_suite: bench_{name} is missing from one build; "
                  f"not compared", file=sys.stderr)
    sides = {"base": args.base_build, "this": args.build_dir}
    totals = {"base": [], "this": []}
    per_bench = {side: {b: [] for b in benches} for side in sides}
    with open(os.devnull, "wb") as devnull:
        for i in range(PAIRS):
            order = ("base", "this") if i % 2 == 0 else ("this", "base")
            for side in order:
                rows, _ = run_suite(sides[side], args.jobs, devnull,
                                    benches, verbose=False)
                failures = suite_failures(rows)
                for message in failures:
                    print(f"run_suite: {side} build: {message}",
                          file=sys.stderr)
                if failures:
                    return 1
                totals[side].append(sum(r["cpu_s"] for r in rows))
                for r in rows:
                    per_bench[side][r["bench"]].append(r["cpu_s"])
            print(f"pair {i + 1:2d} ({order[0]} first): "
                  f"base {totals['base'][-1]:8.2f} s cpu  "
                  f"this {totals['this'][-1]:8.2f} s cpu",
                  file=sys.stderr)

    verdict = paired_verdict(totals["base"], totals["this"])
    for side in sides:
        q1, med, q3 = verdict[side]
        print(f"{side} build suite cpu s: median {med:8.2f}  "
              f"q1 {q1:8.2f}  q3 {q3:8.2f}")
    print(f"this build slower in {verdict['slower']}/{verdict['pairs']} "
          f"pairs, faster or equal in "
          f"{verdict['pairs'] - verdict['slower']}; median delta "
          f"{verdict['this'][1] - verdict['base'][1]:+.2f} s against a "
          f"base IQR of {verdict['iqr']:.2f} s")
    print(f"{'bench':28s} {'base med':>9s} {'this med':>9s} {'ratio':>7s}")
    medians = {b: (statistics.median(per_bench["base"][b]),
                   statistics.median(per_bench["this"][b]))
               for b in benches}
    for b in sorted(benches,
                    key=lambda b: medians[b][0] - medians[b][1]):
        base_med, this_med = medians[b]
        ratio = this_med / base_med if base_med else float("nan")
        print(f"{b:28s} {base_med:9.3f} {this_med:9.3f} {ratio:7.3f}")
    if verdict["fail"]:
        print(f"run_suite: this build's suite CPU time regressed: slower "
              f"in {verdict['slower']}/{verdict['pairs']} pairs and "
              f"beyond the base IQR", file=sys.stderr)
        return 1
    print("paired CPU gate: pass")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Run the 21 paper/ablation benches as one suite.")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default="suite-results.txt",
                        help="concatenated stdout of every bench")
    parser.add_argument("--record", help="write the suite record here")
    parser.add_argument("--expect-work", metavar="FILE",
                        help="fail unless every bench's work counts "
                             "equal those of this suite record")
    parser.add_argument("--base-build", metavar="DIR",
                        help="run the paired CPU gate against the "
                             "benches of this build directory")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.base_build:
        if args.record or args.expect_work:
            parser.error("--base-build takes neither --record nor "
                         "--expect-work")
        return run_paired(args)

    # Read the expected record first: it may be the file --record
    # rewrites.
    expected = None
    if args.expect_work:
        with open(args.expect_work) as f:
            expected = json.load(f)

    with open(args.out, "wb") as out:
        rows, wall_s = run_suite(args.build_dir, args.jobs, out, BENCHES,
                                 verbose=True)

    cpu_s = sum(r["cpu_s"] for r in rows)
    instructions = sum(r.get("instructions", 0) for r in rows)
    total = {"wall_s": round(wall_s, 3), "cpu_s": round(cpu_s, 3),
             "cells": sum(r.get("cells", 0) for r in rows),
             "instructions": instructions,
             "instr_per_cpu_s": (round(instructions / cpu_s)
                                 if cpu_s > 0 else 0)}
    print(f"{'suite':28s} {wall_s:8.2f} s wall {cpu_s:8.2f} s cpu "
          f"{total['cells']:5d} cells", file=sys.stderr)

    record = {
        "schema": RECORD_SCHEMA,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "jobs": args.jobs,
        # What the work counts depend on besides the code.
        "instructions": os.environ.get("MNM_INSTRUCTIONS", "default"),
        "apps": os.environ.get("MNM_APPS", "all"),
        "total": total,
        "benches": rows,
    }
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")

    status = 0
    for message in suite_failures(rows):
        print(f"run_suite: {message}", file=sys.stderr)
        status = 1
    if expected is not None:
        refusal, moved = compare_work(expected, record)
        if refusal:
            print(f"run_suite: cannot compare work with "
                  f"{args.expect_work}: {refusal}", file=sys.stderr)
            return 1
        for line in moved:
            print(f"run_suite: work moved: {line}", file=sys.stderr)
        if moved:
            print(f"run_suite: {len(moved)} work count(s) differ from "
                  f"{args.expect_work}; if the change is intended, "
                  f"re-run with --record {args.expect_work} and commit "
                  f"it", file=sys.stderr)
            status = 1
        else:
            print(f"work counts match {args.expect_work}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
