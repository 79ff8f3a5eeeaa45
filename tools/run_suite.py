#!/usr/bin/env python3
"""Run the 21 paper and ablation benches as one suite.

Each bench runs in turn at MNM_JOBS=4 (or --jobs) with its run manifest
(MNM_STATS_JSON) written to a temporary file. Their stdout is
concatenated into --out, the input tools/extract_results.py splits into
the CSVs under results/. With --record, a JSON record of the run is
written too: per bench, the wall time, the CPU time its process tree
used (getrusage of the waited-for children), the sweep cell count
(runner.cells) and the simulated instructions per CPU second (the sum
of every sweep.<label>.<app>.instructions counter over that CPU time).

The suite fails when a bench exits non-zero or when a bench that
writes a manifest leaves its "metrics" block empty: every bench that
simulates anything must account for it in the manifest.

Every other MNM_* knob in the environment (MNM_INSTRUCTIONS, MNM_APPS,
...) passes through to the benches unchanged.

usage: tools/run_suite.py [--build-dir build] [--jobs 4]
                          [--out suite-results.txt] [--record FILE]
"""

import argparse
import json
import os
import platform
import resource
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


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def sweep_instructions(metrics):
    """Sum of sweep.<label>.<app>.instructions over every cell."""
    total = 0
    for apps in metrics.get("sweep", {}).values():
        for cell in apps.values():
            total += cell.get("instructions", 0)
    return total


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
    instructions = sweep_instructions(metrics)
    row["instructions"] = instructions
    row["instr_per_cpu_s"] = (round(instructions / cpu_s)
                              if cpu_s > 0 else 0)
    return row


def main(argv):
    parser = argparse.ArgumentParser(
        description="Run the 21 paper/ablation benches as one suite.")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default="suite-results.txt",
                        help="concatenated stdout of every bench")
    parser.add_argument("--record", help="write the suite record here")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")

    rows = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch, \
            open(args.out, "wb") as out:
        for name in BENCHES:
            row = run_bench(name, args.build_dir, args.jobs, out, scratch)
            rows.append(row)
            print(f"{name:28s} {row['wall_s']:8.2f} s wall "
                  f"{row['cpu_s']:8.2f} s cpu "
                  f"{row.get('cells', 0):5d} cells", file=sys.stderr)
    wall_s = time.monotonic() - start

    cpu_s = sum(r["cpu_s"] for r in rows)
    instructions = sum(r.get("instructions", 0) for r in rows)
    total = {"wall_s": round(wall_s, 3), "cpu_s": round(cpu_s, 3),
             "cells": sum(r.get("cells", 0) for r in rows),
             "instructions": instructions,
             "instr_per_cpu_s": (round(instructions / cpu_s)
                                 if cpu_s > 0 else 0)}
    print(f"{'suite':28s} {wall_s:8.2f} s wall {cpu_s:8.2f} s cpu "
          f"{total['cells']:5d} cells", file=sys.stderr)

    if args.record:
        record = {
            "schema": "mnm-suite-v1",
            "host": {"machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "jobs": args.jobs,
            "instructions": os.environ.get("MNM_INSTRUCTIONS",
                                           "default"),
            "total": total,
            "benches": rows,
        }
        with open(args.record, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")

    failed = [r["bench"] for r in rows if r["rc"] != 0]
    empty = [r["bench"] for r in rows if r.get("metrics_empty")]
    for name in failed:
        print(f"run_suite: bench_{name} exited non-zero", file=sys.stderr)
    for name in empty:
        print(f"run_suite: bench_{name} wrote a manifest with empty "
              f"metrics", file=sys.stderr)
    return 1 if failed or empty else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
