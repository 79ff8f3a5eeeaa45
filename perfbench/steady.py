#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--first-seed 100] [--seconds N]

Runs run.py --runs times per set on each workload, every run with its
own seed, in --sets sets. For every end-to-end metric it prints each
set's median and quartiles, the spread (q3 - q1) / median, and the
bound from BENCHMARK.json. It fails (exit 1) when a spread exceeds its
bound, or when a later set's median differs from the first set's, in
either direction, by more than the bound. Spreads above a third of the
bound are flagged as unsteady.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import benchmath  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: output checks failed"
                         % (workload, seed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    env = [json.loads(x.split(":", 1)[1]) for x in lines
           if x.strip().startswith("environment:")]
    steal = env[0].get("steal_frac") if env else None
    print("  run %s seed %d: %s, host steal %s"
          % (workload, seed, ", ".join("%s %.6g" % kv
                                       for kv in values.items()),
             "n/a" if steal is None else "%.3f" % steal), flush=True)
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to take quartiles")

    problems = []
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, args.seconds))
                seed += 1
            sets.append(runs)
        print("%s (%d sets x %d runs)" % (workload, args.sets, args.runs))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, q2, q3 = benchmath.quartiles(values)
                sp = benchmath.spread(values)
                medians.append(q2)
                flag = ""
                if sp > bound:
                    flag = "  FAIL: spread above bound"
                    problems.append("%s %s set %d spread %.4f > %.4f"
                                    % (workload, name, s, sp, bound))
                elif sp > bound / 3:
                    flag = "  (unsteady: spread above bound/3)"
                print("  %-14s set %d  median %-12.6g q1 %-12.6g "
                      "q3 %-12.6g spread %.4f bound %.2f%s"
                      % (name, s, q2, q1, q3, sp, bound, flag))
            for s in range(1, len(medians)):
                diff = benchmath.differs_by(medians[s], medians[0])
                print("  %-14s set %d median differs from set 0 by %.4f%s"
                      % (name, s, diff,
                         "  FAIL: above bound" if diff > bound else ""))
                if diff > bound:
                    problems.append("%s %s set %d median differs by %.4f"
                                    % (workload, name, s, diff))
    if problems:
        print("NOT STEADY:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("steady: every spread and median within its bound")


if __name__ == "__main__":
    main()
