#!/usr/bin/env python3
"""Compares the benchmark's cost mix at its own per-cell budgets with
the suite's default of 2,000,000 instructions per cell.

    python3 perfbench/budget_check.py [--workloads a,b] [--seed 1]
                                      [--budget 2000000] [--rounds 3]

The benchmark runs its grids at smaller budgets than the suite does, so
that one pass takes seconds. That is only fair if a cell costs about
the same per instruction, and spends its time in the same places, at
both sizes. For every workload this runs --rounds untraced grids at
each budget, alternating the two, then one traced grid at each (run.py
must have built the program). It prints, side by side:

- host ns per simulated instruction over whole cells, overall and per
  variant, and the share of cell time spent constructing cells: the
  median over the rounds, which alternate so host drift hits both;
- from the traced grid: the per-layer costs, simulated cache counts and
  MNM_PROF=time phase shares.

At the default budget it takes about ten minutes on a 4-thread host.
"""

import argparse
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True
import run  # noqa: E402

SUITE_BUDGET = 2_000_000
LAYERS = ("sim.ns_per_instr", "trace.ns_per_instr", "trace.busy_frac",
          "cpu.ooo.ns_per_instr", "cpu.cycle.ns_per_instr",
          "cache.probes_per_req", "cache.l1_hit_rate", "cache.mem_per_kreq")


def check(raw):
    if raw["failed"]:
        raise SystemExit("output checks failed; no comparison")
    return raw


def cell_costs(raw):
    """Whole-cell costs of one untraced grid."""
    variants = raw["variants"]
    cell_s = [0.0] * len(variants)
    instr = [0] * len(variants)
    setup_s = 0.0
    for p in raw["passes"]:
        for i, c in enumerate(p["cells"]):
            cell_s[i % len(variants)] += c[1] - c[0]
            instr[i % len(variants)] += c[4]
            setup_s += c[3]
    costs = {"ns_per_instr": 1e9 * sum(cell_s) / sum(instr),
             "setup_share": setup_s / sum(cell_s)}
    for k, label in enumerate(variants):
        costs["variant " + label] = 1e9 * cell_s[k] / instr[k]
    return costs


def layer_mix(untraced, traced):
    layers = run.per_layer(untraced, traced)
    names = LAYERS + tuple("prof.%s.share" % p for p in run.PROF_PHASES)
    return {name: layers[name] for name in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--budget", type=int, default=SUITE_BUDGET)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    bdir = run.build_dir()
    if not os.path.isfile(os.path.join(bdir, "mnm_perfbench")):
        raise SystemExit("build the benchmark first (run.py)")
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)

    budgets = (None, args.budget)  # None: the workload's own
    for workload in args.workloads.split(","):
        def grid(budget, trace):
            # --seconds 1: a pass of several seconds runs once.
            stem = "budget-%s-%s%s" % (workload, budget or "own",
                                       "-traced" if trace else "")
            return check(run.run_program(bdir, workload, args.seed, 1,
                                         trace, stem, time.time() + 3600,
                                         budget))

        rounds = {b: [] for b in budgets}
        last = {}
        for _ in range(args.rounds):
            for b in budgets:
                last[b] = grid(b, False)
                rounds[b].append(cell_costs(last[b]))
        mixes = []
        for b in budgets:
            mix = {k: statistics.median(r[k] for r in rounds[b])
                   for k in rounds[b][0]}
            mix.update(layer_mix(last[b], grid(b, True)))
            mixes.append(mix)
        a, b = mixes
        print("%s: budget %d vs %d instructions per cell (+10%% warm-up); "
              "whole-cell costs are medians of %d alternating rounds"
              % (workload, last[None]["budget"], args.budget, args.rounds))
        for name in a:
            if a[name] or b[name]:
                print("  %-32s %12.4g %12.4g   x%.3f"
                      % (name, a[name], b[name],
                         a[name] / b[name] if b[name] else float("inf")))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
