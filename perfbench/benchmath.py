"""The benchmark's arithmetic: percentiles, per-pass metrics and spreads.

Kept free of I/O so test_benchmath.py can check it directly. A *pass* is
one run of every cell of a workload grid, as mnm_perfbench reports it:
its wall time, the process CPU time it took, and one
[start_s, end_s, worker, setup_s, instructions, cpu_s] record per cell.
"""

import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it. Always one of the values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def beyond(count, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    return count - math.ceil(p / 100.0 * count)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def differs_by(new, old):
    """How far new is from old, either way, as a share of old."""
    if old == 0:
        return 0.0 if new == old else math.inf
    return abs(new - old) / abs(old)


def cpu_per_wall(cpu_s, wall_s):
    """Busy host threads on average: process CPU time over wall time."""
    return cpu_s / wall_s if wall_s > 0 else 0.0


def busy_frac(cells, workers, wall_s):
    """Share of the workers' wall time spent inside cells."""
    if wall_s <= 0 or workers <= 0:
        return 0.0
    return sum(c[1] - c[0] for c in cells) / (workers * wall_s)


def tail_s(cells, workers, wall_s):
    """Time from the first worker going idle to the end of the pass.
    A worker that ran no cell was idle from the start."""
    last_end = [0.0] * workers
    for c in cells:
        w = int(c[2])
        if 0 <= w < workers:
            last_end[w] = max(last_end[w], c[1])
    return max(0.0, wall_s - min(last_end))


def pass_metrics(p, workers):
    """End-to-end and runner metrics of one pass. Throughput and cell
    times are in CPU time (process, and each cell's worker thread), which
    a hypervisor's steal does not inflate; the runner metrics are wall
    time."""
    cells = p["cells"]
    ms = [c[5] * 1e3 for c in cells]
    instr = sum(c[4] for c in cells)
    return {
        "minstr_per_s": instr / p["cpu_s"] / 1e6,
        "wall_minstr_per_s": instr / p["wall_s"] / 1e6,
        "cell_ms_p50": percentile(ms, 50),
        "cell_ms_p90": percentile(ms, 90),
        "setup_s": sum(c[3] for c in cells),
        "runner.cpu_per_wall": cpu_per_wall(p["cpu_s"], p["wall_s"]),
        "runner.busy_frac": busy_frac(cells, workers, p["wall_s"]),
        "runner.tail_s": tail_s(cells, workers, p["wall_s"]),
    }


def median_over_passes(passes, workers):
    """Each pass metric's median over the passes."""
    per_pass = [pass_metrics(p, workers) for p in passes]
    return {k: median([m[k] for m in per_pass]) for k in per_pass[0]}


def ratio(num, den):
    return num / den if den else 0.0
