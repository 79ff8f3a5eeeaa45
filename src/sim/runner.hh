/**
 * @file
 * Sweep engine for the experiment harness.
 *
 * Every bench reproduces a paper table/figure by sweeping the twenty
 * SPEC2000-like workloads over a handful of machine/MNM variants. Each
 * (workload, hierarchy, MNM, model, budget) point -- a SweepCell -- is
 * an independent simulation on fresh state, so the grid is
 * embarrassingly parallel. runSweep() is the one place benches and
 * examples run cells. It supervises MNM_JOBS forked worker processes
 * (sim/proc_pool.hh), and results land in a pre-sized output vector
 * indexed by cell, so aggregation order (and therefore every printed
 * table) is deterministic and byte-identical at any job count.
 *
 * Concurrency model: no simulator state is shared between cells. Each
 * cell runs in a worker process on fresh state and comes back as a
 * serialized MemSimResult; the supervisor itself never spawns a
 * thread. A cell that throws, crashes its worker or hangs fails its
 * own slot and the pool keeps draining.
 *
 * Job count comes from MNM_JOBS (default: hardware_concurrency).
 */

#ifndef MNM_SIM_RUNNER_HH
#define MNM_SIM_RUNNER_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace mnm
{

class StatsRegistry;

/** What simulates a sweep cell (runCell dispatches on it). */
enum class CellModel
{
    /** MemorySimulator: access time, energy, coverage (Figs 2-14, 16). */
    Functional,
    /** OooCore, the dataflow timing core (Fig 15, Table 2). */
    OooCore,
    /** CycleOooCore, the cycle-driven reference core. */
    CycleCore,
    /** The 64-entry DTLB of the Section 4.5 extension, bare or behind
     *  the spec's single filter. */
    Dtlb,
};

/** One independent point of a sweep grid. */
struct SweepCell
{
    std::string app;                 //!< workload name ("164.gzip")
    HierarchyParams hierarchy;       //!< machine configuration
    std::optional<MnmSpec> mnm;      //!< optional MNM shielding it
    std::uint64_t instructions = 0;  //!< measured-window budget
    std::string label;               //!< variant tag for progress/errors
    CellModel model = CellModel::Functional;
    /** Run a warm-up window of instructions/10 (accounting discarded)
     *  before the measured one. */
    bool warm = true;
};

/** One machine/MNM variant, to be crossed with the workload list. */
struct SweepVariant
{
    std::string label;
    HierarchyParams hierarchy;
    std::optional<MnmSpec> mnm;
    CellModel model = CellModel::Functional;
    bool warm = true;
};

/**
 * Simulate one cell on fresh state, on the calling thread.
 *
 *  - Functional: runFunctional() (warm-up unless !cell.warm).
 *  - OooCore / CycleCore: the core paperCpu(levels) on cell.hierarchy,
 *    behind cell.mnm. Fills cpu, instructions, caches,
 *    soundness_violations, mnm_storage_bits, verdicts, feed_events,
 *    and the measured window's coverage and decisions.
 *  - Dtlb: the data-address stream through a 64-entry fully
 *    associative DTLB, behind the single filter of cell.mnm when set.
 *    Reports through requests (translations), total_access_cycles,
 *    caches[0] (the DTLB), coverage (level 1), energy.mnm_pj (filter
 *    energy) and soundness_violations. Like every cell model's,
 *    caches[0] is cumulative over warm-up and measured window, while
 *    coverage and energy.mnm_pj cover the measured window; verdicts
 *    and feed_events stay 0.
 */
MemSimResult runCell(const SweepCell &cell);

/**
 * Cross @p apps with @p variants into an app-major cell grid: the cell
 * for (app a, variant v) sits at index `a * variants.size() + v`, which
 * is exactly the order the serial bench loops used to visit.
 */
std::vector<SweepCell>
makeGridCells(const std::vector<std::string> &apps,
              const std::vector<SweepVariant> &variants,
              std::uint64_t instructions);

/** MNM_JOBS in [1, 1024], or hardware_concurrency when unset. */
unsigned jobsFromEnv();

/** "app · label" (or just app) for progress/error messages. */
std::string sweepCellDisplayName(const SweepCell &cell);

/**
 * Why a sweep cell was marked failed. Split out so operators can tell
 * "my cell keeps failing" from "my cell is slow" straight from the
 * manifest (runner.failures.by_cause.*) without re-running anything.
 */
enum class SweepFailCause
{
    Timeout, //!< MNM_CELL_TIMEOUT_S expired
    Poison,  //!< failed MNM_POISON_LIMIT attempts (threw or killed its
             //!< worker)
};

/** Metric-segment / log name for @p cause ("timeout", "poison"). */
const char *sweepFailCauseName(SweepFailCause cause);

/**
 * Mark @p result as cells[index]'s failure: reset it with failed set
 * and @p reason as fail_reason, warn with the cell's display name and
 * cause, bump "runner.failures.total", "runner.failures.by_cause.
 * <cause>" and the per-cell "runner.failures.<label>.<app>" counter,
 * and latch sweepExitCode() nonzero. The process-pool supervisor
 * calls it for every failure cause.
 */
void recordSweepCellFailure(const SweepCell &cell, std::size_t index,
                            SweepFailCause cause,
                            const std::string &reason,
                            MemSimResult &result);

/** Wall-clock record of one sweep cell, filled in by the pool
 *  supervisor. */
struct SweepCellTiming
{
    std::uint64_t start_us = 0; //!< steady-clock start
    std::uint64_t dur_us = 0;
    unsigned worker = 0;
    /** False for cells replayed from a checkpoint or failed before
     *  completing: their wall-clock numbers are meaningless. */
    bool ran = false;
};

/**
 * Fixed-size thread pool executing an indexed task set in-process, for
 * callers that time their own cells on threads (perfbench). Sweeps do
 * not use it: runSweep() runs cells in worker processes.
 */
class ParallelRunner
{
  public:
    /** @param jobs worker count; 0 = hardware_concurrency, 1 = run
     *  everything inline on the calling thread. */
    explicit ParallelRunner(unsigned jobs);

    unsigned jobs() const { return jobs_; }

    /**
     * Execute task(0) .. task(count-1), each exactly once. With more
     * than one job, workers claim indices dynamically (small cells
     * don't stall the pool behind big ones). An exception escaping
     * task(i) is captured into slot i of the returned vector; the
     * remaining indices still run and the pool always joins.
     *
     * @return one std::exception_ptr per index, null on success.
     */
    std::vector<std::exception_ptr>
    run(std::size_t count,
        const std::function<void(std::size_t)> &task) const;

    /**
     * Index of the pool worker executing the current task: 0..jobs-1
     * inside run(), 0 on the serial path and outside any pool.
     */
    static unsigned currentWorker();

  private:
    unsigned jobs_;
};

/**
 * Run every cell through runCell() on @p opts.jobs forked worker
 * processes (sim/proc_pool.hh). Results are indexed like @p cells.
 * Per-cell completion (plus an ETA projected from cells done over
 * elapsed time) is reported via progress() when @p opts.progress
 * (MNM_PROGRESS=1). Stdout and the manifest's "sweep.*" subtree are
 * byte-identical at any job count.
 *
 * Fault containment: a cell that segfaults, aborts, exits or hangs
 * takes down only its worker. A cell that throws or kills its worker
 * spends one attempt of a single budget and is re-issued (to a
 * respawned worker after a death) until it has failed
 * MNM_POISON_LIMIT times. MNM_CELL_TIMEOUT_S is a SIGKILL deadline
 * and is never re-issued. A cell that fails for good does NOT abort
 * the sweep: its result comes back with
 * MemSimResult::failed set (and fail_reason saying why), a warning
 * names it, "runner.failures.*" counters record it by cause, and
 * sweepExitCode() turns nonzero so benches exit 1 after printing their
 * tables with gap markers.
 *
 * Checkpointing: when @p opts.checkpoint names a journal
 * (MNM_CHECKPOINT), previously completed cells are replayed from it --
 * skipping their simulation entirely -- and each newly completed cell
 * is durably appended. Replayed results are bit-identical to
 * recomputed ones (the simulator is deterministic and the journal
 * round-trips doubles exactly), so a killed-and-resumed run prints
 * byte-identical tables.
 *
 * Telemetry: after the pool drains, each completed cell's simulation
 * metrics (per-level decision confusion matrix, coverage counts,
 * traffic, and simulated cycles for timing cells) are folded into
 * globalStats() under "sweep.<label>.<app>.*"
 * in cell-index order -- identical at any MNM_JOBS value -- and
 * wall-clock telemetry (per-cell wall time, queue delay, worker
 * utilization) under "runner.*", which comparisons must skip. When
 * MNM_TRACE_FILE is set, one Chrome complete event per cell is
 * appended to globalTrace(). None of this touches stdout.
 */
std::vector<MemSimResult> runSweep(const std::vector<SweepCell> &cells,
                                   const ExperimentOptions &opts);

/**
 * Fold one cell's simulation metrics into @p stats under
 * "sweep.<label>.<app>.*" -- the per-cell step of runSweep()'s
 * telemetry. A failed cell adds nothing. Its "work.*" counters cover
 * the whole cell, warm-up included: instructions, l1_probes (level-1
 * accesses), probes and bypasses (level >= 2 accesses and bypasses),
 * verdicts and feed_events.
 */
void foldCellMetrics(StatsRegistry &stats, const SweepCell &cell,
                     const MemSimResult &r);

/**
 * Process exit code reflecting sweep health: 1 once any runSweep()
 * cell has failed for good, else 0. Benches return this from
 * main() so graceful degradation still fails CI.
 */
int sweepExitCode();

/** Table-cell helper: NaN (rendered as the "<failed>" gap marker by
 *  util/table.hh) when @p r is a failed cell, else @p value. */
inline double
sweepCell(const MemSimResult &r, double value)
{
    return r.failed ? std::numeric_limits<double>::quiet_NaN() : value;
}

/** sweepCell for a value read from two cells (a baseline-relative
 *  column): the gap marker when either @p base or @p r failed. */
inline double
sweepCell(const MemSimResult &base, const MemSimResult &r, double value)
{
    return sweepCell(base.failed ? base : r, value);
}

/**
 * Test hook: called in the worker process before every cell attempt as
 * hook(cell, attempt), attempt being the cell's failed attempts so far
 * (0 on the first issue); a throwing hook fails that attempt exactly
 * like a throwing simulation, and a hook that kills its process
 * crashes the worker. The workers inherit it across fork,
 * so set it before runSweep(); pass nullptr to clear.
 */
void setSweepFaultHookForTest(
    std::function<void(const SweepCell &, unsigned)> hook);

/** The installed test fault hook (null when unset), for the worker
 *  loop in sim/proc_pool.cc. */
const std::function<void(const SweepCell &, unsigned)> &sweepFaultHook();

} // namespace mnm

#endif // MNM_SIM_RUNNER_HH
