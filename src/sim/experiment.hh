/**
 * @file
 * Shared plumbing for the benchmark harnesses in bench/.
 *
 * Every bench sweeps the same twenty SPEC2000-like workloads; the
 * instruction budget and the workload subset are controlled by
 * environment variables so a quick run and a paper-scale run use the
 * same binaries:
 *
 *   MNM_INSTRUCTIONS  instructions per workload (default 2,000,000)
 *   MNM_APPS          comma-separated workload names (default: all 20)
 *   MNM_JOBS          sweep worker *processes*, 1..1024 (default: all
 *                     hardware threads). runSweep supervises N forked
 *                     crash-contained workers (sim/proc_pool):
 *                     SIGSEGV/SIGKILL/hangs cost one cell, never the
 *                     sweep, and output is byte-identical at any N
 *   MNM_POISON_LIMIT  failed attempts one cell may spend -- each one a
 *                     throw or a worker death -- before it is declared
 *                     poison and rendered <failed> instead of
 *                     crash-looping the pool (default 3)
 *   MNM_PROGRESS      set to 1 to report per-cell completion (with an
 *                     ETA projection) on stderr
 *   MNM_STATS_JSON    path; write the machine-readable run manifest
 *                     (config echo + every registry metric) at exit
 *   MNM_TRACE_FILE    path; write a Chrome trace_event timeline of the
 *                     sweep (one complete event per cell) at exit
 *   MNM_CHECKPOINT    path; journal each completed sweep cell and
 *                     replay finished cells on restart (sim/recovery)
 *   MNM_CELL_TIMEOUT_S  per-cell deadline in seconds (default: no
 *                     timeout): the supervisor SIGKILLs the worker and
 *                     never re-issues the cell
 *   MNM_FAIL_CELL     testing: kill any cell whose "app · label"
 *                     contains the substring. "<substr>" throws;
 *                     "<substr>:<mode>" with segv, abort, exit:<code>,
 *                     or hang kills or wedges the worker process
 *                     (core/fault_inject.hh)
 *   MNM_REFERENCE     set to 1 to run functional cells through the
 *                     reference paths: the single-step loop with
 *                     virtual verdict dispatch, and the per-event
 *                     virtual update feed instead of the batched event
 *                     ring + update kernels (CI byte-diffs it against
 *                     the batched default)
 *   MNM_OVERLAP       on (default) | off: generate batch N+1 while
 *                     batch N is consumed (a producer thread, or
 *                     software-pipelined slices on one hardware
 *                     thread); off always runs the synchronous slices.
 *                     A schedule knob only: output is bit-identical
 *                     (trace/batch_pipeline.hh)
 *   MNM_PROF          off (default) | time: per-phase attribution of
 *                     the simulator's own cost in fast-tick ticks
 *                     (batch generation, L1-peek, verdict kernel,
 *                     hierarchy walk, update feed), folded into the
 *                     manifest per phase, per cell and per worker
 *                     (obs/phase_profiler.hh)
 *
 * Every knob is validated on parse: a non-numeric or out-of-range
 * value is a one-line fatal() naming the variable, not a silent
 * fallback. So is any other MNM_-prefixed variable in the environment
 * (a typo or a removed knob), so a misspelled knob cannot silently
 * change what a bench measured. The telemetry, recovery, and profiling
 * knobs never touch stdout: with them unset the printed tables are
 * byte-identical to a build without these layers, and
 * tools/extract_results.py turns them into CSV.
 */

#ifndef MNM_SIM_EXPERIMENT_HH
#define MNM_SIM_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "core/fault_inject.hh"
#include "core/mnm_unit.hh"
#include "sim/memory_sim.hh"

namespace mnm
{

/** Environment-derived run options. */
struct ExperimentOptions
{
    std::uint64_t instructions = 2'000'000;
    std::vector<std::string> apps;
    /** Sweep worker processes (MNM_JOBS, sim/proc_pool.hh). */
    unsigned jobs = 1;
    /** Failed attempts (throws or worker deaths) one cell may spend
     *  before it is declared poison (MNM_POISON_LIMIT). */
    unsigned poison_limit = 3;
    /** Base worker-respawn backoff in ms; doubles per consecutive
     *  death. Not an env knob: tests shorten it directly. */
    unsigned worker_backoff_ms = 100;
    /** Report per-cell sweep completion via progress(). */
    bool progress = false;
    /** Checkpoint-journal path (MNM_CHECKPOINT); empty = disabled. */
    std::string checkpoint;
    /** Per-cell deadline in seconds (MNM_CELL_TIMEOUT_S); 0 = none. */
    double cell_timeout_s = 0.0;
    /** Cell fault injection (MNM_FAIL_CELL); match empty = disabled. */
    CellFaultSpec fail_cell;

    /** Parse and validate every MNM_* knob listed in the file comment,
     *  reject any other MNM_* name in the environment, and arm the obs
     *  layer's exit-time manifest/trace writers. */
    static ExperimentOptions fromEnv();

    /** Short app label for table rows ("164.gzip" -> "gzip"). */
    static std::string shortName(const std::string &app);
};

/**
 * Run one workload through a fresh functional simulator: a warm-up
 * window (10% of the budget, accounting discarded; skipped when
 * @p warm is false) followed by the measured window.
 *
 * MNM_REFERENCE=1 forces the reference paths: the single-step loop
 * with virtual verdict dispatch instead of the batched request loop
 * and SoA verdict program, and per-event virtual listeners instead of
 * the batched event ring. CI byte-diffs a bench's stdout across the
 * two to prove the hot path changes nothing.
 */
MemSimResult runFunctional(const HierarchyParams &hierarchy,
                           const std::optional<MnmSpec> &mnm,
                           const std::string &app,
                           std::uint64_t instructions, bool warm = true);

} // namespace mnm

#endif // MNM_SIM_EXPERIMENT_HH
