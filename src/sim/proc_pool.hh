/**
 * @file
 * Process-isolated sweep execution: the supervisor behind runSweep().
 *
 * Nothing in-process can contain a SIGSEGV, a std::abort(), an exit()
 * from library code, or a cell that simply never returns: any of those
 * would take the whole sweep (and every already-computed cell) with
 * it. So runSweep() is a single-threaded supervisor that forks MNM_JOBS
 * worker processes and feeds them cells over pipes; the worst any cell
 * can do is kill its worker.
 *
 * Protocol (all pipe traffic is length-prefixed frames: a 4-byte
 * little-endian payload length, then the payload):
 *
 *   supervisor -> worker: 8-byte command {u32 cell index, u32 attempt},
 *     the attempt being the cell's failures so far. The worker
 *     inherited the full cell vector across fork(), so the index is
 *     the whole job description. EOF on the command pipe is
 *     the shutdown signal: the worker _Exit(0)s.
 *   worker -> supervisor: one JSON response per command, either
 *     {"index":N,"dur_us":D,"result":{...}} (the exact
 *     sim/recovery.hh writeMemSimResult encoding, so replayed and
 *     pipe-delivered results are bit-identical) or
 *     {"index":N,"error":"what()"} for a contained exception. With
 *     MNM_PROF active the success response also carries a "prof"
 *     block: the cell's PhaseTotals (per-phase counters), measured in
 *     the worker because profiler state is per-process. The supervisor
 *     folds it into prof.cell.*, prof.worker.w<k>.* and the global
 *     aggregate behind the manifest's prof.<phase>.*.
 *
 * Determinism: the supervisor writes each result into results[index]
 * of a pre-sized vector, and the simulator itself is deterministic, so
 * stdout and the manifest's "sweep.*" subtree are byte-identical at
 * any MNM_JOBS -- including runs where workers were killed mid-cell,
 * because a re-issued cell recomputes the identical result.
 *
 * Fault handling:
 *   - one failure budget per cell: an attempt fails when the cell
 *     throws (a worker-reported error) or its worker dies (signal or
 *     nonzero exit) while the cell is in flight. The cell is re-issued
 *     until it has failed MNM_POISON_LIMIT times (default 3), then it
 *     is declared poison and rendered <failed> (cause "poison")
 *     instead of crash-looping.
 *   - MNM_CELL_TIMEOUT_S: the supervisor SIGKILLs the worker when the
 *     deadline expires (no cooperation from the cell needed). Timed-out
 *     cells fail with cause "timeout" and are never re-issued.
 *   - dead workers are respawned with exponential backoff
 *     (ExperimentOptions::worker_backoff_ms base, 100 ms, doubling per
 *     consecutive death).
 *
 * Journal integration: with MNM_CHECKPOINT active the supervisor
 * appends a "lease" record when it issues a cell and the "result"
 * record only after the response arrived, so a killed supervisor's
 * journal shows exactly which cells were in flight (leased but
 * uncommitted -- they simply re-run on resume), plus "respawn" and
 * "poison" audit records. tools/extract_results.py --journal
 * summarizes all of it.
 *
 * Debugging: a cell runs in a forked child, so under gdb use
 * `set follow-fork-mode child` (with MNM_JOBS=1) to stop inside it.
 */

#ifndef MNM_SIM_PROC_POOL_HH
#define MNM_SIM_PROC_POOL_HH

#include <string>
#include <vector>

#include "obs/phase_profiler.hh"
#include "sim/runner.hh"

namespace mnm
{

class CheckpointJournal;

/**
 * Supervisor entry, called by runSweep(): run every cell with
 * replayed[i] == 0 on a pool of opts.jobs forked worker processes
 * (never more than there are such cells). Fills results[i] (delivered
 * result, or a failed MemSimResult recorded via
 * recordSweepCellFailure()) and timing[i] for every executed cell; with
 * MNM_PROF active, cell_prof[i] receives the worker-measured per-phase
 * attribution shipped in the response frame. @p fingerprints must hold
 * one cellFingerprint() per cell (lease keying); @p journal may be null
 * (no checkpointing -- leases are not recorded but execution is
 * identical).
 *
 * Must be called from a single-threaded process state: the workers are
 * created with fork(), and forking a multi-threaded process would
 * deadlock on cloned lock state.
 */
void runSweepProcPool(const std::vector<SweepCell> &cells,
                      const ExperimentOptions &opts,
                      const std::vector<std::string> &fingerprints,
                      const std::vector<char> &replayed,
                      CheckpointJournal *journal,
                      std::vector<MemSimResult> &results,
                      std::vector<SweepCellTiming> &timing,
                      std::vector<PhaseTotals> &cell_prof);

} // namespace mnm

#endif // MNM_SIM_PROC_POOL_HH
