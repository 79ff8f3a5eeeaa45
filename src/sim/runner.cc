#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "obs/manifest.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/proc_pool.hh"
#include "sim/recovery.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/** Worker index of the calling thread (0 outside a pool). */
unsigned &
workerSlot()
{
    thread_local unsigned slot = 0;
    return slot;
}

std::uint64_t
steadyNowUs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(duration_cast<microseconds>(
        steady_clock::now().time_since_epoch()).count());
}

} // anonymous namespace

unsigned
jobsFromEnv()
{
    const char *env = std::getenv("MNM_JOBS");
    if (!env)
        return hardwareJobs();
    char *end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || v == 0)
        fatal("MNM_JOBS='%s' is not a positive integer", env);
    if (v > 1024)
        fatal("MNM_JOBS=%lu is out of range [1, 1024]", v);
    return static_cast<unsigned>(v);
}

std::vector<SweepCell>
makeGridCells(const std::vector<std::string> &apps,
              const std::vector<SweepVariant> &variants,
              std::uint64_t instructions)
{
    std::vector<SweepCell> cells;
    cells.reserve(apps.size() * variants.size());
    for (const std::string &app : apps) {
        for (const SweepVariant &variant : variants) {
            cells.push_back({app, variant.hierarchy, variant.mnm,
                             instructions, variant.label, variant.model,
                             variant.warm});
        }
    }
    return cells;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

std::vector<std::exception_ptr>
ParallelRunner::run(std::size_t count,
                    const std::function<void(std::size_t)> &task) const
{
    std::vector<std::exception_ptr> errors(count);
    auto attempt = [&](std::size_t i) {
        try {
            task(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (jobs_ <= 1 || count <= 1) {
        // Legacy serial path: no threads, no atomics.
        for (std::size_t i = 0; i < count; ++i)
            attempt(i);
        return errors;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < count;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
            attempt(i);
        }
    };
    std::size_t spawn = std::min<std::size_t>(jobs_, count);
    {
        std::vector<std::jthread> pool;
        pool.reserve(spawn);
        for (std::size_t t = 0; t < spawn; ++t) {
            pool.emplace_back([&, t] {
                workerSlot() = static_cast<unsigned>(t);
                worker();
                // Hand the thread's profile to the global aggregate
                // before joining: a thread that never flushes
                // contributes nothing to globalPhaseTotals().
                flushThreadProf();
            });
        }
    } // joins every worker; errors[] is complete past this point
    return errors;
}

unsigned
ParallelRunner::currentWorker()
{
    return workerSlot();
}

std::string
sweepCellDisplayName(const SweepCell &cell)
{
    return cell.label.empty() ? cell.app : cell.app + " · " + cell.label;
}

const char *
sweepFailCauseName(SweepFailCause cause)
{
    switch (cause) {
    case SweepFailCause::Timeout:
        return "timeout";
    case SweepFailCause::Poison:
        return "poison";
    }
    return "unknown";
}

namespace
{

/** Process-wide "some sweep cell failed" flag behind sweepExitCode(). */
std::atomic<bool> g_sweep_failed{false};

std::function<void(const SweepCell &, unsigned)> g_fault_hook;

/** One cell's "<label>.<app>" metric segment, shared by the "sweep.",
 *  "prof.cell." and "runner.failures." subtrees. */
std::string
cellMetricSegment(const SweepCell &cell)
{
    return sanitizeMetricSegment(cell.label.empty() ? "default"
                                                    : cell.label) +
           "." +
           sanitizeMetricSegment(ExperimentOptions::shortName(cell.app));
}

/**
 * Fold one finished sweep into the process-wide registry (and, when
 * MNM_TRACE_FILE is live, the trace buffer). Runs on the calling thread
 * after the pool has drained, visiting cells in index order, so the
 * folded totals are identical at any MNM_JOBS value; only the
 * "runner.*" wall-clock subtree varies between runs.
 */
void
foldSweepTelemetry(const std::vector<SweepCell> &cells,
                   const std::vector<MemSimResult> &results,
                   const std::vector<SweepCellTiming> &timing,
                   const std::vector<PhaseTotals> &cell_prof,
                   std::uint64_t sweep_start_us, std::uint64_t wall_us,
                   unsigned jobs)
{
    StatsRegistry &stats = globalStats();
    RunningStat &cell_wall = stats.runningStat("runner.cell_wall_ms");
    RunningStat &cell_queue = stats.runningStat("runner.cell_queue_ms");
    std::uint64_t busy_us = 0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        const MemSimResult &r = results[i];
        foldCellMetrics(stats, cell, r);

        // Replayed and failed cells have no meaningful wall clock.
        const SweepCellTiming &t = timing[i];
        if (!t.ran)
            continue;
        busy_us += t.dur_us;
        cell_wall.add(static_cast<double>(t.dur_us) / 1000.0);
        cell_queue.add(
            static_cast<double>(t.start_us - sweep_start_us) / 1000.0);

        // Per-cell phase attribution. Lives under "prof.cell." (not the
        // cell's "sweep." prefix) because it is wall-clock derived: the
        // manifest diff in CI ignores the prof subtree.
        if (!r.failed && profActive()) {
            foldPhaseTotals(stats, cell_prof[i],
                            "prof.cell." + cellMetricSegment(cell));
        }

        if (traceFileEnabled()) {
            std::string name = ExperimentOptions::shortName(cell.app);
            if (!cell.label.empty())
                name += " · " + cell.label;
            globalTrace().addCompleteEvent(
                name, "sweep", t.worker, t.start_us, t.dur_us,
                {{"app", cell.app}, {"label", cell.label}});
        }
    }

    stats.addCounter("runner.sweeps", 1);
    stats.addCounter("runner.cells", cells.size());
    stats.setGauge("runner.jobs", static_cast<double>(jobs));
    stats.setGauge("runner.wall_ms",
                   static_cast<double>(wall_us) / 1000.0);
    // Fraction of the pool's lane-time spent inside cells: busy time
    // over wall time times the lanes that could have been busy.
    std::size_t lanes =
        std::min<std::size_t>(jobs ? jobs : 1,
                              std::max<std::size_t>(cells.size(), 1));
    double lane_time_us =
        static_cast<double>(wall_us) * static_cast<double>(lanes);
    stats.setGauge("runner.utilization",
                   lane_time_us > 0.0
                       ? static_cast<double>(busy_us) / lane_time_us
                       : 0.0);
}

} // anonymous namespace

void
foldCellMetrics(StatsRegistry &stats, const SweepCell &cell,
                const MemSimResult &r)
{
    if (r.failed)
        return;
    const std::string prefix = "sweep." + cellMetricSegment(cell);
    stats.addCounter(prefix + ".instructions", r.instructions);
    stats.addCounter(prefix + ".requests", r.requests);
    stats.addCounter(prefix + ".memory_accesses", r.memory_accesses);
    if (r.cpu.cycles)
        stats.addCounter(prefix + ".cycles", r.cpu.cycles);
    if (cell.mnm) {
        stats.addCounter(prefix + ".soundness_violations",
                         r.soundness_violations);
    }
    r.decisions.registerInto(stats, prefix + ".confusion");

    // The cell's work, warm-up included (tools/run_suite.py gates the
    // per-bench sums exactly against bench/BENCH_suite.json).
    std::uint64_t l1_probes = 0, probes = 0, bypasses = 0;
    for (const CacheSnapshot &c : r.caches) {
        if (c.level < 2) {
            l1_probes += c.accesses;
        } else {
            probes += c.accesses;
            bypasses += c.bypasses;
        }
    }
    const std::string work = prefix + ".work";
    stats.addCounter(work + ".instructions",
                     r.instructions + (cell.warm ? cell.instructions / 10
                                                 : 0));
    stats.addCounter(work + ".l1_probes", l1_probes);
    stats.addCounter(work + ".probes", probes);
    stats.addCounter(work + ".bypasses", bypasses);
    stats.addCounter(work + ".verdicts", r.verdicts);
    stats.addCounter(work + ".feed_events", r.feed_events);
}

void
recordSweepCellFailure(const SweepCell &cell, std::size_t index,
                       SweepFailCause cause, const std::string &reason,
                       MemSimResult &result)
{
    result = MemSimResult{};
    result.failed = true;
    result.fail_reason = reason;
    warn("sweep cell %zu (%s) failed [%s]: %s", index,
         sweepCellDisplayName(cell).c_str(), sweepFailCauseName(cause),
         reason.c_str());
    StatsRegistry &stats = globalStats();
    stats.addCounter("runner.failures.total", 1);
    stats.addCounter(std::string("runner.failures.by_cause.") +
                         sweepFailCauseName(cause),
                     1);
    stats.addCounter("runner.failures." + cellMetricSegment(cell), 1);
    g_sweep_failed.store(true, std::memory_order_relaxed);
}

std::vector<MemSimResult>
runSweep(const std::vector<SweepCell> &cells,
         const ExperimentOptions &opts)
{
    std::vector<MemSimResult> results(cells.size());
    std::vector<SweepCellTiming> timing(cells.size());
    std::vector<PhaseTotals> cell_prof(cells.size());

    // Leases are keyed by cell fingerprint, journal or not.
    std::vector<std::string> fingerprints(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        fingerprints[i] = cellFingerprint(cells[i]);

    // Checkpoint replay: restore finished cells, open the journal for
    // the rest. A journal the process cannot write is a user error
    // (bad path, read-only directory), reported before any simulation.
    std::unique_ptr<CheckpointJournal> journal;
    std::vector<char> replayed(cells.size(), 0);
    if (!opts.checkpoint.empty()) {
        CheckpointJournal::Replay replay =
            CheckpointJournal::load(opts.checkpoint);
        if (replay.skipped) {
            warn("checkpoint journal %s: skipped %zu unparsable "
                 "line(s) (torn tail); those cells will re-run",
                 opts.checkpoint.c_str(), replay.skipped);
        }
        std::size_t restored = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            auto it = replay.entries.find(fingerprints[i]);
            if (it == replay.entries.end())
                continue;
            results[i] = it->second;
            replayed[i] = 1;
            ++restored;
        }
        if (restored && opts.progress) {
            progress("checkpoint %s: replaying %zu/%zu finished cells",
                     opts.checkpoint.c_str(), restored, cells.size());
        }
        try {
            journal =
                std::make_unique<CheckpointJournal>(opts.checkpoint);
        } catch (const std::exception &e) {
            fatal("%s", e.what());
        }
    }

    const std::uint64_t sweep_start_us = steadyNowUs();
    runSweepProcPool(cells, opts, fingerprints, replayed, journal.get(),
                     results, timing, cell_prof);
    const std::uint64_t wall_us = steadyNowUs() - sweep_start_us;
    foldSweepTelemetry(cells, results, timing, cell_prof, sweep_start_us,
                       wall_us, opts.jobs);
    return results;
}

int
sweepExitCode()
{
    return g_sweep_failed.load(std::memory_order_relaxed) ? 1 : 0;
}

void
setSweepFaultHookForTest(
    std::function<void(const SweepCell &, unsigned)> hook)
{
    g_fault_hook = std::move(hook);
}

const std::function<void(const SweepCell &, unsigned)> &
sweepFaultHook()
{
    return g_fault_hook;
}

} // namespace mnm
