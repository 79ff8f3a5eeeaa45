/**
 * @file
 * The end-to-end benchmark's workloads, cells and output checks.
 *
 * A workload is a sweep grid: the twenty SPEC2000-like apps crossed
 * with a list of variants (machine + MNM + which simulator runs it).
 * Every cell builds its own simulator through the libraries' public
 * calls, warms up for 10% of its budget, runs the measured window, and
 * checks its own outputs. Each cell's workload generator is built from
 * specWorkloadParams(app) with the seed replaced by one derived from
 * the benchmark seed and the app index, so the simulator receives only
 * generated inputs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/mnm_unit.hh"
#include "sim/memory_sim.hh"
#include "trace/synthetic.hh"

namespace perfbench
{

class CellTrace;

/** Which simulator a cell runs on. */
enum class CellKind
{
    Functional, //!< MemorySimulator::run
    Ooo,        //!< OooCore::run
    Cycle,      //!< CycleOooCore::run
};

/** One machine/MNM/simulator combination, crossed with every app. */
struct Variant
{
    std::string label;
    CellKind kind = CellKind::Functional;
    int levels = 5; //!< paperHierarchy depth (also selects paperCpu)
    mnm::HierarchyParams hierarchy;
    std::optional<mnm::MnmSpec> mnm;
    /** Sound specs must never produce predicted-miss/actual-hit. */
    bool sound = true;
};

/** A named sweep grid. */
struct Workload
{
    std::string name;
    std::vector<Variant> variants;
    std::vector<std::string> apps;
    std::uint64_t budget = 0; //!< measured-window instructions per cell
    unsigned workers = 1;
    /** Threads one busy worker occupies (2 with an overlap producer). */
    unsigned threads_per_worker = 1;

    std::size_t cells() const { return apps.size() * variants.size(); }
    /** App-major, like the suite's grids. */
    std::size_t appOf(std::size_t cell) const
    {
        return cell / variants.size();
    }
    const Variant &variantOf(std::size_t cell) const
    {
        return variants[cell % variants.size()];
    }
};

/** The named workload sized for @p nproc host threads, or nullopt when
 *  @p name is unknown. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     unsigned nproc);

/** Generator parameters of app @p app under benchmark seed @p seed. */
mnm::SyntheticParams cellParams(const Workload &w, std::size_t app,
                                std::uint64_t seed);

/** Warm-up instructions before a cell's measured window. */
inline std::uint64_t
warmupOf(std::uint64_t budget)
{
    return budget / 10;
}

/**
 * Named host-time and exact-count sums (traced runs fill the timing
 * entries; the counts are always exact). run.py turns them into the
 * per-layer metrics, so the names here are its input format.
 */
using Sums = std::map<std::string, double>;

/** Add every entry of @p from into @p into. */
void addSums(Sums &into, const Sums &from);

/** What one cell run produced. */
struct CellOutcome
{
    bool ran = false;
    double start_s = 0; //!< relative to the pass start
    double end_s = 0;
    unsigned worker = 0;
    /** Worker-thread CPU time constructing the hierarchy,
     *  MNM/simulator, core and workload generator. */
    double setup_s = 0;
    /** Worker-thread CPU time of the whole cell (an overlap producer
     *  thread's generation work is not in it). */
    double cpu_s = 0;
    std::uint64_t instructions = 0; //!< warm-up plus measured
    std::uint64_t digest = 0;       //!< hash of every output counter
    unsigned checks = 0;
    std::vector<std::string> failures; //!< failed checks
    Sums layers;
    /** Functional cells asked to keep them: warm-up and measured
     *  results, for the reference re-run. */
    std::optional<mnm::MemSimResult> warm;
    std::optional<mnm::MemSimResult> measured;
};

/** Run cell @p cell of @p w. @p trace (null when untraced) receives the
 *  cell's spans and generator timings. Never throws for a failed
 *  check; failures land in the outcome. */
CellOutcome runCell(const Workload &w, std::size_t cell,
                    std::uint64_t seed, CellTrace *trace,
                    bool keep_results);

/**
 * Re-run functional cell @p cell with the reference kernel and the
 * reference update feed and compare every MemSimResult counter with
 * @p fast. Returns one line per window whose results differ (empty =
 * identical).
 */
std::vector<std::string> referenceMismatches(const Workload &w,
                                             std::size_t cell,
                                             std::uint64_t seed,
                                             const CellOutcome &fast);

/**
 * The layer replay: for a fixed sample of apps per variant, construct
 * the cell's hierarchy, MnmUnit and generator standalone (timing each
 * construction) and drive @p instructions of its stream through
 * MnmUnit::computeBypass -> CacheHierarchy::access ->
 * MnmUnit::applyPlacementCosts, the calls the timing cores make,
 * timing every call. Returns the summed host times and call counts.
 */
Sums layerReplay(const Workload &w, std::uint64_t seed,
                 std::uint64_t instructions);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
