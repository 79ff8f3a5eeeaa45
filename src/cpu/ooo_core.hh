/**
 * @file
 * A simplified out-of-order superscalar timing model (the SimpleScalar
 * sim-outorder stand-in; DESIGN.md "Paper -> our substitutions").
 *
 * The model is a single-pass dataflow simulation with explicit resource
 * constraints -- the standard fast approximation of an RUU machine:
 *
 *  - fetch: bandwidth-limited (fetch_width/cycle); stalls for I-cache
 *    latency beyond the L1-hit pipeline on line transitions; redirects
 *    after mispredicted branches (resolve time + penalty);
 *  - dispatch: blocked while the RUU-style window is full (an
 *    instruction's slot frees when it commits);
 *  - issue: when operands are ready, bandwidth-limited
 *    (issue_width/cycle); loads/stores additionally acquire one of a
 *    finite set of MSHRs (bounding memory-level parallelism) and a
 *    load/store-queue slot;
 *  - memory: latency comes from the cache hierarchy through the
 *    memory port (cpu/mem_port.hh), so MNM bypasses shorten load
 *    critical paths directly; stores retire through a store buffer and
 *    do not stall commit;
 *  - commit: in order, bandwidth-limited (commit_width/cycle).
 *
 * Bandwidth limits are modelled with fractional-cycle availability
 * counters (an op consumes 1/width of a cycle), which keeps the model
 * O(1) per instruction while preserving the throughput ceilings that
 * determine how much of the memory latency is overlappable.
 */

#ifndef MNM_CPU_OOO_CORE_HH
#define MNM_CPU_OOO_CORE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/coverage.hh"
#include "core/mnm_unit.hh"
#include "cpu/mem_port.hh"
#include "trace/workload.hh"
#include "util/types.hh"

namespace mnm
{

/** Core resources (paper Section 4.1 uses 4-way and 8-way variants). */
struct CpuParams
{
    std::uint32_t fetch_width = 8;
    std::uint32_t issue_width = 8;
    std::uint32_t commit_width = 8;
    /** RUU-style instruction window entries. */
    std::uint32_t window_size = 128;
    /** Load/store queue entries. */
    std::uint32_t lsq_size = 64;
    /** Outstanding misses allowed (memory-level parallelism bound). */
    std::uint32_t mshrs = 16;
    /** Front-end refill penalty after a mispredicted branch. */
    Cycles mispredict_penalty = 7;

    /** The paper's 4-way core (2- and 3-level experiments). */
    static CpuParams fourWay();
    /** The paper's 8-way core with doubled resources (5/7-level). */
    static CpuParams eightWay();
};

/** Results of a timed run. */
struct CpuRunStats
{
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t fetch_line_accesses = 0;
    /** Sum / count of memory-access latencies (the paper's metric),
     *  fetch-line accesses included. */
    Cycles data_access_cycles = 0;
    std::uint64_t data_accesses = 0;

    bool operator==(const CpuRunStats &) const = default;

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
    double avgDataAccessTime() const
    {
        return data_accesses ? static_cast<double>(data_access_cycles) /
                                   static_cast<double>(data_accesses)
                             : 0.0;
    }
};

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param params    core resources
     * @param hierarchy the memory system (must outlive the core)
     * @param mnm       optional MNM; its verdicts apply to every fetch
     *                  and data access that misses L1 (parallel
     *                  placement adds no latency, serial placement adds
     *                  the MNM delay to L1-missing accesses and charges
     *                  energy then)
     */
    OooCore(const CpuParams &params, CacheHierarchy &hierarchy,
            MnmUnit *mnm = nullptr);

    /** Run @p count instructions from @p workload; returns timing. */
    CpuRunStats run(WorkloadGenerator &workload, std::uint64_t count);

    /** Coverage of every run() call so far (empty without an MNM). */
    CoverageTracker coverage() const { return port_.coverage(); }

  private:
    CpuParams params_;
    CacheHierarchy &hierarchy_;
    MemPort port_;
    /** The refill buffer: allocated by the first run(), reused by
     *  every later one. */
    std::unique_ptr<InstructionBatch> batch_;
};

} // namespace mnm

#endif // MNM_CPU_OOO_CORE_HH
