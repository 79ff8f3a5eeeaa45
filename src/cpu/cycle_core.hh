/**
 * @file
 * A cycle-driven out-of-order core model.
 *
 * Where OooCore (ooo_core.hh) approximates resource contention with
 * fractional-cycle bandwidth counters in a single pass, this model
 * simulates the machine cycle by cycle with explicit structures:
 *
 *   fetch  -> fetch buffer -> dispatch -> RUU window -> issue
 *          -> execute/memory -> complete -> in-order commit
 *
 *  - fetch: up to fetch_width sequential instructions per cycle; an
 *    I-line transition that misses L1 bubbles the front end; a
 *    mispredicted branch halts fetch until it resolves (+penalty) --
 *    trace-driven simulation has no wrong path to run down;
 *  - dispatch: fetch-buffer entries older than the decode depth move
 *    into the RUU while entries remain;
 *  - issue: oldest-ready-first, up to issue_width per cycle; loads and
 *    stores additionally need a free LSQ slot and an MSHR;
 *  - commit: up to commit_width completed instructions per cycle, in
 *    order.
 *
 * A cycle in which no stage changes state is followed by a jump to the
 * earliest cycle at which a time-gated condition (a completion, an
 * operand arrival, a freed MSHR, decode, an I-miss stall, a redirect)
 * can flip; the cycles skipped are provable no-ops (see run() and
 * DESIGN.md decision 25), so the results are those of stepping them.
 *
 * The two models are cross-validated in tests/cycle_core_test.cc: they
 * must agree on throughput bounds, and rank machine configurations the
 * same way. The benches use OooCore, which costs ~150 ns of host time
 * per simulated instruction against this model's ~500 ns (3.3x;
 * perfbench timing_cores, traced, on a 4-vCPU x86-64 VM); this model
 * is the reference.
 */

#ifndef MNM_CPU_CYCLE_CORE_HH
#define MNM_CPU_CYCLE_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/ooo_core.hh"

namespace mnm
{

/** The cycle-driven core. Shares CpuParams/CpuRunStats with OooCore. */
class CycleOooCore
{
  public:
    CycleOooCore(const CpuParams &params, CacheHierarchy &hierarchy,
                 MnmUnit *mnm = nullptr);

    /** Run @p count instructions from @p workload; returns timing. */
    CpuRunStats run(WorkloadGenerator &workload, std::uint64_t count);

    /** Coverage accumulated across run() calls (when an MNM is set). */
    const CoverageTracker &coverage() const { return coverage_; }

  private:
    /** One in-flight instruction (fetch buffer or RUU). */
    struct InFlight
    {
        Instruction inst;
        std::uint64_t seq = 0;     //!< global program-order index
        Cycles fetched = 0;        //!< cycle fetch completed
        Cycles complete = 0;       //!< result-ready cycle (once issued)
        bool issued = false;
        bool is_load = false;
        bool is_store = false;
    };

    Cycles memAccess(AccessType type, Addr addr, CpuRunStats &stats);
    /** The cycle both producers of @p entry have completed by (~0 while
     *  one has not issued yet). */
    Cycles readyAt(const InFlight &entry) const;

    CpuParams params_;
    CacheHierarchy &hierarchy_;
    MnmUnit *mnm_;
    CoverageTracker coverage_;
    /** The refill buffer: allocated by the first run(), reused by
     *  every later one. */
    std::unique_ptr<InstructionBatch> batch_;

    /** Completion cycles of recent instructions, by seq (ring). */
    std::vector<Cycles> complete_ring_;
    static constexpr std::uint64_t dep_horizon = 1024;
};

} // namespace mnm

#endif // MNM_CPU_CYCLE_CORE_HH
