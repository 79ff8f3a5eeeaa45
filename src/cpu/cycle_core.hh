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
 *    stores additionally need a free LSQ slot and an MSHR. Issue is
 *    event-driven: an entry is visited only once its last producer has
 *    issued and its operands have arrived (wake-up lists, DESIGN.md
 *    decision 26), so a cycle costs its issues and wake-ups, not the
 *    window size;
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
 * same way. fig15 and table2 run OooCore, which costs ~185-215 ns of
 * host time per simulated instruction against this model's ~340-390 ns
 * (1.8x; perfbench timing_cores, traced, on a 4-vCPU x86-64 VM);
 * abl_cpu_models runs both, and this model is the reference. Both
 * reach memory through the same port (cpu/mem_port.hh).
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
    const CoverageTracker &coverage() const { return port_.coverage(); }

  private:
    /** One RUU entry; instruction seq lives in slot seq & (size - 1). */
    struct Slot
    {
        Instruction inst;
        Cycles complete = 0; //!< result-ready cycle; never until issued
        Cycles ready = 0;    //!< latest completion of issued producers
        std::uint32_t waiters = 0; //!< head link of the waiter list
        std::uint8_t pending = 0;  //!< producers not yet issued
    };
    /** A fetched instruction waiting in the fetch buffer. */
    struct Fetched
    {
        Instruction inst;
        Cycles fetched = 0; //!< cycle fetch completed
    };
    /** A consumer whose last operand arrives at a known future cycle. */
    struct Wake
    {
        Cycles ready;
        std::uint32_t slot;
    };

    /** An access through port_, counted in @p stats. */
    Cycles memAccess(AccessType type, Addr addr, CpuRunStats &stats);

    CpuParams params_;
    CacheHierarchy &hierarchy_;
    MemPort port_;
    /** The refill buffer: allocated by the first run(), reused by
     *  every later one, as are the structures below. All but
     *  mshr_free_ (cleared as a run starts) are empty again whenever a
     *  run() returns. */
    std::unique_ptr<InstructionBatch> batch_;

    /** The RUU window, a ring of power-of-two size. */
    std::vector<Slot> window_;
    /** Waiter-list links, two per slot (one per dependence): link
     *  2 * slot + k chains slot's k-th operand into its producer's
     *  list. */
    std::vector<std::uint32_t> links_;
    /** Bitmap over window slots: unissued entries whose operands have
     *  all arrived. */
    std::vector<std::uint64_t> visit_;
    /** Min-heap by ready cycle of entries whose operands arrive
     *  later. */
    std::vector<Wake> wakes_;
    /** The fetch buffer, a ring of power-of-two size. */
    std::vector<Fetched> fetch_buffer_;
    /** Completion cycle of every busy MSHR. */
    std::vector<Cycles> mshr_free_;
};

} // namespace mnm

#endif // MNM_CPU_CYCLE_CORE_HH
