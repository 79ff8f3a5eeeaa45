/**
 * @file
 * Fast functional-mode memory-system simulator.
 *
 * Streams a workload's instruction-fetch and data requests through a
 * hierarchy (optionally shielded by an MNM) and accounts for:
 *  - data access time per request (paper Section 1.1) and the portion
 *    spent probing caches that missed (Figure 2's metric);
 *  - dynamic energy split into hit probes, miss probes, fills, and MNM
 *    structures (Figure 3's and Figure 16's metrics);
 *  - MNM coverage (Figures 10-14), derived like the energy from the
 *    caches' own counters (countWindow(), core/coverage.hh).
 *
 * No core timing is modelled here; use OooCore (cpu/) for execution
 * cycles (Figure 15). This mode is an order of magnitude faster, which
 * is what lets the benches sweep 20 workloads x many configurations.
 */

#ifndef MNM_SIM_MEMORY_SIM_HH
#define MNM_SIM_MEMORY_SIM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/coverage.hh"
#include "core/mnm_unit.hh"
#include "cpu/mem_port.hh"
#include "cpu/ooo_core.hh"
#include "obs/confusion.hh"
#include "power/sram_model.hh"
#include "trace/workload.hh"

namespace mnm
{

/** Snapshot of one cache's counters after a run. */
struct CacheSnapshot
{
    std::string name;
    std::uint32_t level = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t mru_hits = 0; //!< hits a way predictor would guess
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
    double hit_rate = 0.0;
};

/** One snapshot per cache of @p hierarchy, in CacheId order. */
std::vector<CacheSnapshot> snapshotCaches(const CacheHierarchy &hierarchy);

/** Everything a sweep cell produces: a functional run fills every
 *  field but cpu; a timing-core or DTLB cell fills the subset
 *  runCell() (sim/runner.hh) documents. */
struct MemSimResult
{
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0; //!< fetch-line + load/store accesses
    std::uint64_t data_requests = 0;
    std::uint64_t fetch_requests = 0;
    Cycles total_access_cycles = 0;
    Cycles miss_cycles = 0; //!< spent probing caches that missed
    std::uint64_t memory_accesses = 0;

    EnergyBreakdown energy;
    CoverageTracker coverage;
    /** Per-level MNM decision confusion matrix. The three sound cells
     *  cover this run() call's measured window; the forbidden cell
     *  mirrors soundness_violations (cumulative over the simulator's
     *  lifetime, warm-up included -- it must be zero anyway). */
    DecisionMatrix decisions;
    std::uint64_t soundness_violations = 0;
    std::uint64_t filter_anomalies = 0;
    std::uint64_t mnm_storage_bits = 0;
    std::vector<CacheSnapshot> caches;
    /** Timing-core statistics of the measured window; all zero for
     *  functional and DTLB cells. */
    CpuRunStats cpu;

    /** Set by runSweep() when this cell's simulation failed (after all
     *  retries). Every counter above is then meaningless; benches must
     *  print a gap marker instead of the cell's value. */
    bool failed = false;
    /** Human-readable reason when failed (exception what()). */
    std::string fail_reason;

    double avgAccessTime() const
    {
        return requests ? static_cast<double>(total_access_cycles) /
                              static_cast<double>(requests)
                        : 0.0;
    }
    /** Figure 2's metric. */
    double missTimeFraction() const
    {
        return total_access_cycles
                   ? static_cast<double>(miss_cycles) /
                         static_cast<double>(total_access_cycles)
                   : 0.0;
    }
};

/** The functional simulator. */
class MemorySimulator
{
  public:
    /**
     * @param hierarchy_params machine configuration
     * @param mnm_spec         optional MNM shielding the hierarchy
     * @param seed             replacement-policy randomness seed
     */
    explicit MemorySimulator(const HierarchyParams &hierarchy_params,
                             std::optional<MnmSpec> mnm_spec = std::nullopt,
                             std::uint64_t seed = 1);

    /** The MNM and the memory port hold references to hierarchy_. */
    MemorySimulator(const MemorySimulator &) = delete;
    MemorySimulator &operator=(const MemorySimulator &) = delete;

    /**
     * Stream @p instructions instructions from @p workload. Repeatable:
     * each call continues from the current (warm) state; accounting is
     * per call. Two loops serve it: the production loop consumes the
     * derived request stream a batch at a time (with or without an
     * MNM), the reference loop steps one instruction at a time
     * (setReferenceKernel).
     */
    MemSimResult run(WorkloadGenerator &workload,
                     std::uint64_t instructions);

    /**
     * Route run() through the single-step workload API and the MNM's
     * virtual-dispatch reference path instead of the batched request
     * loop and the SoA verdict program (half of the MNM_REFERENCE=1
     * knob). Slow; exists so kernel_equivalence_test and the CI
     * byte-diff can prove both loops produce bit-identical results.
     */
    void setReferenceKernel(bool on);
    bool referenceKernel() const { return reference_kernel_; }

    /**
     * Route the MNM's update feed through the per-event virtual
     * listener path instead of the batched event ring + update kernels
     * (the other half of MNM_REFERENCE=1). Slow; exists so
     * kernel_equivalence_test and the CI byte-diff can prove both feeds
     * produce bit-identical results. No-op without an MNM.
     */
    void setReferenceFeed(bool on);
    bool referenceFeed() const { return mnm_ && mnm_->referenceFeed(); }

    /**
     * Let the production loop's RequestPipeline pick its schedule
     * (producer thread on multi-core hosts, software-pipelined slices
     * otherwise) or, off, force the synchronous slices (the
     * MNM_OVERLAP knob; see trace/batch_pipeline.hh). Defaults to the
     * environment's verdict; tests flip it per instance. The generated
     * stream -- and therefore every counter and output byte -- is
     * identical either way; only the schedule changes.
     */
    void setOverlap(bool on) { overlap_ = on; }
    bool overlap() const { return overlap_; }

    CacheHierarchy &hierarchy() { return hierarchy_; }
    MnmUnit *mnm() { return mnm_ ? mnm_.get() : nullptr; }

  private:
    /** Post-walk accounting shared by both loops: the per-access
     *  latency sums and the placement's costs. What the access did to
     *  each cache is counted by the caches themselves and derived once
     *  per window (countWindow()). Force-inlined: both call sites are
     *  on the per-access hot path. */
    __attribute__((always_inline)) void
    accountAccess(const AccessResult &access, MemSimResult &result);

    /** One request of the reference loop: the verdict first, then the
     *  walk from level 1, with full accounting. Templated on profiling
     *  like the batch path: run() selects the instantiation once per
     *  window, so with MNM_PROF off even the single-step stream carries
     *  zero profiler code per access. */
    template <bool with_prof>
    void request(AccessType type, Addr addr, MemSimResult &result);

    /** Production loop: consume one pre-derived request batch, one
     *  request at a time, through the memory port's rule (L1 first for
     *  guard-free plans and for no MNM, verdict first for guarded
     *  ones; cpu/mem_port.hh), and account each access. The request
     *  stream arrives already derived (the generators' nextRequests()
     *  fuses derivation into generation), so this is pure consumption.
     *  run() picks the with_prof instantiation once, so the off path
     *  stays scope-free per access. */
    template <bool with_prof>
    void runBatchRequests(const RequestBatch &batch, MemSimResult &result);

    /** One instruction of the reference loop: fetch-line dedup plus
     *  the data request. */
    template <bool with_prof>
    void
    step(const Instruction &inst, const Cache &l1i, MemSimResult &result)
    {
        Addr line = l1i.blockAddr(inst.pc);
        if (line != cur_fetch_line_) {
            cur_fetch_line_ = line;
            ++result.fetch_requests;
            request<with_prof>(AccessType::InstFetch, inst.pc, result);
        }
        if (inst.isMem()) {
            ++result.data_requests;
            request<with_prof>(inst.cls == InstClass::Load
                                   ? AccessType::Load
                                   : AccessType::Store,
                               inst.mem_addr, result);
        }
    }

    CacheHierarchy hierarchy_;
    std::unique_ptr<MnmUnit> mnm_;
    /** The production loop's request rule (shared with the timing
     *  cores). */
    MemPort port_;
    /** Per-cache probe/fill energies from the analytical model. */
    std::vector<PowerDelay> cache_power_;
    bool reference_kernel_ = false;
    /** MNM_OVERLAP: let the RequestPipeline run a producer thread. */
    bool overlap_;
    PicoJoules mnm_energy_seen_ = 0.0; //!< consumed total at last drain
    Addr cur_fetch_line_ = invalid_addr;
};

} // namespace mnm

#endif // MNM_SIM_MEMORY_SIM_HH
