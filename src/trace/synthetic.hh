/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * Stands in for the paper's SPEC2000 binaries (DESIGN.md "Paper -> our
 * substitutions"). A workload is a mixture of data "regions", each with
 * its own footprint and access pattern, plus a code-footprint model that
 * drives the instruction-fetch stream (loops of varying size separated
 * by jumps across the code footprint). All randomness is drawn from an
 * explicitly seeded stream, so every named workload is a deterministic,
 * restartable trace.
 *
 * The patterns:
 *   Sequential    streaming walk with a fixed stride (wraps)
 *   RandomUniform independent uniform draws over the footprint
 *   PointerChase  an LCG walk: serially dependent, locality-free
 *   HotCold       a small hot subset absorbs most accesses
 */

#ifndef MNM_TRACE_SYNTHETIC_HH
#define MNM_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload.hh"
#include "util/fastdiv.hh"

namespace mnm
{

/** Data-region access pattern. */
enum class RegionPattern
{
    Sequential,
    RandomUniform,
    PointerChase,
    HotCold,
};

/** One data region of a synthetic workload. */
struct RegionParams
{
    /** Relative probability of an access landing in this region. */
    double weight = 1.0;
    std::uint64_t footprint_bytes = 64 * 1024;
    RegionPattern pattern = RegionPattern::Sequential;
    /** Stride for Sequential, access granule otherwise. */
    std::uint32_t stride = 8;
    /** HotCold: fraction of the footprint that is hot. */
    double hot_fraction = 0.1;
    /** HotCold: probability an access goes to the hot subset. */
    double hot_probability = 0.9;
    /** Mean consecutive accesses before re-drawing the region. */
    double dwell = 8.0;
};

/** Full description of a synthetic workload. */
struct SyntheticParams
{
    std::string name = "synthetic";
    /** Instruction mix; the remainder is plain ALU work. */
    double load_frac = 0.25;
    double store_frac = 0.10;
    double branch_frac = 0.12;
    /** Fraction of non-memory, non-branch work that is FP. */
    double fp_frac = 0.0;
    /** Probability a branch is mispredicted by the front end. */
    double mispredict_rate = 0.05;
    /** Mean producer-consumer distance for register dependences. */
    double dep_dist_mean = 6.0;
    /**
     * Probability a data access re-touches one of the last few
     * addresses instead of generating a fresh one -- the short-range
     * temporal locality (stack slots, loop-carried scalars) that real
     * programs have on top of their region-level patterns.
     */
    double temporal_reuse = 0.55;

    /** Code layout: total text size and typical loop behaviour. */
    std::uint64_t code_footprint_bytes = 64 * 1024;
    std::uint64_t loop_body_bytes_mean = 256;
    double loop_iterations_mean = 32.0;

    std::vector<RegionParams> regions;
    std::uint64_t seed = 42;
};

/** The generator. */
class SyntheticWorkload : public WorkloadGenerator
{
  public:
    explicit SyntheticWorkload(const SyntheticParams &params);

    void next(Instruction &out) override;
    void nextBatch(InstructionBatch &batch, std::size_t max) override;
    void nextRequests(RequestBatch &batch, FetchDedup &dedup,
                      std::size_t max) override;
    void reset() override;
    std::string name() const override { return params_.name; }

    const SyntheticParams &params() const { return params_; }

  private:
    struct RegionState
    {
        Addr base = 0;
        std::uint64_t cursor = 0;   //!< Sequential position
        std::uint64_t chase = 1;    //!< PointerChase LCG state
    };

    /** Per-region constants hoisted out of dataAddress(): the modulo
     *  reductions there sit on the batch pipeline's hottest edge. All
     *  draws stay bit-identical -- FastMod is an exact remainder and
     *  the wrap-by-subtract shortcut only applies when the cursor can
     *  never exceed twice the footprint. */
    struct RegionFast
    {
        FastMod footprint;             //!< modulo by footprint_bytes
        FastMod hot;                   //!< modulo by hot_bytes
        std::uint64_t hot_bytes = 64;  //!< HotCold hot-subset size
        std::uint64_t hot_thr = 0;     //!< boolThreshold(hot_probability)
        bool wrap_by_subtract = false; //!< stride <= footprint
    };

    Addr dataAddress(Rng &rng);
    void startLoop(Rng &rng);
    /** The generation kernel behind next()/nextBatch()/nextRequests():
     *  draws @p n instructions from @p rng and hands each to
     *  @p sink(pc, cls, mem_addr, dep1, dep2, exec_latency,
     *  mispredicted). Hot scalar state (the rng, the pc walk) lives in
     *  locals for the whole run so it stays in registers. The sink
     *  only observes -- every draw happens unconditionally in next()'s
     *  exact order, so the record and request producers share one
     *  stream. deps_used=false elides the dependence-distance table
     *  walks (their draws still happen; only the discarded value
     *  computation goes) for sinks that never read dep1/dep2. */
    template <bool deps_used, typename Sink>
    void generateLoop(Rng &rng, std::size_t n, Sink &&sink);
    /** generateLoop with the record-writing sink (next()/nextBatch()). */
    void generateRun(Rng &rng, Instruction *out, std::size_t n);

    SyntheticParams params_;
    Rng rng_;
    std::vector<RegionState> regions_;
    std::vector<RegionFast> region_fast_;
    double total_weight_ = 0.0;
    /** boolThreshold(temporal_reuse): integer form of the per-data-op
     *  reuse draw (see Rng::boolThreshold; same stream). */
    std::uint64_t temporal_thr_ = 0;
    /** The geometric tables, bound once here: forMean() takes a global
     *  lock, and their means alternate every loop and region switch.
     *  Each is null when its mean is <= 0: that draw is always 0 and
     *  consumes no randomness (Rng::nextGeometric's rule). */
    const GeometricTable *dep_table_ = nullptr;   //!< dependence distance
    const GeometricTable *body_table_ = nullptr;  //!< loop body, 16B units
    const GeometricTable *iters_table_ = nullptr; //!< loop iterations
    std::vector<const GeometricTable *> dwell_tables_; //!< per region

    /** Current region and remaining dwell. */
    std::size_t active_region_ = 0;
    std::uint64_t dwell_left_ = 0;

    /** Recent-address ring for temporal reuse. */
    static constexpr std::size_t reuse_depth = 16;
    Addr recent_[reuse_depth] = {};
    std::size_t recent_count_ = 0;
    std::size_t recent_pos_ = 0;

    /** Code walk state. */
    Addr code_base_ = 0x00100000;
    Addr loop_start_ = 0;
    std::uint64_t loop_bytes_ = 0;
    std::uint64_t loop_iters_left_ = 0;
    Addr pc_ = 0;
};

} // namespace mnm

#endif // MNM_TRACE_SYNTHETIC_HH
