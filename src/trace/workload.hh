/**
 * @file
 * The workload-generator interface plus two simple implementations used
 * heavily by the tests: a scripted (replay) workload and a uniformly
 * random address stream.
 */

#ifndef MNM_TRACE_WORKLOAD_HH
#define MNM_TRACE_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "trace/instruction.hh"
#include "trace/request_batch.hh"
#include "util/random.hh"

namespace mnm
{

/** A deterministic, restartable stream of dynamic instructions. */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Produce the next instruction into @p out. */
    virtual void next(Instruction &out) = 0;

    /**
     * Fill @p batch with the next min(@p max, capacity) instructions
     * of the stream -- the exact sequence @p max calls of next() would
     * produce, through a single virtual call. The base implementation
     * loops next(); generators override it with a tight non-virtual
     * loop so the simulators' inner loops stay dispatch-free.
     */
    virtual void nextBatch(InstructionBatch &batch, std::size_t max);

    /**
     * Fill @p batch with the request stream of the next
     * min(@p max, InstructionBatch::capacity) instructions: exactly
     * what deriving a nextBatch() fill through @p dedup would produce
     * (the base implementation does precisely that, via a lazily
     * allocated scratch batch). Generators override it with a fused
     * generate+derive loop that never materializes the Instruction
     * records; the RNG draw sequence is identical either way, so the
     * two paths are byte-interchangeable mid-stream.
     */
    virtual void nextRequests(RequestBatch &batch, FetchDedup &dedup,
                              std::size_t max);

    /** Restart the stream from the beginning (same sequence again). */
    virtual void reset() = 0;

    /** Display name (the SPEC-like label for synthetic workloads). */
    virtual std::string name() const = 0;

  private:
    /** Scratch for the base nextRequests(); heap, 128KB. */
    std::unique_ptr<InstructionBatch> derive_scratch_;
};

/**
 * Records per bounded refill. A consumer that needs exactly N records
 * asks nextBatch() for min(remaining, refill_window) at a time, so it
 * never draws past N: a warm-up window and the measured window after
 * it share one generator, and the second must start exactly where the
 * first stopped. 256 records (6KB) stay L1-resident.
 */
inline constexpr std::uint64_t refill_window = 256;

/**
 * Calls @p fn on each of the next @p count records of @p workload,
 * pulled through nextBatch() into @p batch in bounded refills: exactly
 * what @p count calls of next() would produce, and no record more.
 */
template <typename Fn>
void
forEachRecord(WorkloadGenerator &workload, std::uint64_t count,
              InstructionBatch &batch, Fn &&fn)
{
    while (count > 0) {
        workload.nextBatch(batch, std::min(count, refill_window));
        for (const Instruction &inst : batch)
            fn(inst);
        count -= batch.size;
    }
}

/** Replays a fixed vector of instructions, cycling at the end. */
class ScriptedWorkload : public WorkloadGenerator
{
  public:
    explicit ScriptedWorkload(std::vector<Instruction> script,
                              std::string name = "scripted");

    void next(Instruction &out) override;
    void nextBatch(InstructionBatch &batch, std::size_t max) override;
    void reset() override { pos_ = 0; }
    std::string name() const override { return name_; }

    std::size_t length() const { return script_.size(); }

  private:
    std::vector<Instruction> script_;
    std::string name_;
    std::size_t pos_ = 0;
};

/**
 * Memoryless random workload: uniform loads/stores over a footprint.
 * Primarily a property-test fuzzer and a worst-case locality baseline.
 */
class UniformRandomWorkload : public WorkloadGenerator
{
  public:
    UniformRandomWorkload(std::uint64_t footprint_bytes, double load_frac,
                          double store_frac, std::uint64_t seed = 1);

    void next(Instruction &out) override;
    void nextBatch(InstructionBatch &batch, std::size_t max) override;
    void reset() override;
    std::string name() const override { return "uniform-random"; }

  private:
    std::uint64_t footprint_;
    double load_frac_;
    double store_frac_;
    std::uint64_t seed_;
    Rng rng_;
    Addr pc_ = 0x00100000;
};

} // namespace mnm

#endif // MNM_TRACE_WORKLOAD_HH
