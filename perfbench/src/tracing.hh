/**
 * @file
 * The benchmark's instruments, all in its own code: a forwarding
 * WorkloadGenerator that counts every instruction the generator delivers
 * (and, in traced runs, times every call), and a per-cell span buffer.
 *
 * Spans are buffered per cell by whichever thread made them (the cell's
 * worker, or the overlap producer thread calling the generator), so the
 * hot path takes no lock; main.cc moves them into an obs TraceLog
 * when the cell ends and writes that as Chrome trace-event JSON at
 * exit. A cell's generator spans are capped: the calls beyond the cap
 * are still timed, only not logged one by one (single-step next()
 * makes one call per simulated instruction).
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "trace/workload.hh"

namespace perfbench
{

/** Steady-clock nanoseconds since the first call in the process. */
std::uint64_t nowNs();

/** CPU time of the calling thread, in nanoseconds. Unlike nowNs() it
 *  does not advance while a hypervisor runs other guests on the CPU. */
std::uint64_t threadCpuNs();

/** One cell's spans and generator time (traced runs only). */
class CellTrace
{
  public:
    CellTrace(std::uint32_t cell, std::uint32_t pass)
        : cell_(cell), pass_(pass)
    {
    }

    /** Log [start_ns, end_ns) on the calling thread. */
    void add(const char *name, std::uint64_t start_ns,
             std::uint64_t end_ns);

    /** Account one generator call (logged while under the cap). */
    void addGeneratorCall(const char *name, std::uint64_t start_ns,
                          std::uint64_t end_ns);

    /** Move the buffered spans into @p log. */
    void flushTo(mnm::TraceLog &log);

    double genNs() const { return gen_ns_; }

    /** Generator calls logged one by one per cell. */
    static constexpr std::uint64_t gen_span_cap = 64;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint32_t tid;
    };

    std::uint32_t cell_;
    std::uint32_t pass_;
    std::vector<Span> spans_;
    double gen_ns_ = 0;
    std::uint64_t gen_spans_ = 0;
};

/**
 * Forwards every call to @p inner and counts the instructions it
 * delivers, so a cell's instruction count comes from the generator and
 * not from the budget the simulator was asked for. With a @p trace it
 * also times each call into the trace; without one it reads no clock.
 * The count is read by the cell's worker after run() returns, which
 * orders it after any overlap producer thread's writes.
 */
class CountingWorkload : public mnm::WorkloadGenerator
{
  public:
    CountingWorkload(mnm::WorkloadGenerator &inner, CellTrace *trace)
        : inner_(inner), trace_(trace)
    {
    }
    // An overlap producer thread holds its address during run().
    CountingWorkload(const CountingWorkload &) = delete;
    CountingWorkload &operator=(const CountingWorkload &) = delete;

    void next(mnm::Instruction &out) override;
    void nextBatch(mnm::InstructionBatch &batch,
                   std::size_t max) override;
    void nextRequests(mnm::RequestBatch &batch, mnm::FetchDedup &dedup,
                      std::size_t max) override;
    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t calls() const { return calls_; }

  private:
    template <typename Call>
    void forward(const char *name, Call &&call);

    mnm::WorkloadGenerator &inner_;
    CellTrace *trace_;
    std::uint64_t instructions_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
