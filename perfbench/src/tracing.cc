#include "tracing.hh"

#include <time.h>

#include <atomic>
#include <chrono>

namespace perfbench
{

namespace
{

/** Small dense id of the calling thread (the trace-event "tid"). */
std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // anonymous namespace

std::uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - epoch)
            .count());
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

void
CellTrace::add(const char *name, std::uint64_t start_ns,
               std::uint64_t end_ns)
{
    spans_.push_back(Span{name, start_ns, end_ns, threadId()});
}

void
CellTrace::addGeneratorCall(const char *name, std::uint64_t start_ns,
                            std::uint64_t end_ns)
{
    gen_ns_ += static_cast<double>(end_ns - start_ns);
    if (gen_spans_++ < gen_span_cap)
        add(name, start_ns, end_ns);
}

void
CellTrace::flushTo(mnm::TraceLog &log)
{
    for (const Span &s : spans_) {
        log.addCompleteEvent(s.name, "perfbench", s.tid, s.start_ns / 1000,
                             (s.end_ns - s.start_ns) / 1000,
                             {{"cell", std::to_string(cell_)},
                              {"pass", std::to_string(pass_)}});
    }
    spans_.clear();
}

template <typename Call>
void
CountingWorkload::forward(const char *name, Call &&call)
{
    ++calls_;
    if (!trace_) {
        instructions_ += call();
        return;
    }
    std::uint64_t t0 = nowNs();
    instructions_ += call();
    trace_->addGeneratorCall(name, t0, nowNs());
}

void
CountingWorkload::next(mnm::Instruction &out)
{
    forward("gen.next", [&]() -> std::uint64_t {
        inner_.next(out);
        return 1;
    });
}

void
CountingWorkload::nextBatch(mnm::InstructionBatch &batch, std::size_t max)
{
    forward("gen.nextBatch", [&]() -> std::uint64_t {
        inner_.nextBatch(batch, max);
        return batch.size;
    });
}

void
CountingWorkload::nextRequests(mnm::RequestBatch &batch,
                               mnm::FetchDedup &dedup, std::size_t max)
{
    forward("gen.nextRequests", [&]() -> std::uint64_t {
        inner_.nextRequests(batch, dedup, max);
        return batch.instructions;
    });
}

} // namespace perfbench
