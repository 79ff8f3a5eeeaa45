/**
 * @file
 * Double-buffered request generation: the MNM_OVERLAP stage decoupling.
 *
 * The functional simulator consumes a workload as a derived request
 * stream, and with the batched kernels the profile reads generation
 * nearly tied with the hierarchy walk -- two stages serialized on one
 * thread for no semantic reason. A RequestPipeline owns the
 * generator's stream for one run and produces batch N+1 while the
 * simulator consumes batch N:
 *
 *  - With a second hardware thread available, a producer thread fills
 *    the idle half of a two-slot buffer ring and hands full slots over
 *    a mutex/condvar pair (the classic bounded buffer, depth 2).
 *  - On a single hardware thread (or under MNM_OVERLAP=off) the
 *    pipeline is an interleaved software-pipelined slice: acquire()
 *    generates a small slice synchronously, which keeps the slice
 *    resident in the host's L1 while the simulator consumes it (a full
 *    batch does not survive the generate->consume round trip).
 *
 * Either way the generator runs the exact slice sequence that
 * sequential fills would run, so the RNG draw sequence -- the stream
 * identity every byte-diff gate rests on -- is preserved bit for bit.
 * stream_identity_test proves it per workload; the MNM_OVERLAP=off|on
 * CI byte-diff proves it end to end. Generation and stage-1 request
 * derivation are fused in the producer (nextRequests()), so the
 * InstructionBatch intermediate never exists.
 */

#ifndef MNM_TRACE_BATCH_PIPELINE_HH
#define MNM_TRACE_BATCH_PIPELINE_HH

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "trace/instruction.hh"
#include "trace/request_batch.hh"
#include "trace/workload.hh"

namespace mnm
{

/**
 * The resolved MNM_OVERLAP knob: strict "off"/"on" (fatal on anything
 * else), on when unset, latched at first call. Simulators read it once
 * at construction; tests override per instance instead of racing the
 * latch.
 */
bool overlapFromEnv();

/** How a pipeline produces: pick by core count, or force one producer
 *  (Sliced is MNM_OVERLAP=off; tests force Threaded because the
 *  threaded handoff must be provable even on a single-core host, where
 *  Auto would never select it). */
enum class PipelineMode
{
    Auto,
    Threaded,
    Sliced,
};

/**
 * Derived-request pipeline: generation and stage-1 request derivation
 * fused in the producer, so the handoff unit is the request stream
 * itself. Construction takes exclusive ownership of the workload's
 * stream until destruction: exactly @p budget instructions are drawn
 * (in fill() slices), and nothing else may touch the generator in
 * between. Borrows the simulator's fetch-dedup state for the same
 * lifetime (the producer is its only toucher until destruction).
 */
class RequestPipeline
{
  public:
    /** Single-thread mode: instructions per software-pipelined slice.
     *  Small enough that a slice's request arrays sit in the host's L1
     *  across the generate->consume handoff; large enough that
     *  per-slice overheads stay amortized. */
    static constexpr std::uint64_t slice_instructions = 512;

    RequestPipeline(WorkloadGenerator &workload, FetchDedup &dedup,
                    std::uint64_t budget,
                    PipelineMode mode = PipelineMode::Auto)
        : workload_(workload), dedup_(dedup), remaining_(budget)
    {
        slots_[0] = std::make_unique<RequestBatch>();
        // hardware_concurrency() is 0 when unknown; treat unknown like
        // a single thread -- the slice mode is correct everywhere and
        // a producer thread only pays off with a core to run on.
        if (mode == PipelineMode::Threaded ||
            (mode == PipelineMode::Auto &&
             std::thread::hardware_concurrency() >= 2)) {
            slots_[1] = std::make_unique<RequestBatch>();
            producer_ = std::thread(&RequestPipeline::producerLoop, this);
        }
    }

    ~RequestPipeline()
    {
        if (producer_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                stop_ = true;
            }
            slot_freed_.notify_all();
            producer_.join();
        }
    }

    RequestPipeline(const RequestPipeline &) = delete;
    RequestPipeline &operator=(const RequestPipeline &) = delete;

    /**
     * The next filled batch, blocking on the producer when it is
     * behind; nullptr once the budget is exhausted. The batch stays
     * valid until the next acquire() call (which recycles its slot).
     * Rethrows any exception the producer thread hit.
     */
    const RequestBatch *
    acquire()
    {
        if (!producer_.joinable()) {
            // Slice mode: synchronous generation, one slice per call.
            if (remaining_ == 0)
                return nullptr;
            RequestBatch &batch = *slots_[0];
            remaining_ -= fill(batch, std::min(remaining_,
                                               slice_instructions));
            return &batch;
        }

        std::unique_lock<std::mutex> lock(mutex_);
        if (held_slot_ >= 0) {
            filled_[held_slot_] = false;
            held_slot_ = -1;
            lock.unlock();
            slot_freed_.notify_one();
            lock.lock();
        }
        std::size_t slot = consume_slot_;
        slot_filled_.wait(
            lock, [&] { return filled_[slot] || producer_done_; });
        if (producer_error_)
            std::rethrow_exception(producer_error_);
        if (!filled_[slot])
            return nullptr; // budget exhausted
        held_slot_ = static_cast<int>(slot);
        consume_slot_ = slot ^ 1;
        return slots_[slot].get();
    }

    /** True when acquire() generates synchronously (the slice mode):
     *  callers then charge the time to batch generation, not to
     *  overlap wait. */
    bool synchronous() const { return !producer_.joinable(); }

  private:
    /**
     * Generate up to @p max_instructions of the stream into @p batch.
     * @return instructions consumed (> 0). Called by the producer
     * thread in thread mode, by acquire() in slice mode -- never
     * concurrently with itself.
     */
    std::uint64_t
    fill(RequestBatch &batch, std::uint64_t max_instructions)
    {
        workload_.nextRequests(
            batch, dedup_,
            static_cast<std::size_t>(std::min<std::uint64_t>(
                max_instructions, InstructionBatch::capacity)));
        return batch.instructions;
    }

    void
    producerLoop()
    {
        // The producer owns the generator between handoffs: it draws
        // the same slice sequence the synchronous loop would, filling
        // the free slot while the consumer chews the other one.
        try {
            std::size_t slot = 0;
            while (true) {
                std::unique_lock<std::mutex> lock(mutex_);
                slot_freed_.wait(
                    lock, [&] { return stop_ || !filled_[slot]; });
                if (stop_ || remaining_ == 0)
                    break;
                lock.unlock();
                RequestBatch &batch = *slots_[slot];
                const std::uint64_t consumed = fill(batch, remaining_);
                lock.lock();
                remaining_ -= consumed;
                filled_[slot] = true;
                const bool exhausted = remaining_ == 0;
                lock.unlock();
                slot_filled_.notify_one();
                if (exhausted)
                    break;
                slot = slot ^ 1;
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            producer_error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            producer_done_ = true;
        }
        slot_filled_.notify_all();
    }

    WorkloadGenerator &workload_;
    FetchDedup &dedup_;
    std::uint64_t remaining_;

    /** Two slots in thread mode; slot 0 only in slice mode. */
    std::unique_ptr<RequestBatch> slots_[2];

    // Bounded-buffer state, all guarded by mutex_. filled_[i] means
    // slot i holds an unconsumed batch; the producer parks when both
    // are filled, the consumer when its next slot is empty.
    std::mutex mutex_;
    std::condition_variable slot_filled_;
    std::condition_variable slot_freed_;
    bool filled_[2] = {false, false};
    bool producer_done_ = false;
    bool stop_ = false;
    std::exception_ptr producer_error_;

    /** Next slot acquire() hands out (thread mode). */
    std::size_t consume_slot_ = 0;
    /** Slot handed out by the previous acquire(), to recycle. */
    int held_slot_ = -1;

    std::thread producer_;
};

} // namespace mnm

#endif // MNM_TRACE_BATCH_PIPELINE_HH
