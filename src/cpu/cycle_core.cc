#include "cpu/cycle_core.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/phase_profiler.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** "No such cycle": an unissued entry's completion time, and the idle
 *  skip's "nothing time-gated is pending". */
constexpr Cycles never = ~static_cast<Cycles>(0);

/** The end of a waiter list. */
constexpr std::uint32_t no_link = ~std::uint32_t{0};

} // anonymous namespace

CycleOooCore::CycleOooCore(const CpuParams &params,
                           CacheHierarchy &hierarchy, MnmUnit *mnm)
    : params_(params), hierarchy_(hierarchy), port_(hierarchy, mnm)
{
    if (params_.fetch_width == 0 || params_.issue_width == 0 ||
        params_.commit_width == 0) {
        fatal("cycle core with a zero-width pipeline stage");
    }
    if (params_.window_size == 0 || params_.lsq_size == 0 ||
        params_.mshrs == 0) {
        fatal("cycle core with zero window/LSQ/MSHR resources");
    }
}

Cycles
CycleOooCore::memAccess(AccessType type, Addr addr, CpuRunStats &stats)
{
    const Cycles latency = port_.access(type, addr);
    stats.data_access_cycles += latency;
    ++stats.data_accesses;
    return latency;
}

CpuRunStats
CycleOooCore::run(WorkloadGenerator &workload, std::uint64_t count)
{
    PhaseScope prof_run(Phase::Run);
    // The fetch-buffer cap keeps dispatch from starving or ballooning.
    const std::uint64_t fetch_buffer_cap = 4ull * params_.fetch_width + 8;
    if (!batch_) {
        batch_ = std::make_unique<InstructionBatch>();
        const std::size_t slots = std::bit_ceil(
            static_cast<std::size_t>(params_.window_size));
        window_.resize(slots);
        links_.resize(2 * slots);
        visit_.resize((slots + 63) / 64);
        wakes_.reserve(slots);
        fetch_buffer_.resize(std::bit_ceil(fetch_buffer_cap));
        mshr_free_.reserve(params_.mshrs);
    }
    CpuRunStats stats;
    stats.instructions = count;

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    const Cycles l1i_hit = l1i.params().hit_latency;
    const Cycles decode_depth = 3;
    const std::uint64_t window_mask = window_.size() - 1;
    const std::uint64_t fetch_mask = fetch_buffer_.size() - 1;

    // Instruction seq sits in the fetch buffer while dispatched <= seq
    // < fetched, and in the window while committed <= seq < dispatched.
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t committed = 0;
    std::uint32_t lsq_used = 0;
    mshr_free_.clear();

    Cycles now = 0;
    Cycles fetch_stalled_until = 0;
    // A mispredicted branch halts fetch until it resolves, so at most
    // one is in flight unissued: redirect_pending says one is, and
    // redirect_done is 0 until it issues.
    Cycles redirect_done = 0;
    bool redirect_pending = false;
    Addr cur_fetch_line = invalid_addr;
    // Fetch reads records from batch_; a refill happens only once the
    // buffer is drained, so every record pulled this run is fetched by
    // its end and nothing carries over to the next run().
    std::size_t batch_pos = 0;
    batch_->size = 0;

    // All producers of the entry in @p slot have issued and its
    // operands arrive at @p ready: queue it for the issue scan of that
    // cycle.
    // Min-heap order of wakes_.
    const auto later = [](const Wake &a, const Wake &b) {
        return a.ready > b.ready;
    };
    auto wake = [&](std::uint32_t slot, Cycles ready) {
        if (ready <= now) {
            visit_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        } else {
            wakes_.push_back({ready, slot});
            std::push_heap(wakes_.begin(), wakes_.end(), later);
        }
    };
    // Issues the entry in @p slot unless it needs an MSHR and none is
    // free; wakes its waiters. Returns whether it issued.
    auto try_issue = [&](std::uint32_t slot) {
        Slot &entry = window_[slot];
        if (entry.inst.isMem()) {
            if (mshr_free_.size() >= params_.mshrs)
                return false; // no MSHR: stall this op
            const bool is_load = entry.inst.cls == InstClass::Load;
            Cycles lat = memAccess(is_load ? AccessType::Load
                                           : AccessType::Store,
                                   entry.inst.mem_addr, stats);
            Cycles mem_done = now + lat;
            mshr_free_.push_back(mem_done);
            // Stores retire through the store buffer; loads wait for
            // the data.
            entry.complete = is_load ? mem_done : now + 1;
        } else {
            entry.complete = now + entry.inst.exec_latency;
        }
        visit_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        if (entry.inst.isBranch() && entry.inst.mispredicted) {
            // Resolution time now known: fetch resumes after the
            // branch completes plus the refill penalty.
            MNM_ASSERT(redirect_pending && redirect_done == 0,
                       "mispredicted branch issued with no redirect");
            redirect_done = entry.complete + params_.mispredict_penalty;
        }
        // Every operand arrival time this completion decides is final
        // now; a zero-latency result can ready a younger waiter within
        // this cycle's scan.
        for (std::uint32_t link = entry.waiters; link != no_link;
             link = links_[link]) {
            Slot &waiter = window_[link >> 1];
            waiter.ready = std::max(waiter.ready, entry.complete);
            if (--waiter.pending == 0)
                wake(link >> 1, waiter.ready);
        }
        return true;
    };

    while (committed < count) {
        // Set by every state change below; a cycle that leaves it clear
        // was a no-op, and the skip at the bottom of the loop applies.
        bool progress = false;

        // --- commit -------------------------------------------------
        for (std::uint32_t n = 0;
             n < params_.commit_width && committed < dispatched; ++n) {
            const Slot &head = window_[committed & window_mask];
            if (head.complete > now)
                break; // still executing, or not issued
            if (head.inst.isMem()) {
                MNM_ASSERT(lsq_used > 0, "LSQ underflow");
                --lsq_used;
            }
            ++committed;
            progress = true;
        }

        // --- issue (oldest ready first) ------------------------------
        // Free MSHRs whose fills have arrived.
        mshr_free_.erase(std::remove_if(mshr_free_.begin(),
                                        mshr_free_.end(),
                                        [&](Cycles c) {
                                            return c <= now;
                                        }),
                         mshr_free_.end());
        // Operands arriving by now make their entries visitable.
        while (!wakes_.empty() && wakes_.front().ready <= now) {
            const std::uint32_t slot = wakes_.front().slot;
            visit_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            std::pop_heap(wakes_.begin(), wakes_.end(), later);
            wakes_.pop_back();
        }
        // Visit the ready entries in program order: from the window
        // head to the end of the ring, then from its start. Each word
        // is re-read per entry, so a waiter an issue readies in this
        // cycle (always younger) is still visited.
        std::uint32_t issued_this_cycle = 0;
        const std::uint32_t head_slot =
            static_cast<std::uint32_t>(committed & window_mask);
        const std::uint32_t ring_slots =
            static_cast<std::uint32_t>(window_.size());
        for (auto [from, to] : {std::pair{head_slot, ring_slots},
                                std::pair{0u, head_slot}}) {
            for (std::uint32_t slot = from;
                 slot < to && issued_this_cycle < params_.issue_width;
                 ++slot) {
                const std::uint64_t bits = visit_[slot >> 6] >> (slot & 63);
                if (bits == 0) {
                    slot |= 63; // on to the next word
                    continue;
                }
                slot += static_cast<std::uint32_t>(std::countr_zero(bits));
                if (slot < to && try_issue(slot)) {
                    ++issued_this_cycle;
                    progress = true;
                }
            }
        }

        // --- dispatch -------------------------------------------------
        for (std::uint32_t n = 0; n < params_.fetch_width; ++n) {
            if (dispatched == fetched ||
                dispatched - committed >= params_.window_size) {
                break;
            }
            const Fetched &cand = fetch_buffer_[dispatched & fetch_mask];
            if (cand.fetched + decode_depth > now)
                break;
            if (cand.inst.isMem()) {
                if (lsq_used >= params_.lsq_size)
                    break; // in-order dispatch blocks on a full LSQ
                ++lsq_used;
            }
            // Link each operand to its producer. One that is d >
            // (window occupancy) back has committed, so its result
            // arrived by now and never gates issue.
            const std::uint64_t in_window = dispatched - committed;
            const auto slot =
                static_cast<std::uint32_t>(dispatched & window_mask);
            Slot &entry = window_[slot];
            entry.inst = cand.inst;
            entry.complete = never;
            entry.ready = 0;
            entry.waiters = no_link;
            entry.pending = 0;
            for (std::uint32_t k = 0; k < 2; ++k) {
                const std::uint16_t d = k ? entry.inst.dep2 : entry.inst.dep1;
                if (d == 0 || d > in_window)
                    continue;
                Slot &producer = window_[(dispatched - d) & window_mask];
                if (producer.complete != never) {
                    entry.ready = std::max(entry.ready, producer.complete);
                } else {
                    links_[2 * slot + k] = producer.waiters;
                    producer.waiters = 2 * slot + k;
                    ++entry.pending;
                }
            }
            if (entry.pending == 0)
                wake(slot, entry.ready);
            ++dispatched;
            progress = true;
        }

        // --- fetch ------------------------------------------------------
        bool fetch_blocked = now < fetch_stalled_until;
        if (redirect_pending) {
            if (redirect_done != 0 && redirect_done <= now) {
                redirect_pending = false;
                redirect_done = 0;
                cur_fetch_line = invalid_addr;
                progress = true;
            } else {
                fetch_blocked = true;
            }
        }
        if (!fetch_blocked) {
            for (std::uint32_t n = 0; n < params_.fetch_width; ++n) {
                if (fetched >= count ||
                    fetched - dispatched >= fetch_buffer_cap) {
                    break;
                }
                if (batch_pos == batch_->size) {
                    PhaseScope prof(Phase::BatchGen);
                    workload.nextBatch(
                        *batch_, std::min(count - fetched, refill_window));
                    batch_pos = 0;
                }
                Fetched &entry = fetch_buffer_[fetched & fetch_mask];
                entry.inst = batch_->records[batch_pos++];
                entry.fetched = now;
                ++fetched;
                progress = true;
                if (entry.inst.cls == InstClass::Load)
                    ++stats.loads;
                if (entry.inst.cls == InstClass::Store)
                    ++stats.stores;

                Addr line = l1i.blockAddr(entry.inst.pc);
                if (line != cur_fetch_line) {
                    cur_fetch_line = line;
                    ++stats.fetch_line_accesses;
                    Cycles lat = memAccess(AccessType::InstFetch,
                                           entry.inst.pc, stats);
                    if (lat > l1i_hit) {
                        fetch_stalled_until = std::max(
                            fetch_stalled_until,
                            now + (lat - l1i_hit));
                    }
                }
                if (entry.inst.isBranch()) {
                    ++stats.branches;
                    if (entry.inst.mispredicted) {
                        ++stats.mispredicts;
                        redirect_pending = true;
                        redirect_done = 0; // known at issue
                        break; // no fetch past an unresolved redirect
                    }
                }
                if (fetch_stalled_until > now)
                    break; // the I-miss bubble starts after this one
            }
        }

        if (progress) {
            ++now;
        } else {
            // Idle-cycle skip. Nothing changed this cycle, so the next
            // change needs a time-gated condition to flip, and each one
            // flips at a cycle known now:
            //  - commit: the head's completion (once it has issued);
            //  - issue: an operand's arrival (the earliest is the wake
            //    heap's top) or a freed MSHR (every mshr_free_ time);
            //  - dispatch: the fetch-buffer head clearing decode;
            //  - fetch: the I-miss stall ending, or a known redirect
            //    resolving.
            // Every other gate -- window, LSQ and fetch-buffer space,
            // an unissued producer, an unknown redirect time, the fetch
            // budget -- moves only in a cycle that makes progress. So
            // every cycle before the earliest of these candidates would
            // repeat this one's no-op, and jumping to it leaves the
            // simulated machine, its stats and its final cycle count
            // untouched. Candidates at or before now are already
            // satisfied (something else blocks), so they are skipped;
            // with none left, no cycle ever changes anything again.
            Cycles next = never;
            auto candidate = [&](Cycles c) {
                if (c > now && c < next)
                    next = c;
            };
            if (!wakes_.empty())
                candidate(wakes_.front().ready);
            if (committed < dispatched)
                candidate(window_[committed & window_mask].complete);
            for (Cycles c : mshr_free_)
                candidate(c);
            if (dispatched < fetched) {
                candidate(fetch_buffer_[dispatched & fetch_mask].fetched +
                          decode_depth);
            }
            candidate(fetch_stalled_until);
            if (redirect_done != 0)
                candidate(redirect_done);
            if (next == never)
                panic("cycle core deadlocked at cycle %llu",
                      static_cast<unsigned long long>(now));
            now = next;
        }
    }

    stats.cycles = now;
    return stats;
}

} // namespace mnm
