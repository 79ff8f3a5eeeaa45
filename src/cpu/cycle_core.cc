#include "cpu/cycle_core.hh"

#include <algorithm>
#include <deque>

#include "obs/phase_profiler.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** "No such cycle": an unissued producer's completion time, and the
 *  idle skip's "nothing time-gated is pending". */
constexpr Cycles never = ~static_cast<Cycles>(0);

} // anonymous namespace

CycleOooCore::CycleOooCore(const CpuParams &params,
                           CacheHierarchy &hierarchy, MnmUnit *mnm)
    : params_(params), hierarchy_(hierarchy), mnm_(mnm),
      complete_ring_(dep_horizon, 0)
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
    BypassMask mask;
    if (mnm_)
        mask = mnm_->computeBypass(type, addr);
    AccessResult result = hierarchy_.access(type, addr, mask);
    Cycles latency = result.latency;
    if (mnm_) {
        coverage_.record(result);
        latency += mnm_->applyPlacementCosts(result);
    }
    stats.data_access_cycles += latency;
    ++stats.data_accesses;
    return latency;
}

Cycles
CycleOooCore::readyAt(const InFlight &entry) const
{
    auto producer_done = [&](std::uint16_t dist) -> Cycles {
        if (dist == 0 || dist > entry.seq)
            return 0;
        std::uint64_t producer = entry.seq - dist;
        return complete_ring_[producer % dep_horizon];
    };
    return std::max(producer_done(entry.inst.dep1),
                    producer_done(entry.inst.dep2));
}

CpuRunStats
CycleOooCore::run(WorkloadGenerator &workload, std::uint64_t count)
{
    PhaseScope prof_run(Phase::Run);
    if (!batch_)
        batch_ = std::make_unique<InstructionBatch>();
    CpuRunStats stats;
    stats.instructions = count;

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    const Cycles l1i_hit = l1i.params().hit_latency;
    const Cycles decode_depth = 3;

    std::deque<InFlight> fetch_buffer; // fetched, not yet in the window
    std::deque<InFlight> window;       // the RUU (program order)
    std::uint32_t lsq_used = 0;
    std::vector<Cycles> mshr_free; // completion cycle per busy MSHR

    Cycles now = 0;
    Cycles fetch_stalled_until = 0;
    /** seq of an unresolved mispredicted branch fetch waits on, or ~0. */
    std::uint64_t redirect_seq = ~std::uint64_t{0};
    Cycles redirect_done = 0;
    bool redirect_pending = false;
    Addr cur_fetch_line = invalid_addr;
    std::uint64_t fetched = 0;
    std::uint64_t committed = 0;
    // Fetch reads records from batch_; a refill happens only once the
    // buffer is drained, so every record pulled this run is fetched by
    // its end and nothing carries over to the next run().
    std::size_t batch_pos = 0;
    batch_->size = 0;

    // The fetch-buffer cap keeps dispatch from starving or ballooning.
    const std::size_t fetch_buffer_cap = 4ull * params_.fetch_width +
                                         8;

    while (committed < count) {
        pollCellDeadline();
        // Set by every state change below; a cycle that leaves it clear
        // was a no-op, and the skip at the bottom of the loop applies.
        bool progress = false;

        // --- commit -------------------------------------------------
        for (std::uint32_t n = 0; n < params_.commit_width &&
                                  !window.empty();
             ++n) {
            InFlight &head = window.front();
            if (!head.issued || head.complete > now)
                break;
            if (head.is_load || head.is_store) {
                MNM_ASSERT(lsq_used > 0, "LSQ underflow");
                --lsq_used;
            }
            ++committed;
            window.pop_front();
            progress = true;
        }

        // --- issue (oldest ready first) ------------------------------
        // Free MSHRs whose fills have arrived.
        mshr_free.erase(std::remove_if(mshr_free.begin(),
                                       mshr_free.end(),
                                       [&](Cycles c) {
                                           return c <= now;
                                       }),
                        mshr_free.end());
        std::uint32_t issued_this_cycle = 0;
        // Earliest cycle at which a waiting operand arrives.
        Cycles operand_wake = never;
        for (InFlight &entry : window) {
            if (issued_this_cycle >= params_.issue_width)
                break;
            if (entry.issued)
                continue;
            const Cycles ready = readyAt(entry);
            if (ready > now) {
                operand_wake = std::min(operand_wake, ready);
                continue;
            }
            if (entry.is_load || entry.is_store) {
                if (mshr_free.size() >= params_.mshrs)
                    continue; // no MSHR: stall this op
                AccessType type = entry.is_load ? AccessType::Load
                                                : AccessType::Store;
                Cycles lat = memAccess(type, entry.inst.mem_addr, stats);
                Cycles mem_done = now + lat;
                mshr_free.push_back(mem_done);
                // Stores retire through the store buffer; loads wait
                // for the data.
                entry.complete = entry.is_load ? mem_done : now + 1;
            } else {
                entry.complete = now + entry.inst.exec_latency;
            }
            entry.issued = true;
            progress = true;
            // Publish the completion time for dependents. The window
            // (<=128) is far smaller than the ring (1024), so in-flight
            // sequence numbers never collide.
            complete_ring_[entry.seq % dep_horizon] = entry.complete;
            ++issued_this_cycle;
            if (entry.inst.isBranch() && entry.inst.mispredicted &&
                redirect_pending && redirect_seq == entry.seq) {
                // Resolution time now known: fetch resumes after the
                // branch completes plus the refill penalty.
                redirect_done =
                    entry.complete + params_.mispredict_penalty;
            }
        }

        // --- dispatch -------------------------------------------------
        for (std::uint32_t n = 0; n < params_.fetch_width; ++n) {
            if (fetch_buffer.empty() ||
                window.size() >= params_.window_size) {
                break;
            }
            InFlight &cand = fetch_buffer.front();
            if (cand.fetched + decode_depth > now)
                break;
            if ((cand.is_load || cand.is_store)) {
                if (lsq_used >= params_.lsq_size)
                    break; // in-order dispatch blocks on a full LSQ
                ++lsq_used;
            }
            window.push_back(cand);
            fetch_buffer.pop_front();
            progress = true;
        }

        // --- fetch ------------------------------------------------------
        bool fetch_blocked = now < fetch_stalled_until;
        if (redirect_pending) {
            if (redirect_done != 0 && redirect_done <= now) {
                redirect_pending = false;
                redirect_seq = ~std::uint64_t{0};
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
                    fetch_buffer.size() >= fetch_buffer_cap) {
                    break;
                }
                if (batch_pos == batch_->size) {
                    PhaseScope prof(Phase::BatchGen);
                    workload.nextBatch(
                        *batch_, std::min(count - fetched, refill_window));
                    batch_pos = 0;
                }
                InFlight entry;
                entry.inst = batch_->records[batch_pos++];
                entry.seq = fetched++;
                entry.fetched = now;
                progress = true;
                // Not ready until issued.
                complete_ring_[entry.seq % dep_horizon] = never;
                entry.is_load = entry.inst.cls == InstClass::Load;
                entry.is_store = entry.inst.cls == InstClass::Store;
                if (entry.is_load)
                    ++stats.loads;
                if (entry.is_store)
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
                        redirect_seq = entry.seq;
                        redirect_done = 0; // known at issue
                        fetch_buffer.push_back(entry);
                        break; // no fetch past an unresolved redirect
                    }
                }
                fetch_buffer.push_back(entry);
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
            //  - issue: an operand's arrival (operand_wake) or a freed
            //    MSHR (every mshr_free time);
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
            // satisfied (something else blocks), so they are skipped.
            Cycles next = operand_wake;
            auto candidate = [&](Cycles c) {
                if (c > now && c < next)
                    next = c;
            };
            if (!window.empty() && window.front().issued)
                candidate(window.front().complete);
            for (Cycles c : mshr_free)
                candidate(c);
            if (!fetch_buffer.empty())
                candidate(fetch_buffer.front().fetched + decode_depth);
            candidate(fetch_stalled_until);
            if (redirect_done != 0)
                candidate(redirect_done);
            now = next == never ? now + 1 : next;
        }
        // Deadlock guard: an empty machine with nothing left to fetch
        // cannot make progress (would indicate a model bug).
        if (window.empty() && fetch_buffer.empty() &&
            fetched >= count && committed < count) {
            panic("cycle core drained without committing everything");
        }
    }

    stats.cycles = now;
    return stats;
}

} // namespace mnm
