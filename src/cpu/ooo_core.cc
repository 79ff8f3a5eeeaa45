#include "cpu/ooo_core.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/phase_profiler.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace mnm
{

CpuParams
CpuParams::fourWay()
{
    CpuParams p;
    p.fetch_width = 4;
    p.issue_width = 4;
    p.commit_width = 4;
    p.window_size = 64;
    p.lsq_size = 32;
    p.mshrs = 8;
    return p;
}

CpuParams
CpuParams::eightWay()
{
    CpuParams p;
    p.fetch_width = 8;
    p.issue_width = 8;
    p.commit_width = 8;
    p.window_size = 128;
    p.lsq_size = 64;
    p.mshrs = 16;
    return p;
}

OooCore::OooCore(const CpuParams &params, CacheHierarchy &hierarchy,
                 MnmUnit *mnm)
    : params_(params), hierarchy_(hierarchy), port_(hierarchy, mnm)
{
    if (params_.fetch_width == 0 || params_.issue_width == 0 ||
        params_.commit_width == 0) {
        fatal("core with a zero-width pipeline stage");
    }
    if (params_.window_size == 0 || params_.lsq_size == 0 ||
        params_.mshrs == 0) {
        fatal("core with zero window/LSQ/MSHR resources");
    }
}

CpuRunStats
OooCore::run(WorkloadGenerator &workload, std::uint64_t count)
{
    PhaseScope prof_run(Phase::Run);
    if (!batch_)
        batch_ = std::make_unique<InstructionBatch>();
    CpuRunStats stats;
    stats.instructions = count;

    // Completion and commit times of the last window_size
    // instructions, by i % window_size.
    const std::uint64_t window = params_.window_size;
    std::vector<double> complete_ring(window, 0.0);
    std::vector<double> commit_ring(window, 0.0);
    std::vector<double> lsq_ring(params_.lsq_size, 0.0);
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        mshrs;

    const double fetch_step = 1.0 / params_.fetch_width;
    const double issue_step = 1.0 / params_.issue_width;
    const double commit_step = 1.0 / params_.commit_width;
    // Front-end depth between fetch and dispatch/rename.
    const double decode_depth = 3.0;

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    const Cycles l1i_hit = l1i.params().hit_latency;

    double fetch_avail = 0.0;
    double fetch_stall_until = 0.0;
    double issue_avail = 0.0;
    double commit_prev = 0.0;
    Addr cur_fetch_line = invalid_addr;
    std::uint64_t mem_ops = 0;

    std::uint64_t i = 0;
    while (i < count) {
        {
            PhaseScope prof(Phase::BatchGen);
            pollCellDeadlineBatch();
            workload.nextBatch(*batch_, std::min(count - i, refill_window));
        }
        for (const Instruction &inst : *batch_) {
            // --- fetch -------------------------------------------------
            double fetch_t = std::max(fetch_avail, fetch_stall_until);
            fetch_avail = fetch_t + fetch_step;
            Addr line = l1i.blockAddr(inst.pc);
            if (line != cur_fetch_line) {
                cur_fetch_line = line;
                ++stats.fetch_line_accesses;
                Cycles lat = port_.access(AccessType::InstFetch, inst.pc);
                stats.data_access_cycles += lat;
                ++stats.data_accesses;
                // The L1-hit latency is pipelined away; anything beyond it
                // bubbles the front end.
                if (lat > l1i_hit) {
                    fetch_stall_until =
                        std::max(fetch_stall_until,
                                 fetch_t + static_cast<double>(lat - l1i_hit));
                }
            }

            // --- dispatch (window occupancy) -----------------------------
            const std::uint64_t slot = i % window;
            double window_free = commit_ring[slot]; // slot of (i - window)
            double dispatch_t =
                std::max(fetch_t + decode_depth, window_free);

            // --- operand readiness ---------------------------------------
            // A producer d >= window back committed by window_free, so
            // its result is in by dispatch and is skipped.
            double ready = dispatch_t;
            for (std::uint16_t d : {inst.dep1, inst.dep2}) {
                if (d == 0 || d > i || d >= window)
                    continue;
                const std::uint64_t producer =
                    slot >= d ? slot - d : slot + window - d;
                ready = std::max(ready, complete_ring[producer]);
            }

            // --- issue ----------------------------------------------------
            // Bandwidth is reserved in aggregate: the cursor advances by
            // 1/width per op but does NOT jump to a stalled op's ready
            // time -- younger independent work may issue around it (true
            // out-of-order selection; the window occupancy bounds how much
            // backlog can pile up). Cross-validated against the
            // cycle-driven model in tests/cycle_core_test.cc.
            double issue_t = std::max(ready, issue_avail);
            double complete;
            if (inst.isMem()) {
                // LSQ slot of (mem_ops - lsq_size) must have drained.
                issue_t = std::max(issue_t,
                                   lsq_ring[mem_ops % params_.lsq_size]);
                // MSHR bound on memory-level parallelism.
                while (!mshrs.empty() && mshrs.top() <= issue_t)
                    mshrs.pop();
                if (mshrs.size() >= params_.mshrs) {
                    issue_t = std::max(issue_t, mshrs.top());
                    mshrs.pop();
                }
                AccessType type = inst.cls == InstClass::Load
                                      ? AccessType::Load
                                      : AccessType::Store;
                Cycles lat = port_.access(type, inst.mem_addr);
                stats.data_access_cycles += lat;
                ++stats.data_accesses;
                double mem_done = issue_t + static_cast<double>(lat);
                mshrs.push(mem_done);
                lsq_ring[mem_ops % params_.lsq_size] = mem_done;
                ++mem_ops;
                if (inst.cls == InstClass::Load) {
                    complete = mem_done;
                    ++stats.loads;
                } else {
                    // Stores drain through the store buffer; dependents (via
                    // forwarding) and commit see them complete quickly.
                    complete = issue_t + 1.0;
                    ++stats.stores;
                }
            } else {
                complete = issue_t + static_cast<double>(inst.exec_latency);
            }
            issue_avail += issue_step;
            complete_ring[slot] = complete;

            // --- branches ---------------------------------------------------
            if (inst.isBranch()) {
                ++stats.branches;
                if (inst.mispredicted) {
                    ++stats.mispredicts;
                    // Redirect: fetch resumes after resolution + penalty.
                    fetch_stall_until = std::max(
                        fetch_stall_until,
                        complete +
                            static_cast<double>(params_.mispredict_penalty));
                    cur_fetch_line = invalid_addr;
                }
            }

            // --- commit (in order, bandwidth-limited) -----------------------
            double commit_t = std::max(complete, commit_prev + commit_step);
            commit_prev = commit_t;
            commit_ring[slot] = commit_t;
            ++i;
        }
    }

    stats.cycles = static_cast<Cycles>(std::ceil(commit_prev));
    return stats;
}

} // namespace mnm
