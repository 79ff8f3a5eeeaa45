#include "sim/memory_sim.hh"

#include "obs/phase_profiler.hh"
#include "trace/batch_pipeline.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

std::vector<CacheSnapshot>
snapshotCaches(const CacheHierarchy &hierarchy)
{
    std::vector<CacheSnapshot> caches;
    for (CacheId id = 0; id < hierarchy.numCaches(); ++id) {
        const Cache &c = hierarchy.cache(id);
        CacheSnapshot snap;
        snap.name = c.params().name;
        snap.level = hierarchy.levelOf(id);
        snap.accesses = c.stats().accesses.value();
        snap.hits = c.stats().hits.value();
        snap.mru_hits = c.stats().mru_hits.value();
        snap.misses = c.stats().misses.value();
        snap.bypasses = c.stats().bypasses.value();
        snap.hit_rate = c.stats().hitRate();
        caches.push_back(snap);
    }
    return caches;
}

MemorySimulator::MemorySimulator(const HierarchyParams &hierarchy_params,
                                 std::optional<MnmSpec> mnm_spec,
                                 std::uint64_t seed)
    : hierarchy_(hierarchy_params, seed),
      mnm_(mnm_spec ? std::make_unique<MnmUnit>(*mnm_spec, hierarchy_)
                    : nullptr),
      port_(hierarchy_, mnm_.get()), overlap_(overlapFromEnv())
{
    // Pre-compute every cache's probe/fill energy.
    SramModel sram;
    for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
        const CacheParams &cp = hierarchy_.cache(id).params();
        CacheGeometry geom;
        geom.capacity_bytes = cp.capacity_bytes;
        geom.block_bytes = cp.block_bytes;
        geom.associativity = cp.associativity;
        std::uint64_t blocks = cp.capacity_bytes / cp.block_bytes;
        std::uint32_t ways =
            cp.associativity ? cp.associativity
                             : static_cast<std::uint32_t>(blocks);
        unsigned set_bits = exactLog2(blocks / ways);
        unsigned block_bits = exactLog2(cp.block_bytes);
        // 32-bit paper addresses: tag = addr minus index minus offset,
        // plus valid/dirty state.
        geom.tag_bits = 32u - set_bits - block_bits + 2u;
        cache_power_.push_back(sram.cache(geom));
    }
}

template <bool with_prof>
void
MemorySimulator::request(AccessType type, Addr addr, MemSimResult &result)
{
    BypassMask mask;
    if (mnm_) {
        ProfScope<with_prof> prof(Phase::Verdict);
        mask = mnm_->computeBypass(type, addr);
    }
    // Self time here is the hierarchy walk + accounting; the MnmUnit
    // event-ring drain fired at the end of the walk opens its own
    // FeedDrain scope inside this one (UpdateFeed on the per-event
    // reference path).
    ProfScope<with_prof> prof(Phase::HierWalk);
    accountAccess(hierarchy_.access(type, addr, mask), result);
}

inline void
MemorySimulator::accountAccess(const AccessResult &access,
                               MemSimResult &result)
{
    ++result.requests;
    if (access.from_memory)
        ++result.memory_accesses;
    Cycles latency = access.latency;
    if (mnm_)
        latency += mnm_->applyPlacementCosts(access);
    result.total_access_cycles += latency;
    // The walk recorded the supplier's hit latency (memory latency
    // when from_memory), so no cacheAt() re-walk per request.
    result.miss_cycles += latency - access.supply_latency;
}

template <bool with_prof>
void
MemorySimulator::runBatchRequests(const RequestBatch &batch,
                                  MemSimResult &result)
{
    // The request stream arrives already derived (generation and
    // stage-1 derivation are fused in nextRequests(), possibly on the
    // overlap producer thread); only the per-window counts fold in
    // here. Same stream, same counts as deriving on the spot -- the
    // dedup state threads through the producer unchanged.
    result.fetch_requests += batch.fetch_requests;
    result.data_requests += batch.data_requests;

    const Cycles l1i_hit_latency =
        hierarchy_.cacheAt(1, AccessType::InstFetch).params().hit_latency;
    const Cycles l1d_hit_latency =
        hierarchy_.cacheAt(1, AccessType::Load).params().hit_latency;

    // L1Peek self time = the L1 probes, the L1-hit accounting, and
    // loop control; HierWalk and Verdict open nested scopes.
    ProfScope<with_prof> prof(Phase::L1Peek);
    for (std::size_t k = 0; k < batch.size; ++k) {
        const AccessType type = static_cast<AccessType>(batch.kind[k]);
        const Addr addr = batch.addr[k];
        if (port_.l1Hit(type, addr)) {
            // request() on an L1 hit, term for term: no verdict (the
            // walk would stop before its first planned level) and no
            // placement cost beyond noteL1Hit()'s lookup charge.
            ++result.requests;
            result.total_access_cycles += type == AccessType::InstFetch
                                              ? l1i_hit_latency
                                              : l1d_hit_latency;
            continue;
        }
        ProfScope<with_prof> prof_walk(Phase::HierWalk);
        accountAccess(port_.walk<with_prof>(type, addr), result);
    }
}

MemSimResult
MemorySimulator::run(WorkloadGenerator &workload,
                     std::uint64_t instructions)
{
    MemSimResult result;
    result.instructions = instructions;
    const std::vector<CacheStats> start = cacheCounters(hierarchy_);

    // Root phase: self time is whatever the nested scopes below do not
    // claim (reference-kernel stepping, loop overhead).
    PhaseScope prof_run(Phase::Run);

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);

    // One mode check for the whole window: the profiling-off
    // instantiations of the step and batch paths carry zero per-access
    // profiler code (the mode cannot change mid-process).
    const bool with_prof = profActive();

    if (reference_kernel_) {
        // Single-step reference path: one virtual next() per
        // instruction, exactly the pre-batching kernel.
        Instruction inst;
        for (std::uint64_t i = 0; i < instructions; ++i) {
            workload.next(inst);
            if (with_prof)
                step<true>(inst, l1i, result);
            else
                step<false>(inst, l1i, result);
        }
    } else {
        // Production path: the consumption unit is the derived request
        // stream itself (nextRequests() fuses generation with stage-1
        // derivation). The pipeline produces batch N+1 -- on a producer
        // thread, or in software-pipelined slices on this one -- while
        // this thread consumes batch N; MNM_OVERLAP=off forces the
        // slices. The fetch-line dedup threads the simulator's
        // persistent state through whichever producer runs; with a
        // producer thread, the slot handoff orders every dedup write
        // before this thread's reads. Attribution stays honest: a
        // synchronous pipeline is still generation (BatchGen); only a
        // real producer thread turns this scope into overlap
        // wait/handoff (GenOverlap).
        FetchDedup dedup{l1i.blockBits(), cur_fetch_line_};
        RequestPipeline pipeline(workload, dedup, instructions,
                                 overlap_ ? PipelineMode::Auto
                                          : PipelineMode::Sliced);
        const Phase gen_phase =
            pipeline.synchronous() ? Phase::BatchGen : Phase::GenOverlap;
        std::uint64_t remaining = instructions;
        while (remaining > 0) {
            const RequestBatch *batch;
            {
                PhaseScope prof(gen_phase);
                batch = pipeline.acquire();
            }
            MNM_ASSERT(batch, "request pipeline ran dry before the "
                              "instruction budget");
            if (with_prof)
                runBatchRequests<true>(*batch, result);
            else
                runBatchRequests<false>(*batch, result);
            remaining -= batch->instructions;
        }
        cur_fetch_line_ = dedup.cur_line;
    }

    // Energy, coverage and decisions: the window's difference of the
    // caches' own counters.
    PhaseScope prof_cold(Phase::Cold);
    WindowCounts counts =
        countWindow(hierarchy_, mnm_.get(), start, cache_power_);
    result.energy = counts.energy;
    result.coverage = counts.coverage;
    result.decisions = counts.decisions;

    if (mnm_) {
        // Drain the MNM's internally-accumulated energy (lookups charged
        // above plus bookkeeping updates) incrementally per run() call.
        PicoJoules now = mnm_->consumedEnergyPj();
        result.energy.mnm_pj = now - mnm_energy_seen_;
        mnm_energy_seen_ = now;
        result.soundness_violations = mnm_->soundnessViolations();
        result.filter_anomalies = mnm_->filterAnomalies();
        result.mnm_storage_bits = mnm_->storageBits();
        result.verdicts = mnm_->verdicts();
        result.feed_events = mnm_->feedEvents();
    }

    result.caches = snapshotCaches(hierarchy_);
    return result;
}

void
MemorySimulator::setReferenceKernel(bool on)
{
    reference_kernel_ = on;
    if (mnm_)
        mnm_->setReferenceDispatch(on);
}

void
MemorySimulator::setReferenceFeed(bool on)
{
    if (mnm_)
        mnm_->setReferenceFeed(on);
}

} // namespace mnm
