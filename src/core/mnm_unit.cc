#include "core/mnm_unit.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/phase_profiler.hh"
#include "util/logging.hh"

namespace mnm
{

MnmUnit::MnmUnit(const MnmSpec &spec, CacheHierarchy &hierarchy)
    : spec_(spec), hierarchy_(hierarchy)
{
    per_cache_.resize(hierarchy_.numCaches());
    violations_at_.assign(hierarchy_.levels() + 1, 0);

    // The RMNM granule is the level-2 block size (paper Section 3.1).
    // Tracked caches are every non-L1 structure, in id order.
    unsigned granule_bits = 64;
    std::uint32_t num_tracked = 0;
    for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
        PerCache &pc = per_cache_[id];
        pc.block_bits = hierarchy_.cache(id).blockBits();
        std::uint32_t level = hierarchy_.levelOf(id);
        if (level < 2)
            continue;
        pc.rmnm_index = static_cast<int>(num_tracked++);
        if (level == 2)
            granule_bits = std::min(granule_bits, pc.block_bits);
        for (const LevelFilters &lf : spec_.level_filters) {
            if (level < lf.min_level || level > lf.max_level)
                continue;
            for (const FilterSpec &fs : lf.filters) {
                pc.filters.push_back(makeFilter(fs));
                pc.any_unsound |= pc.filters.back()->maybeUnsound();
                kernels_.push_back(
                    {filterKindOf(fs), pc.filters.back().get()});
            }
        }
    }
    if (granule_bits == 64) {
        // No level-2 cache (a 1-level hierarchy): fall back to the
        // smallest tracked block, or 32B.
        granule_bits = 5;
    }

    if (spec_.rmnm && num_tracked > 0 && !spec_.perfect)
        rmnm_ = std::make_unique<Rmnm>(*spec_.rmnm, num_tracked,
                                       granule_bits);

    // Pre-compute per-probe energy and worst-case delay. A parallel
    // MNM serves the L1 I- and D-streams simultaneously, so its
    // structures need as many ports as the level-1 caches together
    // (paper Section 2); multi-ported cells are bigger and slower. The
    // serial and distributed placements see one request at a time.
    SramModel sram;
    CheckerModel checker;
    const double port_energy_scale =
        spec_.placement == MnmPlacement::Parallel
            ? 1.0 + sram.tech().port_factor
            : 1.0;
    const double port_delay_scale = std::sqrt(port_energy_scale);
    if (!spec_.perfect) {
        for (PerCache &pc : per_cache_) {
            for (const auto &filter : pc.filters) {
                PowerDelay pd = filter->power(sram, checker);
                lookup_energy_pj_ += pd.read_energy_pj * port_energy_scale;
                pc.lookup_pj += pd.read_energy_pj * port_energy_scale;
                pc.update_pj += pd.write_energy_pj * port_energy_scale;
                probe_delay_ns_ = std::max(
                    probe_delay_ns_, pd.access_ns * port_delay_scale);
            }
        }
        if (rmnm_) {
            PowerDelay pd = rmnm_->power(sram);
            lookup_energy_pj_ += pd.read_energy_pj * port_energy_scale;
            rmnm_lookup_pj_ = pd.read_energy_pj * port_energy_scale;
            probe_delay_ns_ = std::max(probe_delay_ns_,
                                       pd.access_ns * port_delay_scale);
            rmnm_update_pj_ = pd.write_energy_pj * port_energy_scale;
        }
    }

    compilePlans();
    hierarchy_.setListener(this);
    // Batched feed by default; setReferenceFeed(true) restores the
    // per-event virtual path (MNM_REFERENCE=1).
    hierarchy_.setBatchedFeed(true);
}

void
MnmUnit::compilePlans()
{
    // The kernels were appended cache by cache above; record each
    // cache's contiguous slice.
    std::uint32_t next = 0;
    for (PerCache &pc : per_cache_) {
        pc.kernel_first = next;
        pc.kernel_count = static_cast<std::uint32_t>(pc.filters.size());
        next += pc.kernel_count;
    }

    // And flatten the per-path walk: the level >= 2 caches in path
    // order, with everything the hot loop consults resolved up front.
    auto compile = [&](AccessType type, std::vector<VerdictStep> &plan) {
        for (CacheId id : hierarchy_.path(type)) {
            std::uint32_t level = hierarchy_.levelOf(id);
            if (level < 2)
                continue;
            VerdictStep step;
            step.cache = &hierarchy_.cache(id);
            step.pc = &per_cache_[id];
            step.id = id;
            step.level = level;
            step.oracle_guard =
                (per_cache_[id].any_unsound || spec_.oracle_check) &&
                !spec_.perfect;
            plan.push_back(step);
        }
    };
    compile(AccessType::InstFetch, instr_plan_);
    compile(AccessType::Load, data_plan_);

    // The update-side mirror: one step per cache id so the event-ring
    // drain indexes straight from CacheEvent::cache. Pointers into
    // kernels_ and per_cache_ are stable from here on (no reallocation
    // after construction).
    update_plan_.clear();
    update_plan_.reserve(per_cache_.size());
    for (PerCache &pc : per_cache_) {
        UpdateStep st;
        st.kernels = kernels_.data() + pc.kernel_first;
        st.kernel_count = pc.kernel_count;
        st.update_events = &pc.update_events;
        st.rmnm_index = pc.rmnm_index;
        st.block_bits = pc.block_bits;
        update_plan_.push_back(st);
    }

    // Lower each walk into its SoA program.
    lowerPlan(instr_plan_, soa_instr_);
    lowerPlan(data_plan_, soa_data_);
    instr_guards_ = false;
    for (const VerdictStep &step : instr_plan_)
        instr_guards_ |= step.oracle_guard;
    data_guards_ = false;
    for (const VerdictStep &step : data_plan_)
        data_guards_ |= step.oracle_guard;
}

void
MnmUnit::lowerPlan(const std::vector<VerdictStep> &plan,
                   SoaProgram &program) const
{
    program.steps.clear();
    program.ops.clear();
    program.perfect = spec_.perfect;
    program.rmnm = spec_.perfect ? nullptr : rmnm_.get();
    for (const VerdictStep &step : plan) {
        SoaStep s;
        s.cache_bit = std::uint32_t{1} << step.id;
        s.rmnm_index = program.rmnm ? step.pc->rmnm_index : -1;
        s.block_bits = step.pc->block_bits;
        s.cache = step.cache;
        s.op_first = static_cast<std::uint32_t>(program.ops.size());
        const FilterKernel *k = kernels_.data() + step.pc->kernel_first;
        const FilterKernel *end = k + step.pc->kernel_count;
        for (; k != end; ++k) {
            SoaOp op;
            op.kind = k->kind;
            switch (k->kind) {
              case FilterKind::Smnm: {
                const auto *sm = static_cast<const Smnm *>(k->filter);
                op.sm_state = sm->stateData();
                op.sm_segs = &sm->checkerSegments(0);
                op.sm_values_per_checker = sm->valuesPerChecker();
                op.sm_replication = sm->spec().replication;
                break;
              }
              case FilterKind::Tmnm: {
                const auto *tm = static_cast<const Tmnm *>(k->filter);
                op.tm_counters = tm->countersData();
                op.tm_entries = tm->tableEntries();
                op.tm_index_bits = tm->spec().index_bits;
                op.tm_replication = tm->spec().replication;
                break;
              }
              case FilterKind::Cmnm: {
                const auto *cm = static_cast<const Cmnm *>(k->filter);
                if (cm->spec().policy == CmnmMaskPolicy::Monotone) {
                    op.cm_regs = cm->registerTable();
                    op.cm_counters = cm->counterTable();
                    op.cm_num_regs = cm->spec().num_registers;
                    op.cm_index_bits = cm->spec().table_index_bits;
                } else {
                    op.cmnm = cm;
                }
                break;
              }
            }
            program.ops.push_back(op);
        }
        s.op_count = static_cast<std::uint32_t>(program.ops.size()) -
                     s.op_first;
        program.steps.push_back(s);
    }
}

MnmUnit::~MnmUnit()
{
    hierarchy_.setListener(nullptr);
}

bool
MnmUnit::cacheVerdict(CacheId id, Addr addr) const
{
    const PerCache &pc = per_cache_[id];
    const Cache &cache = hierarchy_.cache(id);
    BlockAddr block = cache.blockAddr(addr);

    if (spec_.perfect)
        return !cache.contains(block);

    if (rmnm_ && pc.rmnm_index >= 0 &&
        rmnm_->definitelyMiss(static_cast<std::uint32_t>(pc.rmnm_index),
                              addr)) {
        return true;
    }
    for (const auto &filter : pc.filters) {
        if (filter->definitelyMiss(block))
            return true;
    }
    return false;
}

BypassMask
MnmUnit::computeBypass(AccessType type, Addr addr)
{
    ++verdicts_;
    if (reference_dispatch_)
        return computeBypassReference(type, addr);
    ++lookups_;
    rmnm_burst_charged_ = false; // new access: new RMNM update burst
    const bool instr = type == AccessType::InstFetch;
    const std::uint32_t cand =
        soaCompute(instr ? soa_instr_ : soa_data_, addr);
    if (!(instr ? instr_guards_ : data_guards_))
        return BypassMask(cand);
    // Oracle-guarded steps check the candidate against live cache
    // contents, exactly as the reference walk does.
    BypassMask mask;
    const std::vector<VerdictStep> &plan =
        instr ? instr_plan_ : data_plan_;
    for (const VerdictStep &step : plan) {
        if (!((cand >> step.id) & 1u))
            continue;
        if (step.oracle_guard &&
            step.cache->contains(step.cache->blockAddr(addr))) {
            ++violations_;
            ++violations_at_[step.level];
            continue;
        }
        mask.set(step.id);
    }
    return mask;
}

BypassMask
MnmUnit::computeBypassReference(AccessType type, Addr addr)
{
    ++lookups_;
    rmnm_burst_charged_ = false; // new access: new RMNM update burst
    BypassMask mask;
    for (CacheId id : hierarchy_.path(type)) {
        if (hierarchy_.levelOf(id) < 2)
            continue;
        if (!cacheVerdict(id, addr))
            continue;
        const PerCache &pc = per_cache_[id];
        if ((pc.any_unsound || spec_.oracle_check) && !spec_.perfect) {
            const Cache &cache = hierarchy_.cache(id);
            if (cache.contains(cache.blockAddr(addr))) {
                ++violations_;
                std::uint32_t level = hierarchy_.levelOf(id);
                if (level < violations_at_.size())
                    ++violations_at_[level];
                continue;
            }
        }
        mask.set(id);
    }
    return mask;
}

Cycles
MnmUnit::applyPlacementCosts(const AccessResult &result)
{
    if (spec_.perfect)
        return 0; // the oracle is free by definition (Section 4.3/4.4)

    bool l1_missed = result.supply_level != 1;
    switch (spec_.placement) {
      case MnmPlacement::Parallel:
        // Probed alongside L1 on every request; delay hidden under the
        // L1 access (audited in bench_table3).
        chargeLookup();
        return 0;
      case MnmPlacement::Serial:
        if (!l1_missed)
            return 0;
        chargeLookup();
        return spec_.delay;
      case MnmPlacement::Distributed: {
        // Each level >= 2 the walk reaches consults its own filter
        // (+delay, + that filter's energy); the shared RMNM is
        // consulted once after the L1 miss.
        Cycles extra = 0;
        if (l1_missed && rmnm_)
            ++rmnm_lookup_events_;
        for (std::uint8_t i = 0; i < result.num_probes; ++i) {
            const ProbeRecord &probe = result.probes[i];
            if (probe.level < 2)
                continue;
            extra += spec_.delay;
            ++per_cache_[probe.cache].dist_lookup_events;
        }
        return extra;
      }
    }
    panic("unreachable MNM placement");
}

void
MnmUnit::onPlacement(CacheId id, BlockAddr block)
{
    PhaseScope prof(Phase::UpdateFeed);
    PerCache &pc = per_cache_[id];
    if (spec_.perfect)
        return;
    if (reference_dispatch_) {
        for (auto &filter : pc.filters)
            filter->onPlacement(block);
    } else {
        const FilterKernel *k = kernels_.data() + pc.kernel_first;
        const FilterKernel *end = k + pc.kernel_count;
        for (; k != end; ++k)
            kernelOnPlacement(*k, block);
    }
    ++pc.update_events;
    if (rmnm_ && pc.rmnm_index >= 0) {
        rmnm_->onPlacement(static_cast<std::uint32_t>(pc.rmnm_index),
                           hierarchy_.cache(id).byteAddr(block),
                           pc.block_bits);
        if (!rmnm_burst_charged_) {
            ++rmnm_burst_events_;
            rmnm_burst_charged_ = true;
        }
    }
}

void
MnmUnit::onReplacement(CacheId id, BlockAddr block)
{
    PhaseScope prof(Phase::UpdateFeed);
    PerCache &pc = per_cache_[id];
    if (spec_.perfect)
        return;
    if (reference_dispatch_) {
        for (auto &filter : pc.filters)
            filter->onReplacement(block);
    } else {
        const FilterKernel *k = kernels_.data() + pc.kernel_first;
        const FilterKernel *end = k + pc.kernel_count;
        for (; k != end; ++k)
            kernelOnReplacement(*k, block);
    }
    ++pc.update_events;
    if (rmnm_ && pc.rmnm_index >= 0) {
        rmnm_->onReplacement(static_cast<std::uint32_t>(pc.rmnm_index),
                             hierarchy_.cache(id).byteAddr(block),
                             pc.block_bits);
        if (!rmnm_burst_charged_) {
            ++rmnm_burst_events_;
            rmnm_burst_charged_ = true;
        }
    }
}

void
MnmUnit::onEventBatch(const CacheEvent *events, std::size_t n)
{
    if (reference_dispatch_) {
        // MNM_REFERENCE=1 routes every update through the virtual
        // MissFilter interface; unbatch into the per-event listeners so
        // that contract holds for the ring too.
        CacheEventListener::onEventBatch(events, n);
        return;
    }
    PhaseScope prof(Phase::FeedDrain);
    if (spec_.perfect)
        return; // the oracle keeps no filter state
    const UpdateStep *steps = update_plan_.data();
    Rmnm *rmnm = rmnm_.get();
    for (std::size_t i = 0; i < n; ++i) {
        const CacheEvent &ev = events[i];
        const UpdateStep &st = steps[ev.cache];
        updateStepApply(st, ev.kind, ev.block);
        if (rmnm && st.rmnm_index >= 0) {
            const Addr byte_addr = static_cast<Addr>(ev.block)
                                   << st.block_bits;
            const auto tracked =
                static_cast<std::uint32_t>(st.rmnm_index);
            if (ev.kind == CacheEventKind::Placement)
                rmnm->onPlacement(tracked, byte_addr, st.block_bits);
            else
                rmnm->onReplacement(tracked, byte_addr, st.block_bits);
            if (!rmnm_burst_charged_) {
                ++rmnm_burst_events_;
                rmnm_burst_charged_ = true;
            }
        }
    }
}

std::uint64_t
MnmUnit::feedEvents() const
{
    std::uint64_t total = 0;
    for (const PerCache &pc : per_cache_)
        total += pc.update_events;
    return total;
}

PicoJoules
MnmUnit::consumedEnergyPj() const
{
    PicoJoules total =
        static_cast<double>(lookup_charges_) * lookup_energy_pj_ +
        static_cast<double>(rmnm_burst_events_) * rmnm_update_pj_ +
        static_cast<double>(rmnm_lookup_events_) * rmnm_lookup_pj_;
    for (const PerCache &pc : per_cache_) {
        total += static_cast<double>(pc.update_events) * pc.update_pj;
        total +=
            static_cast<double>(pc.dist_lookup_events) * pc.lookup_pj;
    }
    return total;
}

void
MnmUnit::onFlush(CacheId id)
{
    PhaseScope prof(Phase::UpdateFeed);
    PerCache &pc = per_cache_[id];
    for (auto &filter : pc.filters)
        filter->onFlush();
    // The RMNM's set bits remain valid across a flush (flushed blocks
    // are certainly absent), so it is deliberately left alone.
}

std::uint64_t
MnmUnit::storageBits() const
{
    std::uint64_t bits = 0;
    for (const PerCache &pc : per_cache_) {
        for (const auto &filter : pc.filters)
            bits += filter->storageBits();
    }
    if (rmnm_)
        bits += rmnm_->storageBits();
    return bits;
}

std::uint64_t
MnmUnit::filterAnomalies() const
{
    std::uint64_t n = 0;
    for (const PerCache &pc : per_cache_) {
        for (const auto &filter : pc.filters)
            n += filter->anomalies();
    }
    return n;
}

std::string
MnmUnit::describe() const
{
    std::ostringstream out;
    const char *placement =
        spec_.placement == MnmPlacement::Parallel
            ? "parallel"
            : (spec_.placement == MnmPlacement::Serial ? "serial"
                                                       : "distributed");
    out << spec_.name << " (" << placement << ", " << spec_.delay
        << "-cycle";
    if (spec_.perfect) {
        out << ", perfect oracle)\n";
        return out.str();
    }
    out << ")\n";
    if (rmnm_)
        out << "  shared: " << rmnm_->name() << "\n";
    for (CacheId id = 0; id < per_cache_.size(); ++id) {
        const PerCache &pc = per_cache_[id];
        if (pc.filters.empty())
            continue;
        out << "  " << hierarchy_.cache(id).params().name << ":";
        for (const auto &filter : pc.filters)
            out << " " << filter->name();
        out << "\n";
    }
    out << "  storage: " << storageBits() / 8 << " bytes, probe "
        << lookup_energy_pj_ << " pJ, " << probe_delay_ns_ << " ns\n";
    return out.str();
}

} // namespace mnm
