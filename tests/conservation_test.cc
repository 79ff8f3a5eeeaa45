/**
 * @file
 * Conservation oracle: every per-window number MemorySimulator reports
 * as a sum over probes -- the cache energy split, coverage and its
 * per-level breakdown, the decision matrix -- against an independent
 * per-access recount.
 *
 * The oracle is a twin machine: a second hierarchy and MNM driven by
 * the same instruction stream through the verdict-first rule (which
 * produces the same cache trajectory as the production loop's L1-first
 * rule; kernel_equivalence_test proves it), folding every AccessResult
 * record by record: a probe that hit or missed, a bypassed level, a
 * fill per level above the supplier. Writeback hops are folded per
 * access from the caches' writeback counters, since the access record
 * does not carry them. Both windows of a warm run are checked, so a
 * window that leaks warm-up counts shows.
 *
 * The timing cores' access streams are their own (mispredict refetches,
 * out-of-order issue), so their coverage() is checked against the
 * hierarchy's per-cache counters instead.
 */

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_inject.hh"
#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "cpu/ooo_core.hh"
#include "power/sram_model.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"
#include "util/bits.hh"

namespace mnm
{
namespace
{

constexpr std::uint64_t measured_instructions = 40000;
constexpr std::uint64_t warm_instructions = measured_instructions / 10;
constexpr char workload_name[] = "164.gzip";
/** Level indices 0..32: every depth the 32-bit BypassMask allows. */
constexpr std::size_t level_slots = 33;

/** Per-cache probe/fill energies, derived as the simulator does. */
std::vector<PowerDelay>
cachePower(const CacheHierarchy &hierarchy)
{
    SramModel sram;
    std::vector<PowerDelay> power;
    for (CacheId id = 0; id < hierarchy.numCaches(); ++id) {
        const CacheParams &cp = hierarchy.cache(id).params();
        CacheGeometry geom;
        geom.capacity_bytes = cp.capacity_bytes;
        geom.block_bytes = cp.block_bytes;
        geom.associativity = cp.associativity;
        std::uint64_t blocks = cp.capacity_bytes / cp.block_bytes;
        std::uint32_t ways =
            cp.associativity ? cp.associativity
                             : static_cast<std::uint32_t>(blocks);
        geom.tag_bits = 32u - exactLog2(blocks / ways) -
                        exactLog2(cp.block_bytes) + 2u;
        power.push_back(sram.cache(geom));
    }
    return power;
}

/** One window of the per-access recount. */
struct OracleWindow
{
    struct Events
    {
        std::uint64_t probe_hit = 0;
        std::uint64_t probe_miss = 0;
        std::uint64_t fill = 0;
        std::uint64_t wb_absorbed = 0;
        std::uint64_t wb_forwarded = 0;
    };
    std::vector<Events> events;
    std::array<std::uint64_t, level_slots> identified_at{};
    std::array<std::uint64_t, level_slots> unidentified_at{};
    std::array<std::uint64_t, level_slots> hit_at{};
    std::uint64_t requests = 0;
    std::uint64_t memory_accesses = 0;
    Cycles total_access_cycles = 0;
    Cycles miss_cycles = 0;
    /** Writeback chains that ended at memory (AccessResult field). */
    std::uint64_t memory_writebacks = 0;

    std::uint64_t
    identified() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : identified_at)
            sum += v;
        return sum;
    }

    std::uint64_t
    unidentified() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : unidentified_at)
            sum += v;
        return sum;
    }

    /** The energy fold, in the simulator's order (cache by cache). */
    EnergyBreakdown
    energy(const std::vector<PowerDelay> &power) const
    {
        EnergyBreakdown e;
        for (std::size_t id = 0; id < events.size(); ++id) {
            const PowerDelay &pd = power[id];
            const Events &ec = events[id];
            e.probe_hit_pj +=
                static_cast<double>(ec.probe_hit) * pd.read_energy_pj;
            e.probe_miss_pj +=
                static_cast<double>(ec.probe_miss) * pd.read_energy_pj;
            e.fill_pj += static_cast<double>(ec.fill) * pd.write_energy_pj;
            e.writeback_pj +=
                static_cast<double>(ec.wb_absorbed) * pd.write_energy_pj +
                static_cast<double>(ec.wb_forwarded) * pd.read_energy_pj;
        }
        return e;
    }
};

/** The twin machine that recounts every access. */
class ProbeFoldOracle
{
  public:
    ProbeFoldOracle(const HierarchyParams &machine,
                    const std::optional<MnmSpec> &spec)
        : hierarchy_(machine),
          mnm_(spec ? std::make_unique<MnmUnit>(*spec, hierarchy_)
                    : nullptr),
          workload_(makeSpecWorkload(workload_name))
    {
    }

    MnmUnit *mnm() { return mnm_.get(); }
    CacheHierarchy &hierarchy() { return hierarchy_; }

    /** Step @p instructions instructions, one request at a time. */
    OracleWindow
    run(std::uint64_t instructions)
    {
        OracleWindow w;
        w.events.assign(hierarchy_.numCaches(), OracleWindow::Events());
        const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
        Instruction inst;
        for (std::uint64_t i = 0; i < instructions; ++i) {
            workload_->next(inst);
            Addr line = l1i.blockAddr(inst.pc);
            if (line != cur_fetch_line_) {
                cur_fetch_line_ = line;
                request(AccessType::InstFetch, inst.pc, w);
            }
            if (inst.isMem()) {
                request(inst.cls == InstClass::Load ? AccessType::Load
                                                    : AccessType::Store,
                        inst.mem_addr, w);
            }
        }
        return w;
    }

  private:
    void
    request(AccessType type, Addr addr, OracleWindow &w)
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> wb_before;
        for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
            const CacheStats &s = hierarchy_.cache(id).stats();
            wb_before.emplace_back(s.writeback_probes.value(),
                                   s.writeback_absorbs.value());
        }

        BypassMask mask;
        if (mnm_)
            mask = mnm_->computeBypass(type, addr);
        const AccessResult r = hierarchy_.access(type, addr, mask);

        ++w.requests;
        if (r.from_memory)
            ++w.memory_accesses;
        Cycles latency = r.latency;
        if (mnm_)
            latency += mnm_->applyPlacementCosts(r);
        w.total_access_cycles += latency;
        w.miss_cycles += latency - r.supply_latency;
        w.memory_writebacks += r.memory_writebacks;

        for (std::uint8_t i = 0; i < r.num_probes; ++i) {
            const ProbeRecord &p = r.probes[i];
            OracleWindow::Events &ec = w.events[p.cache];
            if (!p.bypassed)
                ++(p.hit ? ec.probe_hit : ec.probe_miss);
            if (p.level < r.supply_level)
                ++ec.fill;
            if (p.level < 2)
                continue;
            if (p.bypassed)
                ++w.identified_at[p.level];
            else if (p.hit)
                ++w.hit_at[p.level];
            else
                ++w.unidentified_at[p.level];
        }
        for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
            const CacheStats &s = hierarchy_.cache(id).stats();
            std::uint64_t probes =
                s.writeback_probes.value() - wb_before[id].first;
            std::uint64_t absorbs =
                s.writeback_absorbs.value() - wb_before[id].second;
            w.events[id].wb_absorbed += absorbs;
            w.events[id].wb_forwarded += probes - absorbs;
        }
    }

    CacheHierarchy hierarchy_;
    std::unique_ptr<MnmUnit> mnm_;
    std::unique_ptr<WorkloadGenerator> workload_;
    Addr cur_fetch_line_ = invalid_addr;
};

/** Every production sum over probes equals the oracle's recount. */
void
expectConserved(const MemSimResult &r, const OracleWindow &w,
                const std::vector<PowerDelay> &power, bool with_mnm,
                std::uint32_t levels)
{
    EXPECT_EQ(r.requests, w.requests);
    EXPECT_EQ(r.memory_accesses, w.memory_accesses);
    EXPECT_EQ(r.total_access_cycles, w.total_access_cycles);
    EXPECT_EQ(r.miss_cycles, w.miss_cycles);

    // Exact double equality: the same counts multiplied out in the
    // same order must give the same bits.
    const EnergyBreakdown e = w.energy(power);
    EXPECT_EQ(r.energy.probe_hit_pj, e.probe_hit_pj);
    EXPECT_EQ(r.energy.probe_miss_pj, e.probe_miss_pj);
    EXPECT_EQ(r.energy.fill_pj, e.fill_pj);
    EXPECT_EQ(r.energy.writeback_pj, e.writeback_pj);

    if (!with_mnm) {
        // Without an MNM nothing is predicted: both stay empty.
        EXPECT_EQ(r.coverage.opportunities(), 0u);
        EXPECT_EQ(r.decisions.totals().decisions(), 0u);
        return;
    }
    EXPECT_EQ(r.coverage.identified(), w.identified());
    EXPECT_EQ(r.coverage.unidentified(), w.unidentified());
    for (std::uint32_t l = 0; l <= levels; ++l) {
        EXPECT_EQ(r.coverage.identifiedAt(l), w.identified_at[l])
            << "level " << l;
        EXPECT_EQ(r.coverage.unidentifiedAt(l), w.unidentified_at[l])
            << "level " << l;
        const DecisionMatrix::Cells &cells = r.decisions.at(l);
        EXPECT_EQ(cells.predicted_miss_actual_miss, w.identified_at[l])
            << "level " << l;
        EXPECT_EQ(cells.maybe_actual_miss, w.unidentified_at[l])
            << "level " << l;
        EXPECT_EQ(cells.maybe_actual_hit, w.hit_at[l]) << "level " << l;
    }
    const DecisionMatrix::Cells totals = r.decisions.totals();
    EXPECT_EQ(totals.predicted_miss_actual_miss, w.identified());
    EXPECT_EQ(totals.maybe_actual_miss, w.unidentified());
}

/** Non-inclusive machines: every dirty eviction starts one writeback
 *  chain, which ends absorbed by a lower level or at memory. */
void
expectWritebackChainsConserved(const CacheHierarchy &h,
                               const std::vector<CacheStats> &before,
                               const OracleWindow &w)
{
    std::uint64_t dirty_evictions = 0;
    std::uint64_t absorbed = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id) {
        const CacheStats &s = h.cache(id).stats();
        dirty_evictions +=
            s.writebacks.value() - before[id].writebacks.value();
        absorbed += s.writeback_absorbs.value() -
                    before[id].writeback_absorbs.value();
    }
    EXPECT_EQ(dirty_evictions, absorbed + w.memory_writebacks);
}

/** Fill events the oracle counted beyond the caches' insertions: fill
 *  calls that found their block resident (refills). */
std::uint64_t
refillsOf(const CacheHierarchy &h, const std::vector<CacheStats> &before,
          const OracleWindow &w)
{
    std::uint64_t fill_events = 0;
    std::uint64_t insertions = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id) {
        fill_events += w.events[id].fill;
        insertions +=
            h.cache(id).stats().fills.value() - before[id].fills.value();
    }
    EXPECT_GE(fill_events, insertions);
    return fill_events - insertions;
}

std::vector<CacheStats>
statsOf(const CacheHierarchy &h)
{
    std::vector<CacheStats> stats;
    for (CacheId id = 0; id < h.numCaches(); ++id)
        stats.push_back(h.cache(id).stats());
    return stats;
}

/** A warm run (warm-up window, then the measured window) on both the
 *  production simulator and the oracle twin. @p between runs on both
 *  MNMs between the windows. @return the measured window's refills. */
template <typename Between>
std::uint64_t
checkWarmRun(const HierarchyParams &machine,
             const std::optional<MnmSpec> &spec, Between between)
{
    MemorySimulator sim(machine, spec);
    auto workload = makeSpecWorkload(workload_name);
    ProbeFoldOracle oracle(machine, spec);
    const std::vector<PowerDelay> power = cachePower(oracle.hierarchy());
    const bool with_mnm = spec.has_value();
    const std::uint32_t levels = sim.hierarchy().levels();
    const bool non_inclusive =
        machine.inclusion == InclusionPolicy::NonInclusive;

    {
        SCOPED_TRACE("warm-up window");
        const std::vector<CacheStats> before = statsOf(oracle.hierarchy());
        MemSimResult r = sim.run(*workload, warm_instructions);
        OracleWindow w = oracle.run(warm_instructions);
        expectConserved(r, w, power, with_mnm, levels);
        if (non_inclusive)
            expectWritebackChainsConserved(oracle.hierarchy(), before, w);
    }
    if (with_mnm)
        between(*sim.mnm(), *oracle.mnm());

    SCOPED_TRACE("measured window");
    const std::vector<CacheStats> before = statsOf(oracle.hierarchy());
    MemSimResult r = sim.run(*workload, measured_instructions);
    OracleWindow w = oracle.run(measured_instructions);
    expectConserved(r, w, power, with_mnm, levels);
    if (non_inclusive)
        expectWritebackChainsConserved(oracle.hierarchy(), before, w);
    return refillsOf(oracle.hierarchy(), before, w);
}

std::uint64_t
checkWarmRun(const HierarchyParams &machine,
             const std::optional<MnmSpec> &spec)
{
    return checkWarmRun(machine, spec, [](MnmUnit &, MnmUnit &) {});
}

HierarchyParams
inclusiveHierarchy(int levels)
{
    HierarchyParams params = paperHierarchy(levels);
    params.inclusion = InclusionPolicy::Inclusive;
    return params;
}

/** One oracle case: an MNM (or none) on a machine. */
struct ConservationCase
{
    std::string label;
    std::optional<MnmSpec> spec;
    HierarchyParams machine;
};

void
PrintTo(const ConservationCase &c, std::ostream *os)
{
    *os << c.label;
}

std::vector<ConservationCase>
conservationCases()
{
    std::vector<std::string> sound;
    for (const auto *configs :
         {&rmnmFigureConfigs(), &smnmFigureConfigs(), &tmnmFigureConfigs(),
          &cmnmFigureConfigs(), &hmnmFigureConfigs()}) {
        sound.insert(sound.end(), configs->begin(), configs->end());
    }
    sound.push_back("Perfect");

    std::vector<ConservationCase> cases;
    for (const auto &[suffix, machine] :
         {std::pair{"", paperHierarchy(5)},
          std::pair{"/inclusive", inclusiveHierarchy(5)}}) {
        cases.push_back({std::string("no-MNM") + suffix, std::nullopt,
                         machine});
        for (const std::string &name : sound) {
            cases.push_back(
                {name + suffix, mnmSpecByName(name), machine});
        }
    }
    cases.push_back(
        {"HMNM4/7_levels", mnmSpecByName("HMNM4"), paperHierarchy(7)});
    cases.push_back(
        {"CMNM_4_10_PaperReset",
         makeUniformSpec(CmnmSpec{4, 10, 3, CmnmMaskPolicy::PaperReset}),
         paperHierarchy(5)});
    MnmSpec oracle_checked = mnmSpecByName("HMNM4");
    oracle_checked.oracle_check = true;
    cases.push_back(
        {"HMNM4_oracle_check", oracle_checked, paperHierarchy(5)});
    MnmSpec distributed = mnmSpecByName("HMNM4");
    distributed.placement = MnmPlacement::Distributed;
    cases.push_back({"HMNM4_distributed", distributed, paperHierarchy(5)});
    return cases;
}

class ConservationTest : public ::testing::TestWithParam<ConservationCase>
{
};

TEST_P(ConservationTest, ProductionSumsMatchPerAccessRecount)
{
    checkWarmRun(GetParam().machine, GetParam().spec);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationTest, ::testing::ValuesIn(conservationCases()),
    [](const auto &info) {
        std::string n = info.param.label;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(ConservationFaultTest, UnguardedFaultedRunWithRefillsConserves)
{
    // Without the oracle guard a corrupted filter bypasses resident
    // blocks; the fill path then refills them (a fill call that finds
    // its block resident). Flipping the low bit of every 16th 3-bit
    // counter of every surface between the windows makes that happen.
    auto corrupt = [](MnmUnit &unit) {
        auto surfaces = FaultInjector::faultSurfaces(unit);
        ASSERT_FALSE(surfaces.empty());
        for (std::size_t s = 0; s < surfaces.size(); ++s) {
            for (std::uint64_t bit = 0; bit < surfaces[s].bits;
                 bit += 3 * 16) {
                FaultInjector::flip(unit, s, bit);
            }
        }
    };
    std::uint64_t refills = checkWarmRun(
        paperHierarchy(5), mnmSpecByName("HMNM4"),
        [&](MnmUnit &production, MnmUnit &twin) {
            corrupt(production);
            corrupt(twin);
        });
    EXPECT_GT(refills, 0u) << "the faulted run produced no refills";
}

/** A timing core's coverage() against the caches' counters, after the
 *  warm-up window and after the measured one: coverage accumulates over
 *  every access since the core was built. */
template <typename Core>
void
expectCoreCoverageConserved(const std::optional<MnmSpec> &spec)
{
    CacheHierarchy h(paperHierarchy(5));
    std::unique_ptr<MnmUnit> mnm;
    if (spec)
        mnm = std::make_unique<MnmUnit>(*spec, h);
    Core core(paperCpu(5), h, mnm.get());
    auto workload = makeSpecWorkload(workload_name);
    for (std::uint64_t window : {warm_instructions, measured_instructions}) {
        core.run(*workload, window);
        const CoverageTracker coverage = core.coverage();
        if (!spec) {
            EXPECT_EQ(coverage.opportunities(), 0u);
            continue;
        }
        std::array<std::uint64_t, level_slots> id_at{};
        std::array<std::uint64_t, level_slots> un_at{};
        for (CacheId id = 0; id < h.numCaches(); ++id) {
            std::uint32_t level = h.levelOf(id);
            if (level < 2)
                continue;
            id_at[level] += h.cache(id).stats().bypasses.value();
            un_at[level] += h.cache(id).stats().misses.value();
        }
        std::uint64_t id_sum = 0, un_sum = 0;
        for (std::uint32_t l = 0; l <= h.levels(); ++l) {
            EXPECT_EQ(coverage.identifiedAt(l), id_at[l]) << "level " << l;
            EXPECT_EQ(coverage.unidentifiedAt(l), un_at[l])
                << "level " << l;
            id_sum += id_at[l];
            un_sum += un_at[l];
        }
        EXPECT_EQ(coverage.identified(), id_sum);
        EXPECT_EQ(coverage.unidentified(), un_sum);
        EXPECT_GT(coverage.identified(), 0u);
    }
}

TEST(ConservationCoreTest, OooCoreCoverageMatchesCacheCounters)
{
    expectCoreCoverageConserved<OooCore>(mnmSpecByName("HMNM4"));
    expectCoreCoverageConserved<OooCore>(std::nullopt);
}

TEST(ConservationCoreTest, CycleCoreCoverageMatchesCacheCounters)
{
    expectCoreCoverageConserved<CycleOooCore>(mnmSpecByName("HMNM4"));
    expectCoreCoverageConserved<CycleOooCore>(std::nullopt);
}

} // anonymous namespace
} // namespace mnm
