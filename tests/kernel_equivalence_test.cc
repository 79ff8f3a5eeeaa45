/**
 * @file
 * The production path -- the batched request loop with the SoA verdict
 * program -- against the single-step virtual reference path
 * (sim/memory_sim.hh setReferenceKernel). The contract is
 * *bit-identical* results -- every counter, the coverage and confusion
 * breakdowns, and the energy doubles -- across the preset grid: the
 * five techniques plus the perfect MNM and the bare hierarchy, under
 * all three placements, and with faults injected mid-run. The grid
 * also holds the guarded plans (the PaperReset CMNM ablation and an
 * oracle-checked HMNM4), MNMs on an inclusive 5-level machine and on
 * the 7-level one, and the bare hierarchy on 2-, 3-, 7-level and
 * inclusive machines, so both production routes -- L1 first for
 * guard-free plans, verdict first for guarded ones -- face the
 * reference on every inclusion policy. The update side
 * gets the same treatment: the batched event ring drained through
 * devirtualized update kernels against the per-event virtual listener
 * feed (setReferenceFeed), faulted runs included.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_inject.hh"
#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

constexpr std::uint64_t run_instructions = 50000;
constexpr char workload_name[] = "164.gzip";

/** One grid cell: an MNM configuration (or none) under a label. */
struct KernelCase
{
    std::string label;
    std::optional<MnmSpec> spec;
};

/** An MNM on a machine other than the 5-level preset. */
struct MachineCase
{
    std::string label;
    MnmSpec spec;
    HierarchyParams machine;
};

HierarchyParams
inclusiveHierarchy(int levels)
{
    HierarchyParams params = paperHierarchy(levels);
    params.inclusion = InclusionPolicy::Inclusive;
    return params;
}

std::vector<KernelCase>
presetGrid()
{
    std::vector<KernelCase> cases;
    cases.push_back({"no-MNM", std::nullopt});
    cases.push_back({"Perfect", mnmSpecByName("Perfect")});
    const char *techniques[] = {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                                "CMNM_8_10", "HMNM4"};
    const std::pair<const char *, MnmPlacement> placements[] = {
        {"parallel", MnmPlacement::Parallel},
        {"serial", MnmPlacement::Serial},
        {"distributed", MnmPlacement::Distributed},
    };
    for (const char *name : techniques) {
        for (const auto &[pname, placement] : placements) {
            MnmSpec spec = mnmSpecByName(name);
            spec.placement = placement;
            cases.push_back(
                {std::string(name) + "/" + pname, spec});
        }
    }
    // Guarded plans: every verdict is consumed, L1 hits included, so
    // the production loop computes it before the L1 probe.
    cases.push_back(
        {"CMNM_4_10_PaperReset",
         makeUniformSpec(CmnmSpec{4, 10, 3, CmnmMaskPolicy::PaperReset})});
    MnmSpec oracle = mnmSpecByName("HMNM4");
    oracle.oracle_check = true;
    cases.push_back({"HMNM4_oracle_check", oracle});
    return cases;
}

std::vector<MachineCase>
machineCases()
{
    std::vector<MachineCase> cases;
    // Inclusive machines: a below-L1 walk may back-invalidate L1.
    for (const char *name : {"HMNM4", "TMNM_12x3"}) {
        cases.push_back({std::string(name) + "/inclusive_5_levels",
                         mnmSpecByName(name), inclusiveHierarchy(5)});
    }
    cases.push_back(
        {"HMNM4/7_levels", mnmSpecByName("HMNM4"), paperHierarchy(7)});
    return cases;
}

/** A gtest-legal name for a case label. */
std::string
testName(std::string label)
{
    for (char &c : label) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return label;
}

/** Every counter, breakdown, and energy double must match exactly.
 *  EXPECT_EQ on the doubles is deliberate: the batched kernel's
 *  event-count energy fold is only sound if it reproduces the same
 *  bits, not merely nearby values. */
void
expectIdenticalResults(const MemSimResult &batched,
                       const MemSimResult &reference)
{
    EXPECT_EQ(batched.instructions, reference.instructions);
    EXPECT_EQ(batched.requests, reference.requests);
    EXPECT_EQ(batched.data_requests, reference.data_requests);
    EXPECT_EQ(batched.fetch_requests, reference.fetch_requests);
    EXPECT_EQ(batched.total_access_cycles,
              reference.total_access_cycles);
    EXPECT_EQ(batched.miss_cycles, reference.miss_cycles);
    EXPECT_EQ(batched.memory_accesses, reference.memory_accesses);
    EXPECT_EQ(batched.soundness_violations,
              reference.soundness_violations);
    EXPECT_EQ(batched.filter_anomalies, reference.filter_anomalies);
    EXPECT_EQ(batched.mnm_storage_bits, reference.mnm_storage_bits);

    EXPECT_EQ(batched.energy.probe_hit_pj,
              reference.energy.probe_hit_pj);
    EXPECT_EQ(batched.energy.probe_miss_pj,
              reference.energy.probe_miss_pj);
    EXPECT_EQ(batched.energy.fill_pj, reference.energy.fill_pj);
    EXPECT_EQ(batched.energy.writeback_pj,
              reference.energy.writeback_pj);
    EXPECT_EQ(batched.energy.mnm_pj, reference.energy.mnm_pj);

    EXPECT_EQ(batched.coverage.identified(),
              reference.coverage.identified());
    EXPECT_EQ(batched.coverage.unidentified(),
              reference.coverage.unidentified());
    for (std::uint32_t l = 0; l < CoverageTracker::max_levels; ++l) {
        EXPECT_EQ(batched.coverage.identifiedAt(l),
                  reference.coverage.identifiedAt(l))
            << "level " << l;
        EXPECT_EQ(batched.coverage.unidentifiedAt(l),
                  reference.coverage.unidentifiedAt(l))
            << "level " << l;
    }
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        const DecisionMatrix::Cells &b = batched.decisions.at(l);
        const DecisionMatrix::Cells &r = reference.decisions.at(l);
        EXPECT_EQ(b.predicted_miss_actual_miss,
                  r.predicted_miss_actual_miss)
            << "level " << l;
        EXPECT_EQ(b.maybe_actual_miss, r.maybe_actual_miss)
            << "level " << l;
        EXPECT_EQ(b.maybe_actual_hit, r.maybe_actual_hit)
            << "level " << l;
        EXPECT_EQ(b.predicted_miss_actual_hit,
                  r.predicted_miss_actual_hit)
            << "level " << l;
    }

    ASSERT_EQ(batched.caches.size(), reference.caches.size());
    for (std::size_t i = 0; i < batched.caches.size(); ++i) {
        const CacheSnapshot &b = batched.caches[i];
        const CacheSnapshot &r = reference.caches[i];
        EXPECT_EQ(b.name, r.name);
        EXPECT_EQ(b.level, r.level);
        EXPECT_EQ(b.accesses, r.accesses) << b.name;
        EXPECT_EQ(b.hits, r.hits) << b.name;
        EXPECT_EQ(b.mru_hits, r.mru_hits) << b.name;
        EXPECT_EQ(b.misses, r.misses) << b.name;
        EXPECT_EQ(b.bypasses, r.bypasses) << b.name;
        EXPECT_EQ(b.hit_rate, r.hit_rate) << b.name;
    }
}

/** The production loop against the reference step loop. Two runs: the
 *  second starts warm, covering the carried state (filters, coverage,
 *  cumulative violation counters). */
void
expectBatchedMatchesReference(const HierarchyParams &machine,
                              const std::optional<MnmSpec> &spec)
{
    auto run_case = [&](bool reference) {
        MemorySimulator sim(machine, spec);
        sim.setReferenceKernel(reference);
        auto workload = makeSpecWorkload(workload_name);
        sim.run(*workload, run_instructions / 2);
        return sim.run(*workload, run_instructions / 2);
    };
    expectIdenticalResults(run_case(false), run_case(true));
}

/** The update-side axis: the batched event ring drained through the
 *  devirtualized update kernels (default) against the per-event
 *  virtual listener feed (half of MNM_REFERENCE=1). Both sides run the
 *  batched verdict kernel, so any divergence is the feed's fault. */
void
expectBatchedFeedMatchesVirtualFeed(const HierarchyParams &machine,
                                    const std::optional<MnmSpec> &spec)
{
    auto run_case = [&](bool reference_feed) {
        MemorySimulator sim(machine, spec);
        if (reference_feed)
            sim.setReferenceFeed(true);
        auto workload = makeSpecWorkload(workload_name);
        sim.run(*workload, run_instructions / 2);
        return sim.run(*workload, run_instructions / 2);
    };
    expectIdenticalResults(run_case(false), run_case(true));
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<KernelCase>
{
};

TEST_P(KernelEquivalenceTest, BatchedMatchesReferenceOnPresetMachine)
{
    expectBatchedMatchesReference(paperHierarchy(5), GetParam().spec);
}

TEST_P(KernelEquivalenceTest, BatchedFeedMatchesVirtualFeedOnPresetMachine)
{
    expectBatchedFeedMatchesVirtualFeed(paperHierarchy(5),
                                        GetParam().spec);
}

INSTANTIATE_TEST_SUITE_P(
    PresetGrid, KernelEquivalenceTest, ::testing::ValuesIn(presetGrid()),
    [](const auto &info) { return testName(info.param.label); });

class MachineEquivalenceTest
    : public ::testing::TestWithParam<MachineCase>
{
};

TEST_P(MachineEquivalenceTest, BatchedMatchesReference)
{
    expectBatchedMatchesReference(GetParam().machine, GetParam().spec);
}

TEST_P(MachineEquivalenceTest, BatchedFeedMatchesVirtualFeed)
{
    expectBatchedFeedMatchesVirtualFeed(GetParam().machine,
                                        GetParam().spec);
}

INSTANTIATE_TEST_SUITE_P(
    OtherMachines, MachineEquivalenceTest,
    ::testing::ValuesIn(machineCases()),
    [](const auto &info) { return testName(info.param.label); });

TEST(KernelEquivalenceTest, FaultedFiltersMatchReferenceExactly)
{
    // Same contract with corrupted filter state: warm each kernel,
    // apply the identical deterministic flips (first/middle/last bit
    // of every surface), and the oracle-checked continuation must
    // still agree bit for bit -- violations included.
    for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                             "CMNM_8_10", "HMNM4"}) {
        SCOPED_TRACE(name);
        MnmSpec spec = mnmSpecByName(name);
        spec.oracle_check = true;
        auto run_case = [&](bool reference) {
            MemorySimulator sim(paperHierarchy(5), spec);
            sim.setReferenceKernel(reference);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            auto surfaces = FaultInjector::faultSurfaces(*sim.mnm());
            EXPECT_FALSE(surfaces.empty());
            for (std::size_t s = 0; s < surfaces.size(); ++s) {
                for (std::uint64_t bit :
                     {std::uint64_t{0}, surfaces[s].bits / 2,
                      surfaces[s].bits - 1}) {
                    FaultInjector::flip(*sim.mnm(), s, bit);
                }
            }
            return sim.run(*workload, run_instructions / 2);
        };
        expectIdenticalResults(run_case(false), run_case(true));
    }
}

TEST(KernelEquivalenceTest, FaultedFiltersMatchVirtualFeedExactly)
{
    // The feed axis under corrupted filter state: deterministic bit
    // flips land between two windows, and the ring-drained update
    // kernels must rebuild exactly the state the virtual per-event
    // feed rebuilds -- oracle-checked violations included.
    for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                             "CMNM_8_10", "HMNM4"}) {
        SCOPED_TRACE(name);
        MnmSpec spec = mnmSpecByName(name);
        spec.oracle_check = true;
        auto run_case = [&](bool reference_feed) {
            MemorySimulator sim(paperHierarchy(5), spec);
            if (reference_feed)
                sim.setReferenceFeed(true);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            auto surfaces = FaultInjector::faultSurfaces(*sim.mnm());
            EXPECT_FALSE(surfaces.empty());
            for (std::size_t s = 0; s < surfaces.size(); ++s) {
                for (std::uint64_t bit :
                     {std::uint64_t{0}, surfaces[s].bits / 2,
                      surfaces[s].bits - 1}) {
                    FaultInjector::flip(*sim.mnm(), s, bit);
                }
            }
            return sim.run(*workload, run_instructions / 2);
        };
        expectIdenticalResults(run_case(false), run_case(true));
    }
}

TEST(KernelEquivalenceTest, OverlapPipelineMatchesSynchronousExactly)
{
    // The MNM_OVERLAP axis: stage-decoupled generation (producer
    // thread on multi-core hosts, software-pipelined slices on
    // single-core ones -- whatever PipelineMode::Auto picks here)
    // against the synchronous slices MNM_OVERLAP=off forces. Both
    // feed paths: the schedule is the only thing allowed to change, so
    // every counter must match bit for bit.
    for (const char *name :
         {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3", "CMNM_8_10",
          "HMNM4"}) {
        SCOPED_TRACE(name);
        const MnmSpec spec = mnmSpecByName(name);
        auto run_case = [&](bool overlap, bool reference_feed) {
            MemorySimulator sim(paperHierarchy(5), spec);
            sim.setOverlap(overlap);
            if (reference_feed)
                sim.setReferenceFeed(true);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            return sim.run(*workload, run_instructions / 2);
        };
        for (bool reference_feed : {false, true}) {
            SCOPED_TRACE(reference_feed ? "reference-feed"
                                        : "batched-feed");
            expectIdenticalResults(run_case(true, reference_feed),
                                   run_case(false, reference_feed));
        }
    }
}

TEST(KernelEquivalenceTest, FaultedOverlapMatchesSynchronousExactly)
{
    // Overlap under corrupted filter state: the deterministic flips
    // land between two windows (while no pipeline is alive -- a
    // pipeline's stream ownership ends with its run), and the
    // oracle-checked continuation must agree bit for bit with the
    // synchronous schedule, violations included.
    for (const char *name : {"RMNM_512_2", "HMNM4"}) {
        SCOPED_TRACE(name);
        MnmSpec spec = mnmSpecByName(name);
        spec.oracle_check = true;
        auto run_case = [&](bool overlap) {
            MemorySimulator sim(paperHierarchy(5), spec);
            sim.setOverlap(overlap);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            auto surfaces = FaultInjector::faultSurfaces(*sim.mnm());
            EXPECT_FALSE(surfaces.empty());
            for (std::size_t s = 0; s < surfaces.size(); ++s) {
                for (std::uint64_t bit :
                     {std::uint64_t{0}, surfaces[s].bits / 2,
                      surfaces[s].bits - 1}) {
                    FaultInjector::flip(*sim.mnm(), s, bit);
                }
            }
            return sim.run(*workload, run_instructions / 2);
        };
        expectIdenticalResults(run_case(true), run_case(false));
    }
}

/** One bare-hierarchy machine for the no-MNM routes. */
struct BareMachine
{
    std::string label;
    HierarchyParams params;
};

std::vector<BareMachine>
bareMachines()
{
    std::vector<BareMachine> machines;
    for (int levels : {2, 3, 7})
        machines.push_back(
            {std::to_string(levels) + "_levels", paperHierarchy(levels)});
    machines.push_back({"inclusive_5_levels", inclusiveHierarchy(5)});
    return machines;
}

class BareHierarchyEquivalenceTest
    : public ::testing::TestWithParam<BareMachine>
{
};

TEST_P(BareHierarchyEquivalenceTest, BatchedMatchesReferenceWithoutMnm)
{
    // No MNM runs the production request loop as a guard-free plan
    // with empty bypass masks: probe L1, walk below it on a miss. Both
    // overlap schedules must reproduce the reference step loop.
    const HierarchyParams &params = GetParam().params;
    auto run_case = [&](bool reference, bool overlap) {
        MemorySimulator sim(params);
        sim.setReferenceKernel(reference);
        sim.setOverlap(overlap);
        auto workload = makeSpecWorkload(workload_name);
        sim.run(*workload, run_instructions / 2);
        return sim.run(*workload, run_instructions / 2);
    };
    const MemSimResult reference = run_case(true, false);
    for (bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlap" : "synchronous");
        expectIdenticalResults(run_case(false, overlap), reference);
    }
}

INSTANTIATE_TEST_SUITE_P(NoMnm, BareHierarchyEquivalenceTest,
                         ::testing::ValuesIn(bareMachines()),
                         [](const auto &info) { return info.param.label; });

} // anonymous namespace
} // namespace mnm
