/**
 * @file
 * Unit tests for MnmUnit (the assembled machine) and the preset library:
 * construction from specs, verdict composition, coverage tracking,
 * energy accounting, perfect-oracle mode, and name-based lookup.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "core/coverage.hh"
#include "core/mnm_unit.hh"
#include "core/presets.hh"
#include "sim/config.hh"

namespace mnm
{
namespace
{

HierarchyParams
threeLevelParams()
{
    HierarchyParams params;
    LevelParams l1;
    l1.split = true;
    l1.instr.name = "il1";
    l1.instr.capacity_bytes = 1024;
    l1.instr.associativity = 1;
    l1.instr.block_bytes = 32;
    l1.instr.hit_latency = 2;
    l1.data = l1.instr;
    l1.data.name = "dl1";
    LevelParams l2;
    l2.data.name = "ul2";
    l2.data.capacity_bytes = 4096;
    l2.data.associativity = 2;
    l2.data.block_bytes = 32;
    l2.data.hit_latency = 8;
    LevelParams l3;
    l3.data.name = "ul3";
    l3.data.capacity_bytes = 16384;
    l3.data.associativity = 4;
    l3.data.block_bytes = 64;
    l3.data.hit_latency = 18;
    params.levels = {l1, l2, l3};
    params.memory_latency = 100;
    return params;
}

TEST(MnmUnitTest, PerfectOracleBypassesExactly)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makePerfectSpec(), h);

    // Cold: everything beyond L1 is a definite miss.
    BypassMask mask = mnm.computeBypass(AccessType::Load, 0x1000);
    EXPECT_TRUE(mask.test(2));  // ul2
    EXPECT_TRUE(mask.test(3));  // ul3
    EXPECT_FALSE(mask.test(1)); // dl1 never predicted

    h.access(AccessType::Load, 0x1000, mask);
    // Now resident everywhere: no bypass.
    mask = mnm.computeBypass(AccessType::Load, 0x1000);
    EXPECT_EQ(mask.raw(), 0u);
}

TEST(MnmUnitTest, PerfectOracleConsumesNoEnergy)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makePerfectSpec(), h);
    mnm.computeBypass(AccessType::Load, 0x1000);
    h.access(AccessType::Load, 0x1000);
    EXPECT_EQ(mnm.lookupEnergyPerAccess(), 0.0);
    EXPECT_EQ(mnm.consumedEnergyPj(), 0.0);
    EXPECT_EQ(mnm.storageBits(), 0u);
}

TEST(MnmUnitTest, UniformTmnmAttachesToNonL1Caches)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 1, 3}), h);
    EXPECT_TRUE(mnm.filtersOf(0).empty()); // il1
    EXPECT_TRUE(mnm.filtersOf(1).empty()); // dl1
    EXPECT_EQ(mnm.filtersOf(2).size(), 1u);
    EXPECT_EQ(mnm.filtersOf(3).size(), 1u);
    EXPECT_GT(mnm.storageBits(), 0u);
}

TEST(MnmUnitTest, TmnmIdentifiesColdRegionAfterWarmup)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 1, 3}), h);
    // Warm one address; a far-away address with different low bits must
    // be identified as missing at both shielded levels.
    h.access(AccessType::Load, 0x0);
    BypassMask mask = mnm.computeBypass(AccessType::Load, 0x10040);
    EXPECT_TRUE(mask.test(2));
    EXPECT_TRUE(mask.test(3));
    EXPECT_EQ(mnm.soundnessViolations(), 0u);
}

TEST(MnmUnitTest, VerdictsNeverBypassResidentBlocks)
{
    CacheHierarchy h(threeLevelParams());
    MnmSpec spec = makeUniformSpec(TmnmSpec{6, 1, 3});
    spec.oracle_check = true; // count any unsound verdict
    MnmUnit mnm(spec, h);
    for (Addr a = 0; a < 0x40000; a += 0x340) {
        BypassMask mask = mnm.computeBypass(AccessType::Load, a);
        h.access(AccessType::Load, a, mask);
    }
    EXPECT_EQ(mnm.soundnessViolations(), 0u);
    EXPECT_EQ(mnm.filterAnomalies(), 0u);
}

TEST(MnmUnitTest, HybridAssignsTechniquesByLevel)
{
    CacheHierarchy h(paperHierarchy(5));
    MnmUnit mnm(makeHmnmSpec(2), h);
    // Levels 2-3 get SMNM+TMNM; levels 4-5 get CMNM+TMNM.
    // Cache ids: 0 il1, 1 dl1, 2 il2, 3 dl2, 4 ul3, 5 ul4, 6 ul5.
    ASSERT_EQ(mnm.filtersOf(2).size(), 2u);
    EXPECT_EQ(mnm.filtersOf(2)[0]->name(), "SMNM_13x2");
    EXPECT_EQ(mnm.filtersOf(2)[1]->name(), "TMNM_10x1");
    ASSERT_EQ(mnm.filtersOf(5).size(), 2u);
    EXPECT_EQ(mnm.filtersOf(5)[0]->name(), "CMNM_4_10");
    EXPECT_EQ(mnm.filtersOf(5)[1]->name(), "TMNM_11x2");
    ASSERT_NE(mnm.rmnm(), nullptr);
    EXPECT_EQ(mnm.rmnm()->name(), "RMNM_512_2");
}

TEST(MnmUnitTest, ChargeLookupAccumulatesEnergy)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 1, 3}), h);
    EXPECT_GT(mnm.lookupEnergyPerAccess(), 0.0);
    PicoJoules before = mnm.consumedEnergyPj();
    mnm.chargeLookup();
    mnm.chargeLookup();
    EXPECT_NEAR(mnm.consumedEnergyPj() - before,
                2 * mnm.lookupEnergyPerAccess(), 1e-12);
}

TEST(MnmUnitTest, NoteL1HitCostsWhatAVerdictOnAnL1HitCosts)
{
    // noteL1Hit() stands in for computeBypass() + applyPlacementCosts()
    // on an access that hits L1: same lookup count, same energy, for
    // every placement, perfect or not.
    for (MnmPlacement placement :
         {MnmPlacement::Parallel, MnmPlacement::Serial,
          MnmPlacement::Distributed}) {
        for (bool perfect : {false, true}) {
            MnmSpec spec = perfect ? makePerfectSpec() : makeHmnmSpec(4);
            spec.placement = placement;
            CacheHierarchy verdict_h(threeLevelParams());
            CacheHierarchy noted_h(threeLevelParams());
            MnmUnit verdict(spec, verdict_h);
            MnmUnit noted(spec, noted_h);
            verdict_h.access(AccessType::Load, 0x1234);
            noted_h.access(AccessType::Load, 0x1234);
            const PicoJoules before = noted.consumedEnergyPj();

            for (int i = 0; i < 3; ++i) {
                BypassMask mask =
                    verdict.computeBypass(AccessType::Load, 0x1234);
                AccessResult result =
                    verdict_h.access(AccessType::Load, 0x1234, mask);
                ASSERT_EQ(result.supply_level, 1u);
                EXPECT_EQ(verdict.applyPlacementCosts(result), 0u);
                noted.noteL1Hit();
            }
            const int p = static_cast<int>(placement);
            EXPECT_EQ(noted.lookups(), verdict.lookups())
                << "placement " << p << " perfect " << perfect;
            EXPECT_EQ(noted.consumedEnergyPj(), verdict.consumedEnergyPj())
                << "placement " << p << " perfect " << perfect;
            // Only a Parallel, non-perfect MNM pays for an L1 hit.
            EXPECT_EQ(noted.consumedEnergyPj() > before,
                      !perfect && placement == MnmPlacement::Parallel)
                << "placement " << p << " perfect " << perfect;
        }
    }
}

TEST(MnmUnitTest, UpdatesAccrueEnergyViaListener)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 1, 3}), h);
    PicoJoules before = mnm.consumedEnergyPj();
    h.access(AccessType::Load, 0x1234); // fills -> onPlacement events
    EXPECT_GT(mnm.consumedEnergyPj(), before);
}

TEST(MnmUnitTest, LookupsCounted)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 1, 3}), h);
    mnm.computeBypass(AccessType::Load, 0x0);
    mnm.computeBypass(AccessType::InstFetch, 0x0);
    EXPECT_EQ(mnm.lookups(), 2u);
}

TEST(MnmUnitTest, RmnmOnlySpecHasNoPerCacheFilters)
{
    CacheHierarchy h(threeLevelParams());
    MnmUnit mnm(makeRmnmSpec(128, 1), h);
    for (CacheId id = 0; id < h.numCaches(); ++id)
        EXPECT_TRUE(mnm.filtersOf(id).empty());
    ASSERT_NE(mnm.rmnm(), nullptr);
}

TEST(MnmUnitTest, DescribeListsStructures)
{
    CacheHierarchy h(paperHierarchy(5));
    MnmUnit mnm(makeHmnmSpec(4), h);
    std::string desc = mnm.describe();
    EXPECT_NE(desc.find("HMNM4"), std::string::npos);
    EXPECT_NE(desc.find("RMNM_4096_8"), std::string::npos);
    EXPECT_NE(desc.find("SMNM_20x3"), std::string::npos);
    EXPECT_NE(desc.find("CMNM_8_12"), std::string::npos);
}

TEST(MnmUnitTest, ProbeDelayWithinL1CyclesForAllPaperConfigs)
{
    // Paper Sections 2/4.2: the MNM verdict must be ready no later than
    // the L1 miss is detected (the paper gives both the L1 caches and
    // the MNM a 2-cycle latency). Check at a 1 GHz clock: every paper
    // configuration -- including the most complex, HMNM4 -- must fit in
    // the L1's cycle count.
    SramModel sram;
    CacheGeometry l1;
    l1.capacity_bytes = 4 * 1024;
    l1.block_bytes = 32;
    l1.associativity = 1;
    Cycles l1_cycles =
        std::max<Cycles>(2, delayToCycles(sram.cache(l1).access_ns, 1.0));

    for (const char *name :
         {"TMNM_12x3", "CMNM_8_10", "HMNM2", "HMNM4"}) {
        CacheHierarchy fresh(paperHierarchy(5));
        MnmUnit mnm(mnmSpecByName(name), fresh);
        EXPECT_LE(delayToCycles(mnm.probeDelayNs(), 1.0), l1_cycles)
            << name << " at " << mnm.probeDelayNs() << " ns";
    }
}

TEST(MnmUnitTest, ParallelPlacementPaysForExtraPorts)
{
    // Paper Section 2: the parallel MNM needs as many ports as the L1
    // I+D caches together; serial needs fewer. Multi-ported cells cost
    // more energy per probe and are slower.
    MnmSpec serial = makeUniformSpec(TmnmSpec{10, 1, 3});
    serial.placement = MnmPlacement::Serial;
    MnmSpec parallel = serial;
    parallel.placement = MnmPlacement::Parallel;

    CacheHierarchy h1(threeLevelParams());
    CacheHierarchy h2(threeLevelParams());
    MnmUnit ms(serial, h1);
    MnmUnit mp(parallel, h2);
    EXPECT_GT(mp.lookupEnergyPerAccess(), ms.lookupEnergyPerAccess());
    EXPECT_GT(mp.probeDelayNs(), ms.probeDelayNs());
}

// -------------------------------------------------------------- presets

TEST(PresetsTest, AllFigureConfigsParse)
{
    for (const auto &list :
         {rmnmFigureConfigs(), smnmFigureConfigs(), tmnmFigureConfigs(),
          cmnmFigureConfigs(), hmnmFigureConfigs(), headlineConfigs()}) {
        for (const std::string &name : list) {
            MnmSpec spec = mnmSpecByName(name);
            EXPECT_EQ(spec.name, name);
        }
    }
}

TEST(PresetsTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(mnmSpecByName("NONSENSE_1x1"),
                ::testing::ExitedWithCode(1), "unknown MNM");
    EXPECT_EXIT(makeHmnmSpec(5), ::testing::ExitedWithCode(1),
                "HMNM5");
}

TEST(PresetsTest, FigureListsMatchPaper)
{
    EXPECT_EQ(rmnmFigureConfigs().size(), 4u);
    EXPECT_EQ(smnmFigureConfigs().size(), 4u);
    EXPECT_EQ(tmnmFigureConfigs().size(), 4u);
    EXPECT_EQ(cmnmFigureConfigs().size(), 4u);
    EXPECT_EQ(hmnmFigureConfigs().size(), 4u);
    EXPECT_EQ(headlineConfigs().size(), 5u);
    EXPECT_EQ(headlineConfigs().back(), "Perfect");
}

TEST(PresetsTest, FilterSpecNames)
{
    EXPECT_EQ(filterSpecName(SmnmSpec{13, 2, SmnmUpdateMode::Counting}),
              "SMNM_13x2");
    EXPECT_EQ(filterSpecName(TmnmSpec{12, 3, 3}), "TMNM_12x3");
    EXPECT_EQ(filterSpecName(
                  CmnmSpec{8, 12, 3, CmnmMaskPolicy::Monotone}),
              "CMNM_8_12");
}

TEST(PresetsTest, HmnmStorageGrowsWithIndex)
{
    CacheHierarchy h1(paperHierarchy(5));
    CacheHierarchy h2(paperHierarchy(5));
    MnmUnit m1(makeHmnmSpec(1), h1);
    MnmUnit m4(makeHmnmSpec(4), h2);
    EXPECT_LT(m1.storageBits(), m4.storageBits());
}

// ------------------------------------------------------------- coverage

/** Three unified direct-mapped levels of 4 blocks, then a roomy L4:
 *  two blocks 128 bytes apart conflict in L1-L3 but not in L4. */
HierarchyParams
coverageTower()
{
    HierarchyParams params;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        LevelParams lvl;
        lvl.data.name = "u" + std::to_string(l);
        lvl.data.capacity_bytes = l == 4 ? 4096 : 128;
        lvl.data.associativity = l == 4 ? 4 : 1;
        lvl.data.block_bytes = 32;
        lvl.data.hit_latency = l;
        params.levels.push_back(lvl);
    }
    return params;
}

TEST(CoverageTest, CountsIdentifiedAndMissed)
{
    CacheHierarchy h(coverageTower());
    MnmUnit mnm(makeRmnmSpec(128, 1), h);
    h.access(AccessType::Load, 0x0);
    h.access(AccessType::Load, 0x80); // evicts 0x0 from L1-L3 only
    const std::vector<CacheStats> start = cacheCounters(h);
    BypassMask mask;
    mask.set(h.path(AccessType::Load)[1]); // L2
    // Supplied by L4: L1 misses (not counted), L2 is bypassed
    // (identified), L3 is probed and misses (a missed opportunity).
    AccessResult r = h.access(AccessType::Load, 0x0, mask);
    ASSERT_EQ(r.supply_level, 4u);
    CoverageTracker tracker = countWindow(h, &mnm, start).coverage;
    EXPECT_EQ(tracker.identified(), 1u);
    EXPECT_EQ(tracker.unidentified(), 1u);
    EXPECT_DOUBLE_EQ(tracker.coverage(), 0.5);
    EXPECT_EQ(tracker.identifiedAt(2), 1u);
    EXPECT_EQ(tracker.unidentifiedAt(3), 1u);
    EXPECT_DOUBLE_EQ(tracker.coverageAt(2), 1.0);
    EXPECT_DOUBLE_EQ(tracker.coverageAt(3), 0.0);
}

TEST(CoverageTest, L1HitContributesNothing)
{
    CacheHierarchy h(coverageTower());
    MnmUnit mnm(makeRmnmSpec(128, 1), h);
    h.access(AccessType::Load, 0x0);
    const std::vector<CacheStats> start = cacheCounters(h);
    EXPECT_EQ(h.access(AccessType::Load, 0x0).supply_level, 1u);
    CoverageTracker tracker = countWindow(h, &mnm, start).coverage;
    EXPECT_EQ(tracker.opportunities(), 0u);
    EXPECT_EQ(tracker.coverage(), 0.0);
}

TEST(CoverageTest, ResetClears)
{
    CoverageTracker tracker;
    tracker.add(2, 1, 0);
    EXPECT_EQ(tracker.opportunities(), 1u);
    tracker.reset();
    EXPECT_EQ(tracker.opportunities(), 0u);
}

} // anonymous namespace
} // namespace mnm
