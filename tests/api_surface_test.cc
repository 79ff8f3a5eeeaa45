/**
 * @file
 * Targeted tests for API surface not exercised elsewhere: the bypass
 * mask, the access record's capacity and size, logging formatter,
 * hierarchy accessors, the 7-level machine, and description strings.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "core/presets.hh"
#include "sim/config.hh"
#include "util/logging.hh"

namespace mnm
{
namespace
{

TEST(BypassMaskTest, SetTestClearRaw)
{
    BypassMask mask;
    EXPECT_EQ(mask.raw(), 0u);
    mask.set(0);
    mask.set(5);
    EXPECT_TRUE(mask.test(0));
    EXPECT_FALSE(mask.test(1));
    EXPECT_TRUE(mask.test(5));
    EXPECT_EQ(mask.raw(), (1u << 0) | (1u << 5));
    mask.clear();
    EXPECT_EQ(mask.raw(), 0u);
}

TEST(AccessResultTest, ProbeOverflowIsALogicBugNotASilentDrop)
{
    AccessResult r;
    for (std::size_t i = 0; i < AccessResult::max_probes; ++i) {
        r.addProbe({static_cast<CacheId>(i),
                    static_cast<std::uint8_t>(i + 1), false, false});
    }
    EXPECT_EQ(r.num_probes, AccessResult::max_probes);
    EXPECT_DEATH(r.addProbe({0, 1, false, false}),
                 "probe record overflow");
}

// The per-access record stays small: every walk returns one by value.
static_assert(sizeof(AccessResult) <= 320);

TEST(LoggingTest, VformatFormats)
{
    EXPECT_EQ(detail::vformat("plain"), "plain");
    EXPECT_EQ(detail::vformat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(detail::vformat("%0.2f", 1.5), "1.50");
}

TEST(SevenLevelTest, TopologyAndPaths)
{
    CacheHierarchy h(paperHierarchy(7));
    EXPECT_EQ(h.levels(), 7u);
    EXPECT_EQ(h.numCaches(), 9u); // split L1+L2, unified L3..L7
    const auto &dpath = h.path(AccessType::Load);
    ASSERT_EQ(dpath.size(), 7u);
    EXPECT_EQ(h.cacheAt(7, AccessType::Load).params().name, "ul7");
    // Cold walk: 2+8+18+34+70+110+200+320.
    AccessResult r = h.access(AccessType::Load, 0xdeadbe0);
    EXPECT_EQ(r.latency, 762u);
}

TEST(SevenLevelTest, MnmCoversLevelsTwoThroughSeven)
{
    CacheHierarchy h(paperHierarchy(7));
    MnmUnit mnm(makeUniformSpec(TmnmSpec{10, 2, 3}), h);
    // All non-L1 caches carry filters.
    std::uint32_t with_filters = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id) {
        if (!mnm.filtersOf(id).empty())
            ++with_filters;
    }
    EXPECT_EQ(with_filters, 7u); // il2, dl2, ul3..ul7
    // Cold bypass identifies everything beyond L1 on the LOAD path
    // (dl2 + ul3..ul7 = 6 caches; il2 is not on this path).
    BypassMask mask = mnm.computeBypass(AccessType::Load, 0x123400);
    std::uint32_t bits = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id)
        bits += mask.test(id);
    EXPECT_EQ(bits, 6u);
    // The fetch path covers il2 instead.
    BypassMask imask = mnm.computeBypass(AccessType::InstFetch, 0x1234);
    std::uint32_t ibits = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id)
        ibits += imask.test(id);
    EXPECT_EQ(ibits, 6u);
}

TEST(DescribeTest, PlacementNames)
{
    for (auto [placement, word] :
         {std::pair{MnmPlacement::Parallel, "parallel"},
          std::pair{MnmPlacement::Serial, "serial"},
          std::pair{MnmPlacement::Distributed, "distributed"}}) {
        CacheHierarchy h(paperHierarchy(3));
        MnmSpec spec = makeUniformSpec(TmnmSpec{8, 1, 3});
        spec.placement = placement;
        MnmUnit mnm(spec, h);
        EXPECT_NE(mnm.describe().find(word), std::string::npos);
    }
}

TEST(PaperConfigTest, UnsupportedLevelCountIsFatal)
{
    EXPECT_EXIT(paperHierarchy(4), ::testing::ExitedWithCode(1),
                "supported: 2, 3, 5, 7");
}

TEST(PaperConfigTest, CpuWidthsFollowThePaper)
{
    EXPECT_EQ(paperCpu(2).issue_width, 4u);
    EXPECT_EQ(paperCpu(3).issue_width, 4u);
    EXPECT_EQ(paperCpu(5).issue_width, 8u);
    EXPECT_EQ(paperCpu(7).issue_width, 8u);
    // "resources twice of the processor for 2 and 3 level" --
    EXPECT_EQ(paperCpu(5).window_size, 2 * paperCpu(3).window_size);
    EXPECT_EQ(paperCpu(5).lsq_size, 2 * paperCpu(3).lsq_size);
}

TEST(PaperConfigTest, FiveLevelMatchesSection41)
{
    HierarchyParams p = paperHierarchy(5);
    ASSERT_EQ(p.levels.size(), 5u);
    EXPECT_TRUE(p.levels[0].split);
    EXPECT_EQ(p.levels[0].data.capacity_bytes, 4u * 1024);
    EXPECT_EQ(p.levels[0].data.associativity, 1u);
    EXPECT_EQ(p.levels[0].data.hit_latency, 2u);
    EXPECT_TRUE(p.levels[1].split);
    EXPECT_EQ(p.levels[1].data.capacity_bytes, 16u * 1024);
    EXPECT_EQ(p.levels[1].data.associativity, 2u);
    EXPECT_EQ(p.levels[1].data.hit_latency, 8u);
    EXPECT_FALSE(p.levels[2].split);
    EXPECT_EQ(p.levels[2].data.capacity_bytes, 128u * 1024);
    EXPECT_EQ(p.levels[2].data.block_bytes, 64u);
    EXPECT_EQ(p.levels[2].data.hit_latency, 18u);
    EXPECT_EQ(p.levels[3].data.capacity_bytes, 512u * 1024);
    EXPECT_EQ(p.levels[3].data.hit_latency, 34u);
    EXPECT_EQ(p.levels[4].data.capacity_bytes, 2048u * 1024);
    EXPECT_EQ(p.levels[4].data.associativity, 8u);
    EXPECT_EQ(p.levels[4].data.hit_latency, 70u);
    EXPECT_EQ(p.memory_latency, 320u);
}

TEST(HierarchyAccessorTest, CacheAtRejectsBadLevel)
{
    CacheHierarchy h(paperHierarchy(3));
    EXPECT_DEATH(h.cacheAt(0, AccessType::Load), "level out of range");
    EXPECT_DEATH(h.cacheAt(9, AccessType::Load), "level out of range");
}

} // anonymous namespace
} // namespace mnm
