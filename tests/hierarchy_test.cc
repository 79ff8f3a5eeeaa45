/**
 * @file
 * Unit tests for the multi-level hierarchy: topology building, probe
 * ordering, latency accounting, the fill path, bypass handling, and the
 * listener event feed the MNM depends on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "core/mnm_unit.hh"
#include "core/presets.hh"
#include "sim/config.hh"
#include "util/random.hh"

namespace mnm
{
namespace
{

CacheParams
cacheParams(const char *name, std::uint64_t capacity, std::uint32_t assoc,
            std::uint32_t block, Cycles latency)
{
    CacheParams p;
    p.name = name;
    p.capacity_bytes = capacity;
    p.associativity = assoc;
    p.block_bytes = block;
    p.hit_latency = latency;
    return p;
}

/** A small 3-level hierarchy: split L1, unified L2/L3. */
HierarchyParams
smallParams()
{
    HierarchyParams params;
    LevelParams l1;
    l1.split = true;
    l1.instr = cacheParams("il1", 1024, 1, 32, 2);
    l1.data = cacheParams("dl1", 1024, 1, 32, 2);
    LevelParams l2;
    l2.data = cacheParams("ul2", 4096, 2, 32, 8);
    LevelParams l3;
    l3.data = cacheParams("ul3", 16384, 4, 64, 18);
    params.levels = {l1, l2, l3};
    params.memory_latency = 100;
    return params;
}

/** Collects listener events for inspection. */
class RecordingListener : public CacheEventListener
{
  public:
    struct Event
    {
        bool placement;
        CacheId cache;
        BlockAddr block;
    };
    std::vector<Event> events;

    void
    onPlacement(CacheId id, BlockAddr block) override
    {
        events.push_back({true, id, block});
    }
    void
    onReplacement(CacheId id, BlockAddr block) override
    {
        events.push_back({false, id, block});
    }
};

TEST(HierarchyTest, TopologyCounts)
{
    CacheHierarchy h(smallParams());
    EXPECT_EQ(h.levels(), 3u);
    EXPECT_EQ(h.numCaches(), 4u); // il1, dl1, ul2, ul3
    EXPECT_EQ(h.levelOf(0), 1u);
    EXPECT_EQ(h.levelOf(1), 1u);
    EXPECT_EQ(h.levelOf(2), 2u);
    EXPECT_EQ(h.levelOf(3), 3u);
}

TEST(HierarchyTest, PathsShareUnifiedLevels)
{
    CacheHierarchy h(smallParams());
    const auto &ipath = h.path(AccessType::InstFetch);
    const auto &dpath = h.path(AccessType::Load);
    ASSERT_EQ(ipath.size(), 3u);
    ASSERT_EQ(dpath.size(), 3u);
    EXPECT_NE(ipath[0], dpath[0]); // split L1
    EXPECT_EQ(ipath[1], dpath[1]); // unified L2
    EXPECT_EQ(ipath[2], dpath[2]); // unified L3
}

TEST(HierarchyTest, PaperSevenStructures)
{
    CacheHierarchy h(paperHierarchy(5));
    EXPECT_EQ(h.levels(), 5u);
    EXPECT_EQ(h.numCaches(), 7u); // the paper's count
}

TEST(HierarchyTest, ColdMissGoesToMemory)
{
    CacheHierarchy h(smallParams());
    AccessResult r = h.access(AccessType::Load, 0x1000);
    EXPECT_TRUE(r.from_memory);
    EXPECT_EQ(r.supply_level, 4u);
    // All three levels probed and missed: 2 + 8 + 18 + 100.
    EXPECT_EQ(r.latency, 128u);
    EXPECT_EQ(r.num_probes, 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(r.probes[i].hit);
        EXPECT_FALSE(r.probes[i].bypassed);
    }
}

TEST(HierarchyTest, SecondAccessHitsL1)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x1000);
    AccessResult r = h.access(AccessType::Load, 0x1000);
    EXPECT_FALSE(r.from_memory);
    EXPECT_EQ(r.supply_level, 1u);
    EXPECT_EQ(r.latency, 2u);
    EXPECT_EQ(r.num_probes, 1u);
    EXPECT_TRUE(r.probes[0].hit);
}

TEST(HierarchyTest, FillPathPopulatesAllLevels)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x2000);
    for (std::uint32_t level = 1; level <= 3; ++level) {
        const Cache &c = h.cacheAt(level, AccessType::Load);
        EXPECT_TRUE(c.contains(c.blockAddr(0x2000)))
            << "level " << level;
    }
}

TEST(HierarchyTest, L1EvictionLeavesL2Copy)
{
    CacheHierarchy h(smallParams());
    // dl1: 1KB direct-mapped, 32 sets. 0x0 and 0x400 conflict in L1 but
    // not in the 64-set ul2.
    h.access(AccessType::Load, 0x0);
    h.access(AccessType::Load, 0x400);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    const Cache &ul2 = h.cacheAt(2, AccessType::Load);
    EXPECT_FALSE(dl1.contains(dl1.blockAddr(0x0)));
    EXPECT_TRUE(ul2.contains(ul2.blockAddr(0x0)));
    // Re-access 0x0: L1 misses, L2 supplies.
    AccessResult r = h.access(AccessType::Load, 0x0);
    EXPECT_EQ(r.supply_level, 2u);
    EXPECT_EQ(r.latency, 2u + 8u);
}

TEST(HierarchyTest, InstFetchUsesInstructionPath)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::InstFetch, 0x3000);
    const Cache &il1 = h.cacheAt(1, AccessType::InstFetch);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    EXPECT_TRUE(il1.contains(il1.blockAddr(0x3000)));
    EXPECT_FALSE(dl1.contains(dl1.blockAddr(0x3000)));
}

TEST(HierarchyTest, StoreMarksL1Dirty)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Store, 0x0);
    // Conflict-evict the dirty line from dl1.
    h.access(AccessType::Load, 0x400);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    EXPECT_EQ(dl1.stats().writebacks.value(), 1u);
}

TEST(HierarchyTest, BypassSkipsProbeAndLatency)
{
    CacheHierarchy h(smallParams());
    // Bypass ul2 (id 2) on a cold access: the L2 probe cost (8) should
    // vanish while the walk still reaches memory.
    BypassMask mask;
    mask.set(2);
    AccessResult r = h.access(AccessType::Load, 0x5000, mask);
    EXPECT_TRUE(r.from_memory);
    EXPECT_EQ(r.latency, 2u + 18u + 100u);
    ASSERT_EQ(r.num_probes, 3u);
    EXPECT_TRUE(r.probes[1].bypassed);
    EXPECT_EQ(h.cache(2).stats().bypasses.value(), 1u);
    EXPECT_EQ(h.cache(2).stats().accesses.value(), 0u);
}

TEST(HierarchyTest, BypassedLevelStillFilled)
{
    CacheHierarchy h(smallParams());
    BypassMask mask;
    mask.set(2);
    h.access(AccessType::Load, 0x5000, mask);
    const Cache &ul2 = h.cache(2);
    EXPECT_TRUE(ul2.contains(ul2.blockAddr(0x5000)));
}

TEST(HierarchyTest, ListenerSeesPlacements)
{
    CacheHierarchy h(smallParams());
    RecordingListener listener;
    h.setListener(&listener);
    h.access(AccessType::Load, 0x1000);
    // Cold access: placements into ul3, ul2, dl1 (no evictions).
    ASSERT_EQ(listener.events.size(), 3u);
    for (const auto &e : listener.events)
        EXPECT_TRUE(e.placement);
    // Fill happens top-down from the supplier: ul3 (id 3) first.
    EXPECT_EQ(listener.events[0].cache, 3u);
    EXPECT_EQ(listener.events[2].cache, 1u); // dl1 is id 1
}

TEST(HierarchyTest, ListenerSeesReplacementBeforePlacement)
{
    CacheHierarchy h(smallParams());
    RecordingListener listener;
    h.setListener(&listener);
    h.access(AccessType::Load, 0x0);
    listener.events.clear();
    h.access(AccessType::Load, 0x400); // L1 conflict with 0x0
    // dl1's fill must report the eviction of 0x0 before the placement.
    std::vector<RecordingListener::Event> dl1_events;
    for (const auto &e : listener.events) {
        if (e.cache == 1)
            dl1_events.push_back(e);
    }
    ASSERT_EQ(dl1_events.size(), 2u);
    EXPECT_FALSE(dl1_events[0].placement);
    EXPECT_EQ(dl1_events[0].block, 0u);
    EXPECT_TRUE(dl1_events[1].placement);
}

TEST(HierarchyTest, ListenerBlockGranularityPerCache)
{
    CacheHierarchy h(smallParams());
    RecordingListener listener;
    h.setListener(&listener);
    h.access(AccessType::Load, 0x1040);
    // ul3 has 64B blocks (block addr 0x41), L1/L2 32B (block 0x82).
    ASSERT_EQ(listener.events.size(), 3u);
    EXPECT_EQ(listener.events[0].cache, 3u);
    EXPECT_EQ(listener.events[0].block, 0x1040u >> 6);
    EXPECT_EQ(listener.events[2].block, 0x1040u >> 5);
}

/** Writeback hops checked anywhere in @p h so far. */
std::uint64_t
totalWritebackProbes(const CacheHierarchy &h)
{
    std::uint64_t hops = 0;
    for (CacheId id = 0; id < h.numCaches(); ++id)
        hops += h.cache(id).stats().writeback_probes.value();
    return hops;
}

TEST(HierarchyTest, DirtyEvictionWritesBackToNextLevel)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Store, 0x0);   // dirty in dl1
    AccessResult r = h.access(AccessType::Load, 0x400); // evicts 0x0
    // The dirty victim is absorbed by ul2 (which holds a clean copy):
    // one hop, ending there.
    EXPECT_EQ(h.cache(2).stats().writeback_probes.value(), 1u); // ul2
    EXPECT_EQ(h.cache(2).stats().writeback_absorbs.value(), 1u);
    EXPECT_EQ(totalWritebackProbes(h), 1u);
    EXPECT_EQ(r.memory_writebacks, 0u);
}

TEST(HierarchyTest, AbsorbedWritebackLaterDrainsFromL2)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Store, 0x0);
    h.access(AccessType::Load, 0x400); // 0x0 dirty lands in ul2
    // Thrash ul2's set 0 so the (now dirty) 0x0 is evicted from ul2;
    // its writeback must continue to ul3, which holds a copy.
    Cache &ul2 = h.cacheAt(2, AccessType::Load);
    EXPECT_TRUE(ul2.contains(0));
    AccessResult r1 = h.access(AccessType::Load, 64 << 5);  // set 0
    AccessResult r2 = h.access(AccessType::Load, 128 << 5); // set 0
    (void)r1;
    (void)r2;
    std::uint64_t absorbs = h.cache(3).stats().writeback_absorbs.value();
    EXPECT_GE(absorbs, 1u);
}

TEST(HierarchyTest, WritebackModelingCanBeDisabled)
{
    HierarchyParams params = smallParams();
    params.model_writebacks = false;
    CacheHierarchy h(params);
    h.access(AccessType::Store, 0x0);
    AccessResult r = h.access(AccessType::Load, 0x400);
    EXPECT_EQ(totalWritebackProbes(h), 0u);
    EXPECT_EQ(r.memory_writebacks, 0u);
}

TEST(HierarchyTest, CleanEvictionsProduceNoWritebacks)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x0);
    AccessResult r = h.access(AccessType::Load, 0x400);
    EXPECT_EQ(totalWritebackProbes(h), 0u);
    EXPECT_EQ(r.memory_writebacks, 0u);
}

TEST(HierarchyTest, WritebackToMemoryWhenNoLowerCopy)
{
    // Single-level hierarchy: a dirty eviction can only go to memory.
    HierarchyParams params;
    LevelParams l1;
    l1.data = CacheParams();
    l1.data.name = "only";
    l1.data.capacity_bytes = 128;
    l1.data.associativity = 1;
    l1.data.block_bytes = 32;
    l1.data.hit_latency = 1;
    params.levels = {l1};
    params.memory_latency = 50;
    CacheHierarchy h(params);
    h.access(AccessType::Store, 0x0);
    AccessResult r = h.access(AccessType::Load, 0x80); // conflict
    EXPECT_EQ(r.memory_writebacks, 1u);
    EXPECT_EQ(h.memoryWritebacks(), 1u);
}

TEST(HierarchyTest, FlushAllEmptiesEverything)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x1000);
    h.flushAll();
    for (CacheId id = 0; id < h.numCaches(); ++id)
        EXPECT_EQ(h.cache(id).blocksResident(), 0u);
}

TEST(HierarchyTest, MemoryAccessCounter)
{
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x1000);
    h.access(AccessType::Load, 0x1000);
    h.access(AccessType::Load, 0x9000);
    EXPECT_EQ(h.memoryAccesses(), 2u);
}

TEST(HierarchyTest, NonInclusive)
{
    // Evicting a block from ul2 must NOT invalidate the L1 copy.
    CacheHierarchy h(smallParams());
    h.access(AccessType::Load, 0x0);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    Cache &ul2 = h.cacheAt(2, AccessType::Load);
    // Manually thrash ul2's set containing 0x0 (64 sets, 2 ways).
    ul2.fill(ul2.blockAddr(0x0) + 64);
    ul2.fill(ul2.blockAddr(0x0) + 128);
    ul2.fill(ul2.blockAddr(0x0) + 192);
    EXPECT_FALSE(ul2.contains(ul2.blockAddr(0x0)));
    EXPECT_TRUE(dl1.contains(dl1.blockAddr(0x0)));
}

/** Fully-associative upper levels so only ul3 conflicts: the
 *  back-invalidation tests need upper copies to survive the demand
 *  stream on their own. */
HierarchyParams
inclusionTestParams()
{
    HierarchyParams params;
    LevelParams l1;
    l1.split = true;
    l1.instr = cacheParams("il1", 1024, 0, 32, 2);
    l1.data = cacheParams("dl1", 1024, 0, 32, 2);
    LevelParams l2;
    l2.data = cacheParams("ul2", 4096, 0, 32, 8);
    LevelParams l3;
    l3.data = cacheParams("ul3", 16384, 4, 64, 18);
    params.levels = {l1, l2, l3};
    params.memory_latency = 100;
    return params;
}

TEST(HierarchyTest, InclusiveModeBackInvalidatesUpperCopies)
{
    HierarchyParams params = inclusionTestParams();
    params.inclusion = InclusionPolicy::Inclusive;
    CacheHierarchy h(params);
    // Bring 0x0 into all levels, then thrash ul3's set containing it
    // (ul3: 64 sets of 64B blocks, 4 ways; 0x1000-multiples collide).
    h.access(AccessType::Load, 0x0);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    const Cache &ul2 = h.cacheAt(2, AccessType::Load);
    EXPECT_TRUE(dl1.contains(dl1.blockAddr(0x0)));
    for (Addr a : {0x1000, 0x2000, 0x3000, 0x4000})
        h.access(AccessType::Load, a);
    const Cache &ul3 = h.cacheAt(3, AccessType::Load);
    EXPECT_FALSE(ul3.contains(ul3.blockAddr(0x0)));
    // Inclusion: the L1/L2 copies are gone too.
    EXPECT_FALSE(dl1.contains(dl1.blockAddr(0x0)));
    EXPECT_FALSE(ul2.contains(ul2.blockAddr(0x0)));
}

TEST(HierarchyTest, NonInclusiveModeKeepsUpperCopies)
{
    CacheHierarchy h(inclusionTestParams()); // default: non-inclusive
    h.access(AccessType::Load, 0x0);
    for (Addr a : {0x1000, 0x2000, 0x3000, 0x4000})
        h.access(AccessType::Load, a);
    const Cache &ul3 = h.cacheAt(3, AccessType::Load);
    const Cache &dl1 = h.cacheAt(1, AccessType::Load);
    EXPECT_FALSE(ul3.contains(ul3.blockAddr(0x0)));
    EXPECT_TRUE(dl1.contains(dl1.blockAddr(0x0)));
}

TEST(HierarchyTest, InclusiveDirtyUpperCopyFoldsIntoWriteback)
{
    HierarchyParams params = inclusionTestParams();
    params.inclusion = InclusionPolicy::Inclusive;
    CacheHierarchy h(params);
    h.access(AccessType::Store, 0x0); // dirty in dl1 only
    std::uint64_t before = h.memoryWritebacks();
    for (Addr a : {0x1000, 0x2000, 0x3000, 0x4000})
        h.access(AccessType::Load, a); // evict 0x0 from ul3
    // The dirty L1 data must not be lost: with nothing below ul3
    // holding the block, the writeback drains to memory.
    EXPECT_GT(h.memoryWritebacks(), before);
}

TEST(HierarchyTest, InclusiveBackInvalidationNotifiesListener)
{
    HierarchyParams params = inclusionTestParams();
    params.inclusion = InclusionPolicy::Inclusive;
    CacheHierarchy h(params);
    RecordingListener listener;
    h.setListener(&listener);
    h.access(AccessType::Load, 0x0);
    for (Addr a : {0x1000, 0x2000, 0x3000, 0x4000})
        h.access(AccessType::Load, a);
    // Among the events there must be replacements of block 0 for the
    // L1 (id 1) and L2 (id 2) caches.
    bool l1_repl = false, l2_repl = false;
    for (const auto &e : listener.events) {
        if (!e.placement && e.block == 0) {
            l1_repl |= e.cache == 1;
            l2_repl |= e.cache == 2;
        }
    }
    EXPECT_TRUE(l1_repl);
    EXPECT_TRUE(l2_repl);
}

TEST(HierarchyTest, MnmStaysSoundUnderInclusion)
{
    HierarchyParams params = paperHierarchy(5);
    params.inclusion = InclusionPolicy::Inclusive;
    CacheHierarchy h(params);
    MnmSpec spec = mnmSpecByName("HMNM2");
    spec.oracle_check = true;
    MnmUnit mnm(spec, h);
    Rng rng(99);
    for (int i = 0; i < 30000; ++i) {
        AccessType type = static_cast<AccessType>(rng.nextBelow(3));
        Addr addr = rng.nextBool(0.6) ? rng.nextBelow(64 * 1024)
                                      : rng.nextBelow(8ull << 20);
        BypassMask mask = mnm.computeBypass(type, addr);
        h.access(type, addr, mask);
    }
    EXPECT_EQ(mnm.soundnessViolations(), 0u);
    EXPECT_EQ(mnm.filterAnomalies(), 0u);
}

TEST(HierarchyTest, DescribeMentionsEveryLevel)
{
    CacheHierarchy h(smallParams());
    std::string desc = h.describe();
    EXPECT_NE(desc.find("il1"), std::string::npos);
    EXPECT_NE(desc.find("ul3"), std::string::npos);
    EXPECT_NE(desc.find("memory: 100"), std::string::npos);
}

TEST(HierarchyTest, RejectsEmptyConfiguration)
{
    HierarchyParams params;
    EXPECT_EXIT(CacheHierarchy h(params), ::testing::ExitedWithCode(1),
                "no cache levels");
}

TEST(HierarchyTest, PaperConfigLatencies)
{
    CacheHierarchy h(paperHierarchy(5));
    // Cold data access walks all five levels then memory:
    // 2 + 8 + 18 + 34 + 70 + 320.
    AccessResult r = h.access(AccessType::Load, 0x123456);
    EXPECT_EQ(r.latency, 452u);
}

} // anonymous namespace
} // namespace mnm
