/**
 * @file
 * Unit tests for the workload generators: determinism, reset semantics,
 * instruction-mix fractions, address-pattern behaviour, and the
 * SPEC2000-like suite definitions.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/spec2000.hh"
#include "trace/synthetic.hh"
#include "trace/workload.hh"

namespace mnm
{
namespace
{

SyntheticParams
basicParams()
{
    SyntheticParams p;
    p.name = "test";
    p.load_frac = 0.3;
    p.store_frac = 0.1;
    p.branch_frac = 0.1;
    p.seed = 7;
    RegionParams r;
    r.footprint_bytes = 64 * 1024;
    r.pattern = RegionPattern::Sequential;
    p.regions = {r};
    return p;
}

TEST(SyntheticTest, Deterministic)
{
    SyntheticWorkload a(basicParams());
    SyntheticWorkload b(basicParams());
    Instruction ia, ib;
    for (int i = 0; i < 5000; ++i) {
        a.next(ia);
        b.next(ib);
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.mem_addr, ib.mem_addr);
        ASSERT_EQ(static_cast<int>(ia.cls), static_cast<int>(ib.cls));
    }
}

TEST(SyntheticTest, ForEachRecordMatchesNextAndStopsAtCount)
{
    // Ragged counts around the refill window, back to back on one
    // generator: the visited records are the next() stream, and the
    // record after them is the one next() would produce next.
    SyntheticWorkload a(basicParams());
    SyntheticWorkload b(basicParams());
    InstructionBatch batch;
    Instruction expect;
    for (std::uint64_t count : {1u, 255u, 256u, 257u, 4097u}) {
        std::uint64_t seen = 0;
        forEachRecord(a, count, batch, [&](const Instruction &inst) {
            b.next(expect);
            ASSERT_EQ(inst.pc, expect.pc);
            ASSERT_EQ(inst.mem_addr, expect.mem_addr);
            ASSERT_EQ(inst.dep1, expect.dep1);
            ++seen;
        });
        EXPECT_EQ(seen, count);
    }
    Instruction after;
    a.next(after);
    b.next(expect);
    EXPECT_EQ(after.pc, expect.pc);
    EXPECT_EQ(after.mem_addr, expect.mem_addr);
}

TEST(SyntheticTest, ResetReplaysExactly)
{
    SyntheticWorkload w(basicParams());
    std::vector<Addr> first;
    Instruction inst;
    for (int i = 0; i < 1000; ++i) {
        w.next(inst);
        first.push_back(inst.pc ^ inst.mem_addr);
    }
    w.reset();
    for (int i = 0; i < 1000; ++i) {
        w.next(inst);
        ASSERT_EQ(first[i], inst.pc ^ inst.mem_addr) << "at " << i;
    }
}

TEST(SyntheticTest, MixFractionsApproximatelyHonoured)
{
    SyntheticWorkload w(basicParams());
    std::map<InstClass, int> counts;
    Instruction inst;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        w.next(inst);
        counts[inst.cls]++;
    }
    EXPECT_NEAR(counts[InstClass::Load] / double(n), 0.3, 0.02);
    EXPECT_NEAR(counts[InstClass::Store] / double(n), 0.1, 0.02);
    EXPECT_NEAR(counts[InstClass::Branch] / double(n), 0.1, 0.02);
}

TEST(SyntheticTest, MemAddressesStayInRegionFootprint)
{
    SyntheticParams p = basicParams();
    p.regions[0].footprint_bytes = 4096;
    SyntheticWorkload w(p);
    Instruction inst;
    for (int i = 0; i < 20000; ++i) {
        w.next(inst);
        if (inst.isMem()) {
            EXPECT_GE(inst.mem_addr, 0x40000000ull);
            EXPECT_LT(inst.mem_addr, 0x40000000ull + 4096);
        }
    }
}

TEST(SyntheticTest, SequentialPatternStrides)
{
    SyntheticParams p = basicParams();
    p.load_frac = 1.0;
    p.store_frac = 0.0;
    p.branch_frac = 0.0;
    p.temporal_reuse = 0.0; // observe the raw pattern
    p.regions[0].stride = 16;
    SyntheticWorkload w(p);
    Instruction a, b;
    w.next(a);
    w.next(b);
    EXPECT_EQ(b.mem_addr - a.mem_addr, 16u);
}

TEST(SyntheticTest, PointerChaseCoversRegion)
{
    SyntheticParams p = basicParams();
    p.load_frac = 1.0;
    p.store_frac = 0.0;
    p.branch_frac = 0.0;
    p.temporal_reuse = 0.0; // observe the raw pattern
    p.regions[0].pattern = RegionPattern::PointerChase;
    p.regions[0].footprint_bytes = 32 * 64; // 64 cells of 32B
    p.regions[0].stride = 32;
    SyntheticWorkload w(p);
    std::set<Addr> seen;
    Instruction inst;
    for (int i = 0; i < 64; ++i) {
        w.next(inst);
        seen.insert(inst.mem_addr);
    }
    // Full-period LCG: all 64 cells visited in 64 steps.
    EXPECT_EQ(seen.size(), 64u);
}

TEST(SyntheticTest, HotColdConcentratesAccesses)
{
    SyntheticParams p = basicParams();
    p.load_frac = 1.0;
    p.store_frac = 0.0;
    p.branch_frac = 0.0;
    p.regions[0].pattern = RegionPattern::HotCold;
    p.regions[0].footprint_bytes = 1024 * 1024;
    p.regions[0].hot_fraction = 0.01;
    p.regions[0].hot_probability = 0.9;
    SyntheticWorkload w(p);
    Instruction inst;
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        w.next(inst);
        if (inst.mem_addr < 0x40000000ull + 1024 * 1024 / 100 + 64)
            ++hot;
    }
    EXPECT_GT(hot / double(n), 0.85);
}

TEST(SyntheticTest, TemporalReuseRetouchesRecentAddresses)
{
    // With heavy reuse, a locality-free random pattern still repeats
    // addresses within short windows.
    SyntheticParams p = basicParams();
    p.load_frac = 1.0;
    p.store_frac = 0.0;
    p.branch_frac = 0.0;
    p.temporal_reuse = 0.6;
    p.regions[0].pattern = RegionPattern::RandomUniform;
    p.regions[0].footprint_bytes = 16 * 1024 * 1024;
    SyntheticWorkload w(p);
    std::set<Addr> window;
    Instruction inst;
    int repeats = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        w.next(inst);
        if (!window.insert(inst.mem_addr).second)
            ++repeats;
    }
    // Random-over-16MB alone would almost never repeat.
    EXPECT_GT(repeats / double(n), 0.4);

    SyntheticParams q = p;
    q.temporal_reuse = 0.0;
    SyntheticWorkload w0(q);
    window.clear();
    repeats = 0;
    for (int i = 0; i < n; ++i) {
        w0.next(inst);
        if (!window.insert(inst.mem_addr).second)
            ++repeats;
    }
    EXPECT_LT(repeats / double(n), 0.05);
}

TEST(SyntheticTest, PcStaysInCodeFootprint)
{
    SyntheticParams p = basicParams();
    p.code_footprint_bytes = 8192;
    SyntheticWorkload w(p);
    Instruction inst;
    for (int i = 0; i < 20000; ++i) {
        w.next(inst);
        EXPECT_GE(inst.pc, 0x00100000ull);
        EXPECT_LE(inst.pc, 0x00100000ull + 8192 + 4);
    }
}

TEST(SyntheticTest, LoopsRevisitPcs)
{
    SyntheticWorkload w(basicParams());
    std::map<Addr, int> pc_counts;
    Instruction inst;
    for (int i = 0; i < 20000; ++i) {
        w.next(inst);
        pc_counts[inst.pc]++;
    }
    int max_count = 0;
    for (const auto &[pc, n] : pc_counts)
        max_count = std::max(max_count, n);
    EXPECT_GT(max_count, 3); // loops re-execute bodies
}

TEST(SyntheticTest, MispredictRateHonoured)
{
    SyntheticParams p = basicParams();
    p.branch_frac = 0.5;
    p.mispredict_rate = 0.2;
    SyntheticWorkload w(p);
    Instruction inst;
    int branches = 0;
    int mispredicts = 0;
    for (int i = 0; i < 50000; ++i) {
        w.next(inst);
        if (inst.isBranch()) {
            ++branches;
            mispredicts += inst.mispredicted ? 1 : 0;
        }
    }
    EXPECT_NEAR(mispredicts / double(branches), 0.2, 0.02);
}

TEST(SyntheticTest, DependenceDistancesBounded)
{
    SyntheticWorkload w(basicParams());
    Instruction inst;
    for (int i = 0; i < 10000; ++i) {
        w.next(inst);
        EXPECT_LE(inst.dep1, 512);
        EXPECT_LE(inst.dep2, 512);
    }
}

TEST(SyntheticTest, MultipleRegionsAllVisited)
{
    SyntheticParams p = basicParams();
    p.load_frac = 1.0;
    p.store_frac = 0.0;
    p.branch_frac = 0.0;
    RegionParams r2 = p.regions[0];
    p.regions.push_back(r2);
    p.regions.push_back(r2);
    SyntheticWorkload w(p);
    std::set<Addr> bases;
    Instruction inst;
    for (int i = 0; i < 20000; ++i) {
        w.next(inst);
        bases.insert(inst.mem_addr & ~((64ull << 20) - 1));
    }
    EXPECT_EQ(bases.size(), 3u); // three 64MB-spaced region bases
}

TEST(SyntheticTest, RejectsBadParams)
{
    SyntheticParams p = basicParams();
    p.regions.clear();
    EXPECT_EXIT(SyntheticWorkload w(p), ::testing::ExitedWithCode(1),
                "no data regions");

    p = basicParams();
    p.load_frac = 0.9;
    p.store_frac = 0.2;
    EXPECT_EXIT(SyntheticWorkload w(p), ::testing::ExitedWithCode(1),
                "exceeds 1");
}

// ------------------------------------------------------------ scripted

TEST(ScriptedTest, ReplaysAndWraps)
{
    Instruction a;
    a.cls = InstClass::Load;
    a.mem_addr = 0x100;
    Instruction b;
    b.cls = InstClass::IntAlu;
    ScriptedWorkload w({a, b}, "s");
    Instruction out;
    w.next(out);
    EXPECT_EQ(out.mem_addr, 0x100u);
    w.next(out);
    EXPECT_EQ(out.cls, InstClass::IntAlu);
    w.next(out); // wraps
    EXPECT_EQ(out.mem_addr, 0x100u);
    EXPECT_EQ(w.length(), 2u);
}

TEST(ScriptedTest, EmptyScriptRejected)
{
    EXPECT_EXIT(ScriptedWorkload w({}), ::testing::ExitedWithCode(1),
                "empty script");
}

// ------------------------------------------------------- uniform random

TEST(UniformRandomTest, MixAndFootprint)
{
    UniformRandomWorkload w(4096, 0.5, 0.2, 3);
    Instruction inst;
    int loads = 0, stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        w.next(inst);
        if (inst.cls == InstClass::Load)
            ++loads;
        if (inst.cls == InstClass::Store)
            ++stores;
        if (inst.isMem()) {
            EXPECT_LT(inst.mem_addr - 0x40000000ull, 4096u);
        }
    }
    EXPECT_NEAR(loads / double(n), 0.5, 0.02);
    EXPECT_NEAR(stores / double(n), 0.2, 0.02);
}

TEST(UniformRandomTest, ResetReplays)
{
    UniformRandomWorkload w(4096, 0.5, 0.2, 3);
    Instruction a, b;
    w.next(a);
    w.reset();
    w.next(b);
    EXPECT_EQ(a.mem_addr, b.mem_addr);
}

// ------------------------------------------------------------- spec2000

TEST(Spec2000Test, TwentyNames)
{
    EXPECT_EQ(specIntNames().size(), 10u);
    EXPECT_EQ(specFpNames().size(), 10u);
    EXPECT_EQ(specAllNames().size(), 20u);
}

TEST(Spec2000Test, AllWorkloadsConstructAndGenerate)
{
    for (const std::string &name : specAllNames()) {
        auto w = makeSpecWorkload(name);
        EXPECT_EQ(w->name(), name);
        Instruction inst;
        for (int i = 0; i < 1000; ++i)
            w->next(inst);
    }
}

TEST(Spec2000Test, DistinctSeedsProduceDistinctStreams)
{
    auto a = makeSpecWorkload("164.gzip");
    auto b = makeSpecWorkload("181.mcf");
    Instruction ia, ib;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        a->next(ia);
        b->next(ib);
        if (ia.pc == ib.pc)
            ++same;
    }
    EXPECT_LT(same, 100);
}

TEST(Spec2000Test, McfHasHugeFootprint)
{
    SyntheticParams p = specWorkloadParams("181.mcf");
    std::uint64_t max_fp = 0;
    for (const auto &r : p.regions)
        max_fp = std::max(max_fp, r.footprint_bytes);
    EXPECT_GE(max_fp, 4ull * 1024 * 1024); // spills the 2MB L5
}

TEST(Spec2000Test, FpWorkloadsAreFpHeavy)
{
    for (const std::string &name : specFpNames())
        EXPECT_GT(specWorkloadParams(name).fp_frac, 0.0) << name;
}

TEST(Spec2000Test, UnknownNameFatal)
{
    EXPECT_EXIT(specWorkloadParams("999.nope"),
                ::testing::ExitedWithCode(1), "unknown");
}

} // anonymous namespace
} // namespace mnm
