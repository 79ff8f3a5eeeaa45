/**
 * @file
 * Unit tests for src/util: bit helpers, the deterministic RNG, the
 * statistics primitives, the table formatter, and the profiler's fast
 * tick source.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/bits.hh"
#include "util/cpu.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace mnm
{
namespace
{

// ---------------------------------------------------------------- bits

TEST(ProfTickTest, FastTickIsMonotonicNonDecreasing)
{
    std::uint64_t last = profFastTick();
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t now = profFastTick();
        ASSERT_GE(now, last);
        last = now;
    }
}

TEST(ProfTickTest, FastTickAdvances)
{
    const std::uint64_t start = profFastTick();
    std::uint64_t now = start;
    // A bounded busy loop: any sane tick source (rdtsc, cntvct_el0, or
    // the steady_clock fallback) advances well within this many reads.
    for (int i = 0; i < 100000000 && now == start; ++i)
        now = profFastTick();
    EXPECT_GT(now, start);
}

TEST(ProfTickTest, TickRateIsPositiveAndStable)
{
    const double hz = profTickHz();
    EXPECT_GT(hz, 0.0);
    // Calibration happens once; repeated queries return the same rate.
    EXPECT_EQ(profTickHz(), hz);
}

TEST(BitsTest, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitsTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(~0ull), 63u);
}

TEST(BitsTest, ExactLog2)
{
    EXPECT_EQ(exactLog2(32), 5u);
    EXPECT_EQ(exactLog2(1ull << 33), 33u);
}

TEST(BitsTest, ExactLog2PanicsOnNonPower)
{
    EXPECT_DEATH(exactLog2(33), "exactLog2");
}

TEST(BitsTest, LowMask)
{
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(1), 1ull);
    EXPECT_EQ(lowMask(8), 0xffull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(BitsTest, BitSlice)
{
    EXPECT_EQ(bitSlice(0xabcd, 0, 4), 0xdull);
    EXPECT_EQ(bitSlice(0xabcd, 4, 4), 0xcull);
    EXPECT_EQ(bitSlice(0xabcd, 8, 8), 0xabull);
    EXPECT_EQ(bitSlice(0xff, 70, 4), 0ull); // beyond bit 63 reads zero
}

TEST(BitsTest, PopCount)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xff), 8u);
    EXPECT_EQ(popCount(~0ull), 64u);
}

TEST(BitsTest, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0ull);
    EXPECT_EQ(roundUp(1, 8), 8ull);
    EXPECT_EQ(roundUp(8, 8), 8ull);
    EXPECT_EQ(roundUp(9, 8), 16ull);
}

// ------------------------------------------------------------------ rng

TEST(RngTest, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all three values appear
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolProbability)
{
    Rng rng(11);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GeometricMeanApprox)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(6.0));
    EXPECT_NEAR(sum / n, 6.0, 0.5);
}

TEST(RngTest, GeometricZeroMean)
{
    Rng rng(13);
    EXPECT_EQ(rng.nextGeometric(0.0), 0u);
    EXPECT_EQ(rng.nextGeometric(-1.0), 0u);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SplitIndependent)
{
    Rng a(21);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatsTest, RunningStatMoments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-9);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, RunningStatEmpty)
{
    RunningStat s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, RunningStatReset)
{
    RunningStat s;
    s.add(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(StatsTest, HistogramBuckets)
{
    Histogram h(4, 1.0);
    h.add(0.5);
    h.add(1.5);
    h.add(1.7);
    h.add(3.9);
    h.add(10.0); // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(StatsTest, HistogramNegativeClamps)
{
    Histogram h(4, 1.0);
    h.add(-3.0);
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(StatsTest, HistogramPercentile)
{
    Histogram h(10, 1.0);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i % 10) + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 5.0, 1.0);
    EXPECT_NEAR(h.percentile(0.95), 9.5, 1.0);
}

TEST(StatsTest, HistogramPercentileEdges)
{
    Histogram empty(4, 1.0);
    EXPECT_EQ(empty.percentile(0.0), 0.0);
    EXPECT_EQ(empty.percentile(1.0), 0.0);

    Histogram h(8, 1.0);
    h.add(2.5);
    h.add(2.7);
    h.add(5.5);
    // fraction <= 0: lower edge of the first populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), 2.0);
    // fraction >= 1: upper edge of the last populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 6.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 6.0);
}

TEST(StatsTest, HistogramPercentileAllOverflow)
{
    Histogram h(4, 1.0);
    h.add(10.0);
    h.add(99.0);
    // Only overflow samples: every percentile reports the top boundary,
    // the tightest lower bound the histogram can prove.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(StatsTest, HistogramMerge)
{
    Histogram a(4, 1.0);
    Histogram b(4, 1.0);
    a.add(0.5);
    a.add(2.5);
    b.add(2.1);
    b.add(9.0); // overflow
    a.merge(b);
    EXPECT_EQ(a.samples(), 4u);
    EXPECT_EQ(a.bucket(0), 1u);
    EXPECT_EQ(a.bucket(2), 2u);
    EXPECT_EQ(a.overflow(), 1u);
    // b is untouched.
    EXPECT_EQ(b.samples(), 2u);
}

TEST(StatsTest, HistogramMergeShapeMismatchDies)
{
    Histogram a(4, 1.0);
    Histogram narrower(4, 0.5);
    Histogram shorter(2, 1.0);
    EXPECT_DEATH(a.merge(narrower), "shape mismatch");
    EXPECT_DEATH(a.merge(shorter), "shape mismatch");
}

TEST(StatsTest, HistogramReset)
{
    Histogram h(2, 1.0);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(0), 0u);
}

TEST(StatsTest, RatioHandlesZeroDenominator)
{
    EXPECT_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(5.0, 2.0), 2.5);
}

TEST(StatsTest, ArithmeticMean)
{
    EXPECT_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

// ---------------------------------------------------------------- table

TEST(TableTest, AlignedOutputContainsCells)
{
    Table t("demo");
    t.setHeader({"app", "value"});
    t.addRow("gzip", {1.25}, 2);
    t.addRow("mcf", {10.5}, 2);
    std::string out = t.toString();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("gzip"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("10.50"), std::string::npos);
}

TEST(TableTest, MeanRow)
{
    Table t("demo");
    t.setHeader({"app", "value"});
    t.addRow("a", {1.0});
    t.addRow("b", {3.0});
    t.addMeanRow();
    std::string out = t.toString();
    EXPECT_NE(out.find("Arith. Mean"), std::string::npos);
    EXPECT_NE(out.find("2.00"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 3u);
}

TEST(TableTest, MeanRowSkippedWhenNoNumericRows)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    t.addMeanRow();
    EXPECT_EQ(t.rowCount(), 0u);
}

TEST(TableTest, RowWidthMismatchPanics)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(TableTest, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.005, 2), "1.00");
    EXPECT_EQ(formatDouble(-2.5, 1), "-2.5");
    EXPECT_EQ(formatDouble(3.0, 0), "3");
}

} // anonymous namespace
} // namespace mnm
