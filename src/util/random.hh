/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (workload generators, random
 * replacement, property tests) draws from an explicitly-seeded Rng so that
 * runs are exactly reproducible. The generator is xoshiro256**, which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef MNM_UTIL_RANDOM_HH
#define MNM_UTIL_RANDOM_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace mnm
{

/**
 * Precomputed inverse-CDF table for Rng::nextGeometric at one mean.
 *
 * The geometric draw used to evaluate log1p(-u) / log1p(-p) per call --
 * a libm call plus an FP divide on the batch pipeline's hottest edge
 * (every synthesized instruction draws one or two dependence
 * distances). Since u is always (next() >> 11) * 2^-53, the draw is a
 * pure function of the 53-bit integer m = next() >> 11, and that
 * function is a monotone step function: tabulating the step boundaries
 * once per mean turns every draw into a guide-table lookup.
 *
 * The boundaries are found by binary search over the ORIGINAL
 * floating-point formula, so the table reproduces it bit-for-bit --
 * a property random_test checks against the formula directly. Means
 * whose tables would be unreasonably large (beyond any mean the
 * workloads use) fall back to the formula.
 */
class GeometricTable
{
  public:
    /** Shared immortal table for @p mean (> 0), built on first use. */
    static const GeometricTable *forMean(double mean);

    /** The draw for raw 53-bit uniform @p m; bit-identical to the
     *  log1p formula this table was built from. */
    std::uint64_t
    sample(std::uint64_t m) const
    {
        if (!tabulated_)
            return sampleFormula(m);
        // lo and hi are packed into one word so the common single-step
        // bucket resolves with one load.
        const std::uint64_t g =
            guide_[static_cast<std::uint32_t>(m >> guide_shift)];
        const std::uint32_t lo = static_cast<std::uint32_t>(g);
        const std::uint32_t hi = static_cast<std::uint32_t>(g >> 32);
        if (lo == hi)
            return lo;
        const std::uint64_t *t = thresholds_.data();
        return static_cast<std::uint64_t>(
            std::upper_bound(t + lo, t + hi, m) - t);
    }

    /** The original formula (the table's reference semantics). */
    std::uint64_t sampleFormula(std::uint64_t m) const;

  private:
    explicit GeometricTable(double mean);

    static constexpr unsigned guide_bits = 12;
    static constexpr unsigned guide_shift = 53 - guide_bits;

    double log1p_mp_ = 0.0; //!< log1p(-1/(mean+1))
    bool tabulated_ = false;
    /** thresholds_[j]: smallest m whose draw exceeds j. */
    std::vector<std::uint64_t> thresholds_;
    /** Per-bucket draw range over the top guide_bits of m:
     *  lo in the low word, hi in the high word. */
    std::vector<std::uint64_t> guide_;
};

/** A deterministic xoshiro256** pseudo-random generator.
 *
 *  The draw functions are inline: workload generation sits on the
 *  simulator's hot path and draws several values per synthesized
 *  instruction, so out-of-line calls here are measurable against the
 *  whole kernel. Inlining changes no arithmetic -- streams stay exactly
 *  reproducible.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound must be nonzero). */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        MNM_ASSERT(bound != 0, "nextBelow(0)");
        // Lemire's nearly-divisionless bounded draw; the slight modulo
        // bias of the simple fallback is irrelevant at 64-bit width.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        MNM_ASSERT(lo <= hi, "nextRange with lo > hi");
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 high bits -> [0,1) double.
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Integer threshold t with (next() >> 11) < t ⟺ nextBool(p),
     * for hoisting the int-to-double conversion and double compare out
     * of per-draw hot loops. nextDouble() is m * 2^-53 with m < 2^53
     * exact, so the real comparison m * 2^-53 < p is m < p * 2^53,
     * i.e. m < ceil(p * 2^53) over the integers (exact: scaling by a
     * power of two loses no mantissa bits).
     */
    static std::uint64_t boolThreshold(double p)
    {
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(
            std::ceil(p * 9007199254740992.0));
    }

    /** The draw half of boolThreshold: same stream as nextBool(p). */
    bool nextBoolFast(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Draw from a (clamped) geometric distribution with mean ~@p mean;
     * a mean <= 0 yields 0 and draws nothing. Evaluated through the
     * shared GeometricTable for the mean, which reproduces the
     * inverse-CDF formula bit-for-bit without its per-draw log1p. The
     * lookup takes forMean()'s lock, so hot callers bind their tables
     * once and sample them directly (SyntheticWorkload does).
     */
    std::uint64_t nextGeometric(double mean)
    {
        if (mean <= 0.0)
            return 0;
        std::uint64_t m = next() >> 11;
        return GeometricTable::forMean(mean)->sample(m);
    }

    /** Standard-normal variate (Box-Muller). */
    double nextGaussian();

    /** Split off an independent stream (seeded from this one). */
    Rng split();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace mnm

#endif // MNM_UTIL_RANDOM_HH
