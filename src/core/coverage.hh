/**
 * @file
 * Coverage accounting (paper Section 4.2), and the one derivation of
 * every per-window number that is a sum over probes.
 *
 * "Coverage is the fraction of the misses identified by the technique
 * over all cache misses", where only bypassable misses count: an access
 * supplied by level n could have bypassed levels 2..n-1 (level-1 misses
 * are never predicted). Coverage is a property of the verdicts alone --
 * it does not depend on whether the MNM is placed serially or in
 * parallel.
 *
 * Nothing here counts accesses: countWindow() derives a window's cache
 * energy, coverage and decision matrix from the caches' own CacheStats
 * (DESIGN.md decision 32), for MemorySimulator and MemPort alike, so
 * the numbers agree by construction.
 */

#ifndef MNM_CORE_COVERAGE_HH
#define MNM_CORE_COVERAGE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "obs/confusion.hh"
#include "power/sram_model.hh"
#include "util/stats.hh"

namespace mnm
{

class MnmUnit;

/** Identified vs. missed bypass opportunities, per level. */
class CoverageTracker
{
  public:
    /** Level indices 0..32: every depth the 32-bit BypassMask allows. */
    static constexpr std::size_t max_levels = 33;

    /** Add @p identified bypassed and @p unidentified probed-and-missed
     *  lookups at @p level. */
    void add(std::uint32_t level, std::uint64_t identified,
             std::uint64_t unidentified);

    /** Misses the MNM identified (accesses actually bypassed). */
    std::uint64_t identified() const { return sum(identified_at_); }

    /** Misses that were probed in full (opportunity not taken). */
    std::uint64_t unidentified() const { return sum(unidentified_at_); }

    /** All bypassable misses seen. */
    std::uint64_t opportunities() const
    {
        return identified() + unidentified();
    }

    /** Paper's coverage metric in [0,1]. */
    double coverage() const
    {
        return ratio(static_cast<double>(identified()),
                     static_cast<double>(opportunities()));
    }

    /** Per-level identified/unidentified counts (index = level). */
    std::uint64_t identifiedAt(std::uint32_t level) const
    {
        return level < identified_at_.size() ? identified_at_[level] : 0;
    }
    std::uint64_t unidentifiedAt(std::uint32_t level) const
    {
        return level < unidentified_at_.size() ? unidentified_at_[level]
                                               : 0;
    }
    double coverageAt(std::uint32_t level) const;

    /** Fold another tracker's counts into this one. */
    void merge(const CoverageTracker &other);

    void reset();

  private:
    // The totals are sums of these, so a total and its per-level
    // breakdown cannot disagree. Sized to the deepest level added: a
    // sweep keeps many results, most of them for 5-level machines.
    std::vector<std::uint64_t> identified_at_;
    std::vector<std::uint64_t> unidentified_at_;

    static std::uint64_t sum(const std::vector<std::uint64_t> &counts);
};

/** Every cache's counters at one instant, in CacheId order: the start
 *  of a counting window. */
std::vector<CacheStats> cacheCounters(const CacheHierarchy &hierarchy);

/** A window's sums over probes, derived from the caches' counters. */
struct WindowCounts
{
    /** The cache events' energy; mnm_pj is left zero. */
    EnergyBreakdown energy;
    CoverageTracker coverage;
    DecisionMatrix decisions;
};

/**
 * What @p hierarchy's caches did since @p start (cacheCounters()): each
 * per-window sum over probes as a difference of the caches' counters,
 * per the table in DESIGN.md decision 32. @p power holds each cache's
 * energies in CacheId order; empty skips the energy. Coverage and
 * decisions count levels >= 2 (level-1 outcomes are never predicted);
 * the forbidden cells are @p mnm's cumulative violation counts. Without
 * an MNM nothing is predicted, and both stay empty.
 */
WindowCounts countWindow(const CacheHierarchy &hierarchy,
                         const MnmUnit *mnm,
                         const std::vector<CacheStats> &start,
                         const std::vector<PowerDelay> &power = {});

} // namespace mnm

#endif // MNM_CORE_COVERAGE_HH
