/**
 * @file
 * Per-level MNM decision accounting: the confusion matrix of verdicts
 * ("miss" vs. "maybe") crossed with ground truth (the block was absent
 * vs. resident). Every headline metric of the paper is a derived
 * quantity of these cells -- coverage (Figures 10-14) is
 * predicted-miss/actual-miss over all actual misses -- so tracking the
 * raw cells makes coverage regressions and soundness near-misses
 * visible instead of folded away.
 *
 * The four cells per cache level:
 *  - predicted_miss_actual_miss: the MNM said "miss" and the block was
 *    absent; the probe was bypassed. The win the paper is about.
 *  - maybe_actual_miss: the MNM said "maybe" but the probe missed; a
 *    bypass opportunity not taken (the coverage denominator's gap).
 *  - maybe_actual_hit: the MNM said "maybe" and the probe hit; the
 *    mandatory cautious answer.
 *  - predicted_miss_actual_hit: the forbidden cell. A "miss" verdict
 *    for a resident block is a soundness violation (paper Section 3.6):
 *    acting on it would skip a hit and corrupt architectural state.
 *    The MnmUnit's oracle check counts and suppresses these; for sound
 *    configurations the cell must be zero, and the tier-1 tests assert
 *    it (see assertSound() and DESIGN.md).
 *
 * The three sound cells are differences of the caches' own counters
 * (bypasses, misses and hits at levels >= 2), filled in by
 * countWindow() (core/coverage.hh). An acted-upon forbidden decision
 * cannot even be represented: a bypassed cache performs no probe, so it
 * never counts a hit.
 */

#ifndef MNM_OBS_CONFUSION_HH
#define MNM_OBS_CONFUSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace mnm
{

/** Confusion matrix of one run's MNM decisions, per cache level. */
class DecisionMatrix
{
  public:
    /** Level indices 0..32: every depth the 32-bit BypassMask allows. */
    static constexpr std::size_t max_levels = 33;

    /** One level's decision counts. */
    struct Cells
    {
        std::uint64_t predicted_miss_actual_miss = 0;
        std::uint64_t maybe_actual_miss = 0;
        std::uint64_t maybe_actual_hit = 0;
        /** The forbidden cell: caught-and-suppressed unsound verdicts. */
        std::uint64_t predicted_miss_actual_hit = 0;

        std::uint64_t
        decisions() const
        {
            return predicted_miss_actual_miss + maybe_actual_miss +
                   maybe_actual_hit + predicted_miss_actual_hit;
        }

        /** Actual misses = the coverage denominator at this level. */
        std::uint64_t
        actualMisses() const
        {
            return predicted_miss_actual_miss + maybe_actual_miss;
        }

        Cells &
        operator+=(const Cells &o)
        {
            predicted_miss_actual_miss += o.predicted_miss_actual_miss;
            maybe_actual_miss += o.maybe_actual_miss;
            maybe_actual_hit += o.maybe_actual_hit;
            predicted_miss_actual_hit += o.predicted_miss_actual_hit;
            return *this;
        }
    };

    /** Add @p cells to level @p level's cells, cell by cell. */
    void add(std::uint32_t level, const Cells &cells);

    /** Overwrite the forbidden-cell count for @p level (cumulative
     *  totals from MnmUnit::violationsAtLevel). */
    void setForbidden(std::uint32_t level, std::uint64_t count);

    const Cells &at(std::uint32_t level) const;
    Cells totals() const;

    /** Forbidden-cell sum across levels (0 for sound configs). */
    std::uint64_t forbidden() const;

    /** Derived coverage, identical to CoverageTracker's definition. */
    double coverage() const;
    double coverageAt(std::uint32_t level) const;

    /** Cell-wise sum for cross-cell aggregation. */
    void merge(const DecisionMatrix &other);

    void reset();

    /**
     * Fold the non-empty levels into @p registry as counters named
     * "<prefix>.l<level>.<cell>".
     */
    void registerInto(StatsRegistry &registry,
                      const std::string &prefix) const;

    /** MNM_ASSERT that the forbidden cell is zero at every level. */
    void assertSound(const char *context) const;

  private:
    /** Sized up to the deepest level set: a sweep keeps many results,
     *  most of them for 5-level machines. */
    std::vector<Cells> levels_;

    /** levels_[level], growing levels_ to reach it. */
    Cells &grow(std::uint32_t level);
};

} // namespace mnm

#endif // MNM_OBS_CONFUSION_HH
