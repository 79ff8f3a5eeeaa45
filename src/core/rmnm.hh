/**
 * @file
 * Replacements MNM (paper Section 3.1).
 *
 * A single small set-associative "RMNM cache" shared by all tracked
 * (non-L1) cache structures. Entries are indexed at the L2 cache's block
 * granularity; each entry holds one bit per tracked cache. A set bit for
 * cache c means "this block was replaced from c and has not been placed
 * back": a definite miss. Replacements from caches with larger blocks
 * insert (block_large / block_L2) entries, and placements clear the bit
 * in every covered entry (paper Table 1 scenario).
 *
 * Cold misses are invisible to the RMNM by construction, and evicting an
 * RMNM entry merely loses coverage -- both safe with respect to the
 * soundness invariant.
 */

#ifndef MNM_CORE_RMNM_HH
#define MNM_CORE_RMNM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "power/sram_model.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace mnm
{

/** Configuration: RMNM_<entries>_<assoc> in the paper's labels. */
struct RmnmSpec
{
    std::uint32_t entries = 512;
    std::uint32_t associativity = 2;
};

/** The shared replacement-tracking structure. */
class Rmnm
{
  public:
    /**
     * @param spec         size/associativity
     * @param num_tracked  number of tracked cache structures (<= 32)
     * @param granule_bits log2 of the tracking granule (the L2 block
     *                     size, paper Section 3.1)
     */
    Rmnm(const RmnmSpec &spec, std::uint32_t num_tracked,
         unsigned granule_bits);

    /** Definite miss for tracked cache @p tracked at byte @p addr?
     *  Inline: this sits on the per-request verdict hot path for every
     *  placement, ahead of the per-cache filters. */
    bool definitelyMiss(std::uint32_t tracked, Addr addr) const
    {
        return (missBits(addr) >> tracked) & 1u;
    }

    /** The whole miss-bit vector for the granule containing @p addr
     *  (zero when no entry covers it). One lookup answers
     *  definitelyMiss for every tracked cache at once; the verdict plan
     *  walks several caches against the same address, so it hoists this
     *  out of its per-cache loop. */
    std::uint32_t missBits(Addr addr) const
    {
        const Entry *entry = find(granuleOf(addr));
        return entry ? entry->miss_bits : 0;
    }

    /**
     * A block of 2^@p block_bits bytes was placed into cache @p tracked.
     * Clears the miss bit in every covered entry. Header-inline like
     * onReplacement(): both sit on the update-feed drain path, called
     * once per tracked-cache fill/eviction from another TU.
     */
    void
    onPlacement(std::uint32_t tracked, Addr addr, unsigned block_bits)
    {
        std::uint64_t span = spanOf(block_bits);
        std::uint64_t first = granuleOf(addr) & ~(span - 1);
        for (std::uint64_t g = first; g < first + span; ++g) {
            Entry *entry = find(g);
            if (!entry)
                continue;
            entry->miss_bits &= ~(1u << tracked);
            if (entry->miss_bits == 0) {
                // An all-clear entry carries no information; free the
                // slot.
                entry->stamp = 0;
                --in_use_;
            }
        }
    }

    /**
     * A block was replaced from cache @p tracked. Sets the miss bit in
     * every covered entry, allocating entries (and evicting victims) as
     * needed.
     */
    void
    onReplacement(std::uint32_t tracked, Addr addr, unsigned block_bits)
    {
        std::uint64_t span = spanOf(block_bits);
        std::uint64_t first = granuleOf(addr) & ~(span - 1);
        for (std::uint64_t g = first; g < first + span; ++g) {
            // One fused pass over the set finds a live match and tracks
            // the allocation slot at once. The slot choice is identical
            // to an invalid-first-then-LRU pair of scans: an invalid
            // entry's stamp is 0, below every live stamp (ticks start
            // at 1), and the strict < keeps the first minimum, so
            // "first invalid way, else LRU victim" falls out of a
            // single min-stamp scan.
            const std::uint64_t tag = tagOf(g);
            std::uint32_t set = setOf(g);
            Entry *base =
                &entries_[static_cast<std::size_t>(set) * num_ways_];
            Entry *match = nullptr;
            Entry *slot = base;
            for (std::uint32_t w = 0; w < num_ways_; ++w) {
                if (base[w].stamp != 0 && base[w].tag == tag) {
                    match = &base[w];
                    break;
                }
                if (base[w].stamp < slot->stamp)
                    slot = &base[w];
            }
            if (match) {
                match->miss_bits |= 1u << tracked;
                match->stamp = ++tick_;
                continue;
            }
            // Allocate: the victim loses whatever miss information it
            // held -- safe, just less coverage. A tag that does not fit
            // the 32-bit field could alias another granule and emit an
            // unsound verdict; no workload's address space comes near
            // 2^(32 + set + granule bits), so fail loudly rather than
            // widen the entry.
            MNM_ASSERT(tag <= 0xffffffffull,
                       "RMNM granule tag exceeds 32 bits");
            if (slot->stamp == 0)
                ++in_use_;
            slot->tag = static_cast<std::uint32_t>(tag);
            slot->miss_bits = 1u << tracked;
            slot->stamp = ++tick_;
        }
    }

    /** Drop all entries. */
    void reset();

    std::string name() const;
    std::uint64_t storageBits() const;
    PowerDelay power(const SramModel &sram) const;

    const RmnmSpec &spec() const { return spec_; }
    std::uint64_t entriesInUse() const { return in_use_; }

    /** log2 of the tracking granule (the MnmUnit's verdict memo keys
     *  addresses at the coarsest granule every structure shares). */
    unsigned granuleBits() const { return granule_bits_; }

    /** Fault surface (core/fault_inject.hh): one miss bit per tracked
     *  cache per entry. Flips on invalid entries have no behavioral
     *  effect (lookups require valid), mirroring a strike on a
     *  deallocated SRAM row. */
    std::uint64_t faultBitCount() const
    {
        return static_cast<std::uint64_t>(entries_.size()) *
               num_tracked_;
    }

    /** Flip one miss bit; self-inverse, testing only. */
    void flipFaultBit(std::uint64_t bit)
    {
        entries_[bit / num_tracked_].miss_bits ^=
            std::uint32_t{1}
            << static_cast<std::uint32_t>(bit % num_tracked_);
    }

  private:
    /** 16 bytes, so the common 4-way set occupies exactly one cache
     *  line (the row is randomly indexed on every probe and update;
     *  the old 24-byte entry made each set span two lines). The tag is
     *  the granule's bits above the set index -- tagFits() is asserted
     *  at insert, so a probe whose tag exceeds 32 bits simply never
     *  matches -- and stamp == 0 encodes "invalid" (ticks start at 1). */
    struct Entry
    {
        std::uint64_t stamp = 0; //!< LRU tick; 0 = invalid
        std::uint32_t tag = 0;   //!< granule >> set_bits_
        std::uint32_t miss_bits = 0;
    };

    std::uint64_t granuleOf(Addr addr) const
    {
        return addr >> granule_bits_;
    }

    std::uint32_t setOf(std::uint64_t granule) const
    {
        return static_cast<std::uint32_t>(granule & (num_sets_ - 1));
    }

    std::uint64_t tagOf(std::uint64_t granule) const
    {
        return granule >> set_bits_;
    }

    Entry *find(std::uint64_t granule)
    {
        std::uint32_t set = setOf(granule);
        const std::uint64_t tag = tagOf(granule);
        Entry *base =
            &entries_[static_cast<std::size_t>(set) * num_ways_];
        for (std::uint32_t w = 0; w < num_ways_; ++w) {
            if (base[w].stamp != 0 && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }
    const Entry *find(std::uint64_t granule) const
    {
        return const_cast<Rmnm *>(this)->find(granule);
    }

    /** Granule span covered by a block of 2^@p block_bits bytes. */
    std::uint64_t
    spanOf(unsigned block_bits) const
    {
        MNM_ASSERT(block_bits >= granule_bits_,
                   "tracked cache block smaller than the RMNM granule");
        return std::uint64_t{1} << (block_bits - granule_bits_);
    }

    RmnmSpec spec_;
    std::uint32_t num_tracked_;
    unsigned granule_bits_;
    std::uint32_t num_sets_;
    unsigned set_bits_ = 0; //!< log2(num_sets_)
    std::uint32_t num_ways_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    std::uint64_t in_use_ = 0;
};

} // namespace mnm

#endif // MNM_CORE_RMNM_HH
