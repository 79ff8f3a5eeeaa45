/**
 * @file
 * A single set-associative cache structure.
 *
 * This models the *contents* and *replacement behaviour* of one cache
 * (tag array semantics); latency and energy are attributed by the layers
 * above from the cache's configuration. The model is deliberately
 * data-free: only block presence matters for miss determination.
 */

#ifndef MNM_CACHE_CACHE_HH
#define MNM_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace mnm
{

/** Replacement policy selection for a cache. */
enum class ReplPolicy
{
    Lru,
    Fifo,
    Random,
    /** Tree pseudo-LRU (requires power-of-two associativity): the
     *  policy real set-associative caches of the paper's era shipped
     *  with; cheaper state, near-LRU behaviour. */
    TreePlru,
};

/** Which request stream(s) a cache serves. */
enum class CacheSide
{
    Instr,
    Data,
    Unified,
};

/** Static configuration of one cache structure. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t capacity_bytes = 4 * 1024;
    /** Associativity; 0 selects fully associative. */
    std::uint32_t associativity = 1;
    std::uint32_t block_bytes = 32;
    /** Time to return data on a hit. */
    Cycles hit_latency = 1;
    /**
     * Time to determine a miss. 0 (the default) means "same as
     * hit_latency": the tag check takes the full access.
     */
    Cycles miss_latency = 0;
    ReplPolicy policy = ReplPolicy::Lru;

    Cycles missLatency() const
    {
        return miss_latency ? miss_latency : hit_latency;
    }
};

/** Event counts for one cache structure: the only count of what
 *  happened to it. Per-window energy, coverage and decision counts are
 *  differences of these (countWindow(), core/coverage.hh). */
struct CacheStats
{
    Counter accesses;  //!< probes actually performed (not bypassed)
    Counter hits;
    /** Hits that landed in the set's most-recently-used way (what a
     *  way predictor would have guessed; tracked under LRU policy). */
    Counter mru_hits;
    Counter misses;
    Counter bypasses;  //!< probes skipped on MNM "miss" verdicts
    Counter fills;     //!< fill() calls that inserted the block
    Counter refills;   //!< fill() calls that found it already resident
    Counter evictions;
    Counter writebacks;        //!< evictions of dirty blocks
    Counter writeback_probes;  //!< incoming writebacks checked here
    Counter writeback_absorbs; //!< ... that found the block and dirtied it

    double hitRate() const
    {
        return ratio(static_cast<double>(hits.value()),
                     static_cast<double>(accesses.value()));
    }
};

/**
 * One set-associative cache. Presence-only (no payload data); dirty bits
 * are tracked so writeback traffic can be counted.
 */
class Cache
{
  public:
    /**
     * @param params geometry and policy
     * @param seed   seed for the Random replacement policy stream
     */
    explicit Cache(const CacheParams &params, std::uint64_t seed = 1);

    /** Block address of a byte address under this cache's block size. */
    BlockAddr blockAddr(Addr addr) const { return addr >> block_bits_; }

    /** First byte address covered by @p block. */
    Addr byteAddr(BlockAddr block) const
    {
        return block << block_bits_;
    }

    /**
     * Probe for @p block. On a hit the replacement state is updated
     * (and the dirty bit set when @p is_write); stats are recorded.
     * No allocation happens on a miss: fills are separate (allocate on
     * fill path, as the hierarchy orchestrates).
     *
     * @return true on hit.
     */
    bool
    probe(BlockAddr block, bool is_write = false)
    {
        // Header-inline: the simulators call this once per request and
        // the build has no cross-TU inlining, so an out-of-line body
        // would put a call boundary on the single hottest path.
        ++stats_.accesses;
        std::size_t idx = findWay(block);
        if (idx == no_way) {
            ++stats_.misses;
            return false;
        }
        ++stats_.hits;
        if (params_.policy == ReplPolicy::Lru) {
            // MRU-way bookkeeping for the way-prediction comparison:
            // did the hit land in the most recently touched way of its
            // set? mru_way_ tracks the max-stamp valid way exactly, so
            // this is one compare instead of an O(ways) stamp scan per
            // hit.
            std::uint32_t set = setIndex(block);
            std::uint32_t way = static_cast<std::uint32_t>(
                idx - static_cast<std::size_t>(set) * num_ways_);
            if (mru_way_[set] == way)
                ++stats_.mru_hits;
            stamps_[idx] = ++tick_;
            mruTouch(set, way);
        } else if (params_.policy == ReplPolicy::TreePlru) {
            std::uint32_t set = setIndex(block);
            std::uint32_t way = static_cast<std::uint32_t>(
                idx - static_cast<std::size_t>(set) * num_ways_);
            plruTouch(set, way);
        }
        if (is_write)
            state_[idx] |= line_dirty;
        return true;
    }

    /** Outcome of a fill attempt. */
    struct FillOutcome
    {
        /** False when the block was already resident (refill touch). */
        bool inserted = false;
        /** The evicted victim held modified data (needs writeback). */
        bool evicted_dirty = false;
        /** The victim evicted to make room, if any. */
        std::optional<BlockAddr> evicted;
    };

    /**
     * Allocate @p block, evicting a victim if the set is full. Filling
     * an already-resident block is a replacement-state touch, not an
     * insertion (inserted == false, no eviction).
     *
     * @p known_absent skips the residency re-check when the caller has
     * just probed this cache and missed (the hierarchy's fill path):
     * the walk proved absence, so re-scanning the set is pure waste.
     * Only pass true when absence is certain -- a wrong claim
     * duplicates the block.
     */
    FillOutcome fill(BlockAddr block, bool dirty = false,
                     bool known_absent = false);

    /** Presence test with no side effects (for oracles and checkers).
     *  Inline: the perfect-MNM oracle and the oracle soundness guard
     *  call this once per planned level per request. */
    bool contains(BlockAddr block) const
    {
        return findWay(block) != no_way;
    }

    /**
     * An upper level wrote back @p block. If resident here the copy is
     * dirtied (absorbed); otherwise the writeback must travel further
     * down. Replacement state is not touched (writebacks are not
     * demand reuse).
     *
     * @return true when absorbed.
     */
    bool absorbWriteback(BlockAddr block);

    /** Record a bypassed probe (MNM said "miss"; no tag check done). */
    void noteBypass() { ++stats_.bypasses; }

    /** Outcome of an invalidation. */
    struct InvalidateOutcome
    {
        bool was_present = false;
        bool was_dirty = false;
    };

    /** Drop @p block if resident (back-invalidation support). */
    InvalidateOutcome invalidate(BlockAddr block);

    /** Invalidate every block. @return number of blocks dropped. */
    std::uint64_t flush();

    /** All resident block addresses (test/diagnostic aid; slow). */
    std::vector<BlockAddr> residentBlocks() const;

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }
    std::uint32_t numSets() const { return num_sets_; }
    std::uint32_t numWays() const { return num_ways_; }
    unsigned blockBits() const { return block_bits_; }
    std::uint64_t blocksResident() const { return resident_; }

  private:
    /** state_ bits. */
    static constexpr std::uint8_t line_valid = 1;
    static constexpr std::uint8_t line_dirty = 2;

    std::uint32_t setIndex(BlockAddr block) const
    {
        return static_cast<std::uint32_t>(block & (num_sets_ - 1));
    }

    /** findWay(): no way holds the block. */
    static constexpr std::size_t no_way = ~std::size_t{0};

    /**
     * Flat line index of @p block, or no_way. The line arrays are
     * structure-of-arrays (tags/stamps/state split) so this scan
     * streams 8 bytes per way instead of a whole record; the state
     * byte is consulted only on a tag match, which keeps the common
     * miss scan single-stream. A stale tag on an invalidated way can
     * match first -- its state check fails and the scan continues to
     * the live copy.
     */
    std::size_t findWay(BlockAddr block) const
    {
        std::uint32_t set = setIndex(block);
        std::size_t base = static_cast<std::size_t>(set) * num_ways_;
        const BlockAddr *tags = tags_.data() + base;
        const std::uint8_t *state = state_.data() + base;
        for (std::uint32_t w = 0; w < num_ways_; ++w) {
            if (tags[w] == block && (state[w] & line_valid))
                return base + w;
        }
        return no_way;
    }
    std::uint32_t victimWay(std::uint32_t set);

    /** Sentinel for mru_way_: the set has no valid lines. */
    static constexpr std::uint32_t no_mru = ~std::uint32_t{0};

    /** LRU only: stamp @p way as the set's most recently used. */
    void
    mruTouch(std::uint32_t set, std::uint32_t way)
    {
        mru_way_[set] = way;
    }

    /** LRU only: re-derive the MRU way after invalidating it. */
    void recomputeMru(std::uint32_t set);

    /** Tree-PLRU helpers (valid when policy == TreePlru). */
    void plruTouch(std::uint32_t set, std::uint32_t way);
    std::uint32_t plruVictim(std::uint32_t set) const;

    CacheParams params_;
    std::uint32_t num_sets_;
    std::uint32_t num_ways_;
    unsigned block_bits_;
    /** Line storage, num_sets_ x num_ways_ row-major, split SoA so the
     *  tag scan, the LRU stamp scan, and the flush walk each touch
     *  only the bytes they need. */
    std::vector<BlockAddr> tags_;
    std::vector<std::uint64_t> stamps_; //!< LRU: last touch; FIFO: fill
    std::vector<std::uint8_t> state_;   //!< line_valid | line_dirty
    /** Tree-PLRU direction bits, one word per set (node i's bit). */
    std::vector<std::uint64_t> plru_bits_;
    /** LRU policy only: most-recently-touched valid way per set (or
     *  no_mru), kept exact at every stamp write so the mru_hits stat
     *  is O(1) per hit instead of an O(ways) stamp scan. Stamps are
     *  unique and monotone, so "last touched" == "max stamp". */
    std::vector<std::uint32_t> mru_way_;
    std::uint64_t tick_ = 0;  //!< replacement timestamp source
    std::uint64_t resident_ = 0;
    CacheStats stats_;
    Rng rng_;
};

} // namespace mnm

#endif // MNM_CACHE_CACHE_HH
