/**
 * @file
 * The memory port: the one rule that serves every access of the timing
 * cores (OooCore, CycleOooCore) and of MemorySimulator's production
 * loop. It asks the MNM for its verdict and walks the cache hierarchy;
 * each caller accounts the outcome itself. access() adds the timing
 * cores' accounting: the placement's costs. What the accesses did to
 * the caches is counted by the caches themselves; coverage() derives
 * the port's coverage from those counters (core/coverage.hh).
 *
 * Guard-free verdict plans (every sound spec, and no MNM) run L1
 * first: the level-1 cache is probed before any verdict exists. A hit
 * costs the MNM only noteL1Hit(); only a miss computes its verdict and
 * descends through accessBelowL1(). Guarded plans (the unsound
 * PaperReset ablations, oracle_check) compute the verdict first,
 * because their guards count violations even on L1 hits. DESIGN.md
 * decision 27 gives the argument that both orders produce the same
 * results.
 */

#ifndef MNM_CPU_MEM_PORT_HH
#define MNM_CPU_MEM_PORT_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "core/coverage.hh"
#include "core/mnm_unit.hh"
#include "util/types.hh"

namespace mnm
{

class MemPort
{
  public:
    /** @p hierarchy must outlive the port; @p mnm may be null. */
    MemPort(CacheHierarchy &hierarchy, MnmUnit *mnm);

    /** One access; returns its latency, the MNM's added delay
     *  included. The L1-hit path stays here in the header: the build
     *  does no cross-unit inlining, and most accesses take it. */
    Cycles
    access(AccessType type, Addr addr)
    {
        if (l1Hit(type, addr))
            return side(type).hit_latency;
        return missLatency(type, addr);
    }

    /**
     * The L1-first half of the rule. Under a guard-free plan, probe
     * level 1; on a hit, tell the MNM (noteL1Hit()) and return true:
     * the access is complete, and only its L1-hit accounting is left
     * to the caller. Under a guarded plan, probe nothing and return
     * false.
     */
    bool
    l1Hit(AccessType type, Addr addr)
    {
        const Side &s = side(type);
        if (s.guarded ||
            !s.l1->probe(s.l1->blockAddr(addr), type == AccessType::Store))
            return false;
        if (mnm_)
            mnm_->noteL1Hit();
        return true;
    }

    /**
     * The rest of an access l1Hit() returned false for: compute the
     * verdict, then walk the hierarchy -- from level 2 when l1Hit()
     * probed level 1 and saw a miss, from level 1 under a guarded
     * plan. The with_prof instantiation brackets the verdict in a
     * Verdict phase scope; the timing cores use the scope-free one.
     */
    template <bool with_prof = false>
    AccessResult walk(AccessType type, Addr addr);

    /** Coverage of every access since the port was built (empty
     *  without an MNM), derived from the caches' counters. */
    CoverageTracker
    coverage() const
    {
        return countWindow(hierarchy_, mnm_, start_).coverage;
    }

  private:
    /** An access type's level-1 cache, resolved at construction. */
    struct Side
    {
        Cache *l1;
        Cycles hit_latency;
        /** The type's verdict plan has an oracle guard. */
        bool guarded;
    };

    Side makeSide(AccessType type) const;

    const Side &
    side(AccessType type) const
    {
        return type == AccessType::InstFetch ? fetch_ : data_;
    }

    /** walk() plus the timing cores' accounting: the latency with the
     *  MNM's added delay. */
    Cycles missLatency(AccessType type, Addr addr);

    CacheHierarchy &hierarchy_;
    MnmUnit *mnm_;
    Side fetch_;
    Side data_;
    /** The caches' counters when the port was built. */
    std::vector<CacheStats> start_;
};

} // namespace mnm

#endif // MNM_CPU_MEM_PORT_HH
