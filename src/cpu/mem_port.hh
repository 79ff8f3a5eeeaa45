/**
 * @file
 * The timing cores' memory port: every fetch-line and data access of
 * OooCore and CycleOooCore goes through MemPort::access(), which asks
 * the MNM for its verdict, walks the cache hierarchy, applies the
 * placement's costs and records coverage.
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
        const Side &side =
            type == AccessType::InstFetch ? fetch_ : data_;
        if (side.guarded)
            return walk(type, addr, false);
        if (side.l1->probe(side.l1->blockAddr(addr),
                           type == AccessType::Store)) {
            if (mnm_)
                mnm_->noteL1Hit();
            return side.hit_latency;
        }
        return walk(type, addr, true);
    }

    /** Coverage accumulated over every access (when an MNM is set). */
    const CoverageTracker &coverage() const { return coverage_; }

  private:
    /** An access type's level-1 cache, resolved at construction. */
    struct Side
    {
        Cache *l1;
        Cycles hit_latency;
        /** The type's verdict plan has an oracle guard. */
        bool guarded;
    };

    Side side(AccessType type) const;

    /** Computes the verdict and walks the hierarchy: from level 2 when
     *  @p l1_missed (access() probed level 1), else from level 1. */
    Cycles walk(AccessType type, Addr addr, bool l1_missed);

    CacheHierarchy &hierarchy_;
    MnmUnit *mnm_;
    Side fetch_;
    Side data_;
    CoverageTracker coverage_;
};

} // namespace mnm

#endif // MNM_CPU_MEM_PORT_HH
