/**
 * @file
 * Deterministic fault injection for MNM structures.
 *
 * The paper's whole value proposition rests on one invariant: a "miss"
 * verdict is never produced for a resident block. The filters maintain
 * that invariant through bookkeeping (counts, presence bits, tag
 * prefixes); a single flipped state bit -- a particle strike, an SRAM
 * defect, a bring-up bug -- can silently break it. This harness flips
 * chosen bits in live structures so tests can verify the system's
 * failure mode: corruption must either degrade safely (extra "maybe"
 * answers, lost coverage, never wrong data) or be caught by the
 * MnmUnit's oracle check and surface in the per-level violation
 * counters / the DecisionMatrix forbidden cell. What must never happen
 * is a silent unsound "miss".
 *
 * All injection is deterministic: targets are drawn from a seeded Rng
 * (util/random.hh), and every flip is self-inverse, so a test can
 * flip, observe, flip back, and assert the structure recovered.
 */

#ifndef MNM_CORE_FAULT_INJECT_HH
#define MNM_CORE_FAULT_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/mnm_unit.hh"
#include "util/random.hh"

namespace mnm
{

/**
 * How an MNM_FAIL_CELL-matched sweep cell dies: an in-band exception
 * ("throw", the default), or one of the process-fatal failures the
 * sweep's worker processes contain -- a real SIGSEGV/SIGABRT, a plain
 * exit, and a hang that only the supervisor's SIGKILL deadline ends.
 */
enum class CellFaultMode
{
    Throw, //!< throw std::runtime_error (reported over the pipe)
    Segv,  //!< raise(SIGSEGV): kills the executing process
    Abort, //!< std::abort(): kills the executing process
    Exit,  //!< _Exit(code): silent process exit, no unwinding
    Hang,  //!< sleep forever
};

/** Parsed MNM_FAIL_CELL value: which cells to kill, and how. */
struct CellFaultSpec
{
    /** Substring of the cell's "app · label" display name; empty =
     *  injection disabled. */
    std::string match;
    CellFaultMode mode = CellFaultMode::Throw;
    /** Exit status for CellFaultMode::Exit. */
    int exit_code = 0;

    bool enabled() const { return !match.empty(); }

    /** True when @p display_name names a cell this spec kills. */
    bool matches(const std::string &display_name) const
    {
        return enabled() &&
               display_name.find(match) != std::string::npos;
    }
};

/**
 * Parse an MNM_FAIL_CELL value: "<substring>" (throw, the original
 * behavior) or "<substring>:<mode>" with mode one of throw, segv,
 * abort, exit:<code> (0..255), hang. The split is at the first ':'
 * (no cell display name contains one), and anything after it that is
 * not a recognized mode is a fatal(), like every other malformed
 * MNM_* knob.
 */
CellFaultSpec parseCellFaultSpec(const char *env);

/**
 * Kill the current cell the way @p spec says. Throw returns control by
 * throwing; every other mode never returns (signal, exit, or hang).
 * @p display_name is quoted in the thrown message.
 */
void triggerCellFault(const CellFaultSpec &spec,
                      const std::string &display_name);

/** One injectable structure inside an MnmUnit. */
struct FaultSurface
{
    /** "rmnm", or "<cache name>/<filter name>" for per-cache filters. */
    std::string name;
    /** State bits this structure exposes to injection. */
    std::uint64_t bits = 0;
};

/** Record of one performed flip. */
struct FaultInjection
{
    std::size_t surface = 0; //!< index into faultSurfaces()
    std::string name;        //!< that surface's name
    std::uint64_t bit = 0;   //!< flipped bit within the surface
};

/** Flips bits in a live MnmUnit's structures. */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

    /** Enumerate @p unit's injectable structures, in a fixed order:
     *  the shared RMNM first (when present), then every per-cache
     *  filter by cache id. Surfaces with zero bits are omitted. */
    static std::vector<FaultSurface> faultSurfaces(const MnmUnit &unit);

    /**
     * Flip bit @p bit of surface @p surface (indices per
     * faultSurfaces()). Deterministic and self-inverse: flipping the
     * same bit again restores the original state exactly.
     */
    static void flip(MnmUnit &unit, std::size_t surface,
                     std::uint64_t bit);

    /**
     * Flip one uniformly chosen bit across all of @p unit's surfaces
     * (weighted by surface size) and return what was flipped. The
     * sequence of targets is a pure function of the constructor seed.
     */
    FaultInjection injectRandom(MnmUnit &unit);

  private:
    /** Visit every injectable structure in the fixed surface order;
     *  defined in fault_inject.cc (the only translation unit that
     *  instantiates it). */
    template <typename Visit>
    static void visitSurfaces(MnmUnit &unit, Visit &&visit);

    Rng rng_;
};

} // namespace mnm

#endif // MNM_CORE_FAULT_INJECT_HH
