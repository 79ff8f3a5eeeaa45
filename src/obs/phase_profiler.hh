/**
 * @file
 * Scoped per-phase attribution for the simulator hot path.
 *
 * A cell's CPU time says that a run got slower, not *where*. This
 * layer answers that: PhaseScope objects bracket the stages of
 * MemorySimulator::run (batch generation, L1-peek, SoA verdict kernel,
 * update-feed walks, cold accounting) and the profiler accumulates
 * exclusive (self) time per phase -- a nested scope's time is charged
 * to the inner phase only, so "verdict" and "update_feed" are directly
 * comparable even though both run under the hierarchy walk.
 *
 * Design constraints, in order:
 *
 *  1. Free when off. MNM_PROF unset/off leaves every PhaseScope as one
 *     relaxed atomic load and a predictable branch; stdout stays
 *     byte-identical (profiling output only ever goes to manifests or
 *     stderr).
 *  2. No allocation or atomics on the hot path when on. All state is
 *     thread_local and fixed-size: an enum-indexed accumulator array
 *     and a 16-deep phase stack. The only synchronization is a mutex
 *     taken when a profile is merged into the global aggregate (once
 *     per flushed thread or delivered sweep cell, never per scope).
 *
 * The knob: MNM_PROF unset, empty or "off" leaves the profiler off;
 * "time" arms it, charging each phase the fast-tick source's ticks
 * (util/cpu.hh profFastTick: rdtsc / CNTVCT / steady_clock). Anything
 * else is fatal (the repo's env-knob convention: a typo must not
 * silently change what a bench measured).
 *
 * Attribution flow: a sweep worker process takes its thread profile
 * (takeThreadProfile) after each cell and ships it home in the cell's
 * result frame; the supervisor merges it into the global aggregate
 * (mergeGlobalProf). Threads that profile in-process hand theirs over
 * with flushThreadProf() instead. The manifest writer calls
 * foldProfGlobal() which flushes the calling thread and folds the
 * global aggregate into metrics.prof.* -- per phase, per sweep cell and
 * per worker process.
 */

#ifndef MNM_OBS_PHASE_PROFILER_HH
#define MNM_OBS_PHASE_PROFILER_HH

#include <cstdint>
#include <string>
#include <type_traits>

namespace mnm
{

class StatsRegistry;

/** The instrumented stages. Values are stable manifest/export names --
 *  append only. */
enum class Phase : std::uint8_t
{
    Run,        //!< MemorySimulator::run root (self = loop overhead)
    BatchGen,   //!< workload batch generation
    L1Peek,     //!< production request loop (self = L1 probes, L1-hit
                //!< accounting, control)
    Verdict,    //!< MNM verdict kernel (computeBypass)
    HierWalk,   //!< hierarchy walk + accounting per access (on the
                //!< production loop, only for accesses L1 did not serve)
    UpdateFeed, //!< MnmUnit on{Placement,Replacement,Flush} walks
    Cold,       //!< post-run cold accounting (energy fold, drains)
    FeedDrain,  //!< batched event-ring drain through update kernels
    GenOverlap, //!< MNM_OVERLAP: wait/handoff for producer-built batches
};

inline constexpr int num_phases = 9;

/** Stable manifest segment for @p phase ("verdict", "update_feed", ...). */
const char *phaseName(Phase phase);

/** One phase's accumulated exclusive-time counters. */
struct PhaseCounters
{
    std::uint64_t ticks = 0;       //!< profFastTick units (self time)
    std::uint64_t transitions = 0; //!< scope enters charged here
};

/** A full per-phase profile (one thread's, one cell's, or the global
 *  aggregate). */
struct PhaseTotals
{
    PhaseCounters phase[num_phases];

    /** Sum of ticks across phases (the share denominator). */
    std::uint64_t totalTicks() const;
};

/** Element-wise @p into += @p from. */
void addPhaseTotals(PhaseTotals &into, const PhaseTotals &from);

/** Element-wise after - before (fields saturate at 0 rather than
 *  wrapping, so a snapshot pair straddling a flush degrades benignly). */
PhaseTotals phaseTotalsDelta(const PhaseTotals &before,
                             const PhaseTotals &after);

/** Parse one MNM_PROF value: true for "time", false for null, empty
 *  or "off"; fatal on anything else. */
bool parseProfMode(const char *value);

/** Is the profiler on? One relaxed atomic load; this is the whole cost
 *  of a PhaseScope when profiling is off. */
bool profActive();

/**
 * RAII phase bracket. Constructing settles the elapsed interval into
 * the previously-open phase and starts charging @p p; destruction does
 * the reverse. Nesting and reentrancy (a phase inside itself) are fine:
 * attribution always follows the innermost open scope.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase p)
    {
        if (profActive()) [[unlikely]]
            enter(p);
    }

    ~PhaseScope()
    {
        if (entered_) [[unlikely]]
            leave();
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    void enter(Phase p);
    void leave();
    bool entered_ = false;
};

/** The profiling-off stand-in for PhaseScope: compiles to nothing, so
 *  the with_prof=false instantiation of a hot path carries no profiler
 *  code at all -- not even the profActive() load. */
struct NoPhaseScope
{
    explicit NoPhaseScope(Phase) {}
};

/** PhaseScope or nothing, selected by a hot-path template flag. The
 *  caller picks the instantiation once per window (the profiler cannot
 *  switch on or off mid-process). */
template <bool with_prof>
using ProfScope = std::conditional_t<with_prof, PhaseScope, NoPhaseScope>;

/**
 * Parse MNM_PROF and arm the profiler (first call only;
 * initRunTelemetry() calls this). Fatal on a malformed value.
 */
void initPhaseProfiler();

/** Snapshot the calling thread's running totals (in-flight scope time
 *  is settled first, so cell-boundary deltas are exact). */
PhaseTotals threadPhaseTotals();

/** Settle and return the calling thread's totals, and zero them. A
 *  sweep worker takes one per cell. */
PhaseTotals takeThreadProfile();

/** Add @p totals to the global aggregate that foldProfGlobal()
 *  reports. */
void mergeGlobalProf(const PhaseTotals &totals);

/** mergeGlobalProf(takeThreadProfile()). Each thread that profiles
 *  in-process calls this once when its work is done. */
void flushThreadProf();

/**
 * Write @p totals as gauges under "<prefix>.<phase>.{share,ticks,
 * transitions}". Phases that never ran are omitted.
 */
void foldPhaseTotals(StatsRegistry &reg, const PhaseTotals &totals,
                     const std::string &prefix);

/**
 * The manifest-writer entry point: flush the calling thread and fold
 * the global aggregate under "prof.*" (plus prof.tick_hz). No-op when
 * profiling is off.
 */
void foldProfGlobal(StatsRegistry &reg);

/** The global aggregate so far (flushed threads only). */
PhaseTotals globalPhaseTotals();

/** Test hooks: switch the profiler on or off without the environment,
 *  and reset all profiler state (global aggregate, calling thread,
 *  init latch) so the next initPhaseProfiler() re-reads the
 *  environment. */
void setProfModeForTest(bool on);
void resetPhaseProfilerForTest();

} // namespace mnm

#endif // MNM_OBS_PHASE_PROFILER_HH
