#include "obs/phase_profiler.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "obs/registry.hh"
#include "util/cpu.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

constexpr int max_stack_depth = 16;

std::atomic<bool> prof_active{false};
bool init_done = false;

/**
 * One thread's profiler state. Trivially destructible on purpose: no
 * thread-exit magic -- every profiled thread hands its numbers over via
 * takeThreadProfile() (the sweep worker processes, per cell) or
 * flushThreadProf() (ParallelRunner's threads and foldProfGlobal()
 * do), and a thread that never hands over merely contributes nothing.
 */
struct ThreadProf
{
    PhaseTotals totals;
    std::uint8_t stack[max_stack_depth] = {};
    int depth = 0;
    std::uint64_t last_tick = 0;
};

thread_local ThreadProf tls;

struct GlobalProf
{
    std::mutex mutex;
    PhaseTotals totals;
};

GlobalProf &
globalProf()
{
    // Leaked: the atexit manifest writer folds after static destruction
    // may have begun, so this aggregate must never die.
    static GlobalProf *const g = new GlobalProf;
    return *g;
}

/** Charge the interval since the last transition to the innermost open
 *  phase (restamp only when no scope is open). */
void
settle(ThreadProf &t, std::uint64_t now)
{
    if (t.depth == 0) {
        t.last_tick = now;
        return;
    }
    const std::uint64_t delta = now - t.last_tick;
    t.last_tick = now;
    t.totals.phase[t.stack[t.depth - 1]].ticks += delta;
}

std::uint64_t
satSub(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Run:
        return "run";
      case Phase::BatchGen:
        return "batch_gen";
      case Phase::L1Peek:
        return "l1_peek";
      case Phase::Verdict:
        return "verdict";
      case Phase::HierWalk:
        return "hier_walk";
      case Phase::UpdateFeed:
        return "update_feed";
      case Phase::Cold:
        return "cold_account";
      case Phase::FeedDrain:
        return "feed_drain";
      case Phase::GenOverlap:
        return "gen_overlap";
    }
    return "?";
}

std::uint64_t
PhaseTotals::totalTicks() const
{
    std::uint64_t total = 0;
    for (const PhaseCounters &c : phase)
        total += c.ticks;
    return total;
}

void
addPhaseTotals(PhaseTotals &into, const PhaseTotals &from)
{
    for (int i = 0; i < num_phases; ++i) {
        PhaseCounters &d = into.phase[i];
        const PhaseCounters &s = from.phase[i];
        d.ticks += s.ticks;
        d.transitions += s.transitions;
    }
}

PhaseTotals
phaseTotalsDelta(const PhaseTotals &before, const PhaseTotals &after)
{
    PhaseTotals d;
    for (int i = 0; i < num_phases; ++i) {
        d.phase[i].ticks = satSub(after.phase[i].ticks, before.phase[i].ticks);
        d.phase[i].transitions =
            satSub(after.phase[i].transitions, before.phase[i].transitions);
    }
    return d;
}

bool
parseProfMode(const char *value)
{
    if (!value || !*value || std::strcmp(value, "off") == 0)
        return false;
    if (std::strcmp(value, "time") == 0)
        return true;
    fatal("unknown MNM_PROF value '%s' (expected off or time)", value);
}

bool
profActive()
{
    return prof_active.load(std::memory_order_relaxed);
}

void
PhaseScope::enter(Phase p)
{
    ThreadProf &t = tls;
    if (t.depth >= max_stack_depth)
        return; // keep charging the parent; dtor stays paired via entered_
    settle(t, profFastTick());
    t.stack[t.depth++] = static_cast<std::uint8_t>(p);
    t.totals.phase[static_cast<int>(p)].transitions++;
    entered_ = true;
}

void
PhaseScope::leave()
{
    ThreadProf &t = tls;
    settle(t, profFastTick());
    t.depth--;
}

void
initPhaseProfiler()
{
    if (init_done)
        return;
    init_done = true;

    prof_active.store(parseProfMode(std::getenv("MNM_PROF")),
                      std::memory_order_relaxed);
}

PhaseTotals
threadPhaseTotals()
{
    if (!profActive())
        return PhaseTotals{};
    ThreadProf &t = tls;
    settle(t, profFastTick());
    return t.totals;
}

PhaseTotals
takeThreadProfile()
{
    if (!profActive())
        return PhaseTotals{};
    ThreadProf &t = tls;
    settle(t, profFastTick());
    return std::exchange(t.totals, PhaseTotals{});
}

void
mergeGlobalProf(const PhaseTotals &totals)
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    addPhaseTotals(g.totals, totals);
}

void
flushThreadProf()
{
    if (!profActive())
        return;
    mergeGlobalProf(takeThreadProfile());
}

void
foldPhaseTotals(StatsRegistry &reg, const PhaseTotals &totals,
                const std::string &prefix)
{
    const std::uint64_t total = totals.totalTicks();
    for (int i = 0; i < num_phases; ++i) {
        const PhaseCounters &c = totals.phase[i];
        if (c.ticks == 0 && c.transitions == 0)
            continue;
        const std::string base =
            prefix + "." + phaseName(static_cast<Phase>(i)) + ".";
        reg.setGauge(base + "share",
                     total ? static_cast<double>(c.ticks) /
                                 static_cast<double>(total)
                           : 0.0);
        reg.setGauge(base + "ticks", static_cast<double>(c.ticks));
        reg.setGauge(base + "transitions",
                     static_cast<double>(c.transitions));
    }
}

void
foldProfGlobal(StatsRegistry &reg)
{
    if (!profActive())
        return;
    flushThreadProf();
    foldPhaseTotals(reg, globalPhaseTotals(), "prof");
    reg.setGauge("prof.tick_hz", profTickHz());
}

PhaseTotals
globalPhaseTotals()
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    return g.totals;
}

void
setProfModeForTest(bool on)
{
    init_done = true; // the environment no longer applies
    prof_active.store(on, std::memory_order_relaxed);
}

void
resetPhaseProfilerForTest()
{
    prof_active.store(false, std::memory_order_relaxed);
    init_done = false;

    ThreadProf &t = tls;
    t.totals = PhaseTotals{};
    t.depth = 0;
    t.last_tick = 0;

    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.totals = PhaseTotals{};
}

} // namespace mnm
