#include "obs/phase_profiler.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

#include "obs/registry.hh"
#include "util/cpu.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

constexpr int max_stack_depth = 16;
// The collapsed-stack key packs one byte per frame into a u64; deeper
// nesting keeps accumulating time but stops extending the path.
constexpr int max_path_frames = 8;
constexpr int folded_slots = 128; // power of two; ~10 paths in practice

std::atomic<bool> prof_active{false};
bool init_done = false;
std::string folded_file;

struct FoldedSlot
{
    std::uint64_t key = 0; // 0 = empty
    std::uint64_t ticks = 0;
};

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
    std::uint64_t path = 0; // collapsed-stack key of the open stack
    std::uint64_t last_tick = 0;
    FoldedSlot folded[folded_slots];
    std::uint64_t folded_drops = 0; // ticks lost to table overflow
};

thread_local ThreadProf tls;

struct GlobalProf
{
    std::mutex mutex;
    PhaseTotals totals;
    std::map<std::uint64_t, std::uint64_t> folded;
    std::uint64_t folded_drops = 0;
};

GlobalProf &
globalProf()
{
    // Leaked: the atexit manifest writer folds after static destruction
    // may have begun, so this aggregate must never die.
    static GlobalProf *const g = new GlobalProf;
    return *g;
}

void
addFolded(ThreadProf &t, std::uint64_t key, std::uint64_t ticks)
{
    if (key == 0 || ticks == 0)
        return;
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    for (int probe = 0; probe < folded_slots; ++probe) {
        FoldedSlot &slot =
            t.folded[(h + static_cast<std::uint64_t>(probe)) &
                     (folded_slots - 1)];
        if (slot.key == key) {
            slot.ticks += ticks;
            return;
        }
        if (slot.key == 0) {
            slot.key = key;
            slot.ticks = ticks;
            return;
        }
    }
    t.folded_drops += ticks;
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
    addFolded(t, t.path, delta);
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
    if (t.depth <= max_path_frames)
        t.path = (t.path << 8) | (static_cast<std::uint64_t>(p) + 1);
    t.totals.phase[static_cast<int>(p)].transitions++;
    entered_ = true;
}

void
PhaseScope::leave()
{
    ThreadProf &t = tls;
    settle(t, profFastTick());
    t.depth--;
    if (t.depth < max_path_frames)
        t.path >>= 8;
}

void
initPhaseProfiler()
{
    if (init_done)
        return;
    init_done = true;

    const bool on = parseProfMode(std::getenv("MNM_PROF"));
    const char *folded = std::getenv("MNM_PROF_FOLDED");
    if (folded && *folded) {
        if (!on)
            fatal("MNM_PROF_FOLDED is set but MNM_PROF is off; set "
                  "MNM_PROF=time to collect stacks");
        folded_file = folded;
    }
    prof_active.store(on, std::memory_order_relaxed);
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

PhaseProfile
takeThreadProfile()
{
    PhaseProfile profile;
    if (!profActive())
        return profile;
    ThreadProf &t = tls;
    settle(t, profFastTick());
    profile.totals = t.totals;
    for (const FoldedSlot &slot : t.folded)
        if (slot.key != 0)
            profile.folded.emplace_back(slot.key, slot.ticks);
    profile.folded_drops = t.folded_drops;

    t.totals = PhaseTotals{};
    for (FoldedSlot &slot : t.folded)
        slot = FoldedSlot{};
    t.folded_drops = 0;
    return profile;
}

void
mergeGlobalProf(const PhaseProfile &profile)
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    addPhaseTotals(g.totals, profile.totals);
    for (const auto &[key, ticks] : profile.folded)
        g.folded[key] += ticks;
    g.folded_drops += profile.folded_drops;
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

void
writeProfFoldedFile()
{
    if (!profActive() || folded_file.empty())
        return;
    flushThreadProf();
    std::ofstream out(folded_file, std::ios::out | std::ios::trunc);
    if (!out) {
        warn("MNM_PROF_FOLDED: cannot open '%s' for writing",
             folded_file.c_str());
        return;
    }
    writeFoldedStacks(out);
}

PhaseTotals
globalPhaseTotals()
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    return g.totals;
}

std::size_t
writeFoldedStacks(std::ostream &out)
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    std::size_t lines = 0;
    for (const auto &[key, ticks] : g.folded) {
        std::uint8_t frames[max_path_frames];
        int nframes = 0;
        for (std::uint64_t k = key; k != 0; k >>= 8)
            frames[nframes++] = static_cast<std::uint8_t>(k & 0xff);
        out << "mnm";
        for (int i = nframes - 1; i >= 0; --i)
            out << ';' << phaseName(static_cast<Phase>(frames[i] - 1));
        out << ' ' << ticks << '\n';
        ++lines;
    }
    if (g.folded_drops != 0) {
        out << "mnm;[truncated] " << g.folded_drops << '\n';
        ++lines;
    }
    return lines;
}

const std::string &
profFoldedPath()
{
    return folded_file;
}

void
setProfModeForTest(bool on, const std::string &folded_path)
{
    init_done = true; // the environment no longer applies
    folded_file = folded_path;
    prof_active.store(on, std::memory_order_relaxed);
}

void
resetPhaseProfilerForTest()
{
    prof_active.store(false, std::memory_order_relaxed);
    init_done = false;
    folded_file.clear();

    ThreadProf &t = tls;
    t.totals = PhaseTotals{};
    t.depth = 0;
    t.path = 0;
    t.last_tick = 0;
    for (FoldedSlot &slot : t.folded)
        slot = FoldedSlot{};
    t.folded_drops = 0;

    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.totals = PhaseTotals{};
    g.folded.clear();
    g.folded_drops = 0;
}

} // namespace mnm
