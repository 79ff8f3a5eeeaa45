/**
 * @file
 * The phase-attribution layer's contract (obs/phase_profiler):
 * exclusive-time nesting and reentrancy, the manifest's prof section,
 * the sweep trace, the MNM_PROF knob validation, and -- above all --
 * purity: with the knob unset the profiler accumulates nothing and
 * writes nothing, so every bench's stdout stays byte-identical.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "obs/manifest.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/memory_sim.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/cpu.hh"

namespace mnm
{
namespace
{

/** Spin until the fast tick has visibly advanced, so every bracketed
 *  region accumulates a nonzero tick delta regardless of timer
 *  granularity. */
void
spinTicks()
{
    const std::uint64_t start = profFastTick();
    while (profFastTick() - start < 1000) {
    }
}

int
phaseIdx(Phase p)
{
    return static_cast<int>(p);
}

/** RAII guard: every test leaves the profiler off and empty. */
struct ProfReset
{
    ProfReset() { resetPhaseProfilerForTest(); }
    ~ProfReset() { resetPhaseProfilerForTest(); }
};

TEST(ProfTest, ParseProfModeAcceptsOffAndTime)
{
    EXPECT_FALSE(parseProfMode(nullptr));
    EXPECT_FALSE(parseProfMode(""));
    EXPECT_FALSE(parseProfMode("off"));
    EXPECT_TRUE(parseProfMode("time"));
}

TEST(ProfTest, MalformedProfModeDies)
{
    EXPECT_EXIT(parseProfMode("cycles"),
                ::testing::ExitedWithCode(1), "MNM_PROF");
    EXPECT_EXIT(parseProfMode("TIME"),
                ::testing::ExitedWithCode(1), "MNM_PROF");
    // "hw" is not a mode; it dies like any typo.
    EXPECT_EXIT(parseProfMode("hw"),
                ::testing::ExitedWithCode(1), "MNM_PROF");
}

TEST(ProfTest, OffMeansNothingAccumulates)
{
    ProfReset guard;
    EXPECT_FALSE(profActive());
    {
        PhaseScope run(Phase::Run);
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    const PhaseTotals totals = threadPhaseTotals();
    for (int p = 0; p < num_phases; ++p) {
        EXPECT_EQ(totals.phase[p].ticks, 0u);
        EXPECT_EQ(totals.phase[p].transitions, 0u);
    }
}

TEST(ProfTest, NestingAttributesExclusiveTime)
{
    ProfReset guard;
    setProfModeForTest(true);
    {
        PhaseScope run(Phase::Run);
        spinTicks();
        {
            PhaseScope verdict(Phase::Verdict);
            spinTicks();
            {
                // Reentrancy: the same phase nested in itself keeps
                // charging that phase, and both enters count.
                PhaseScope again(Phase::Verdict);
                spinTicks();
            }
        }
        {
            PhaseScope feed(Phase::UpdateFeed);
            spinTicks();
        }
        spinTicks();
    }
    const PhaseTotals totals = threadPhaseTotals();
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Run)].transitions, 1u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Verdict)].transitions, 2u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::UpdateFeed)].transitions, 1u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::Run)].ticks, 0u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::UpdateFeed)].ticks, 0u);
    // Exclusive attribution: phases never bracketed stay empty.
    EXPECT_EQ(totals.phase[phaseIdx(Phase::BatchGen)].ticks, 0u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Cold)].ticks, 0u);
    EXPECT_EQ(totals.totalTicks(),
              totals.phase[phaseIdx(Phase::Run)].ticks +
                  totals.phase[phaseIdx(Phase::Verdict)].ticks +
                  totals.phase[phaseIdx(Phase::UpdateFeed)].ticks);
}

TEST(ProfTest, DeltaIsolatesAWindow)
{
    ProfReset guard;
    setProfModeForTest(true);
    {
        PhaseScope run(Phase::Run);
        spinTicks();
    }
    const PhaseTotals before = threadPhaseTotals();
    {
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    const PhaseTotals delta =
        phaseTotalsDelta(before, threadPhaseTotals());
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Run)].ticks, 0u);
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Run)].transitions, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Verdict)].transitions, 1u);
}

TEST(ProfTest, ManifestCarriesTheProfSection)
{
    ProfReset guard;
    setProfModeForTest(true);
    globalStats().clear();
    {
        PhaseScope run(Phase::Run);
        spinTicks();
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    std::ostringstream doc_stream;
    writeRunManifest(doc_stream);
    const std::string doc = doc_stream.str();
    EXPECT_NE(doc.find("\"schema\": \"mnm-run-manifest-v2\""),
              std::string::npos);
    // Schema: metrics.prof.<phase>.{share,ticks,transitions} plus the
    // tick rate.
    for (const char *key :
         {"\"prof\":", "\"run\":", "\"verdict\":", "\"share\":",
          "\"ticks\":", "\"transitions\":", "\"tick_hz\":"}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    globalStats().clear();
}

TEST(ProfTest, SweepAttributesPerCellAndNothingOnStdout)
{
    ProfReset guard;
    setProfModeForTest(true);
    globalStats().clear();

    std::vector<SweepVariant> variants = {
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    std::vector<SweepCell> cells =
        makeGridCells({"164.gzip"}, variants, 30000);
    ExperimentOptions opts;
    opts.jobs = 1; // a single worker process runs the whole sweep

    ::testing::internal::CaptureStdout();
    runSweep(cells, opts);
    foldProfGlobal(globalStats());
    // Purity: the profiler speaks only through manifests/trace/stderr.
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");

    StatsRegistry &stats = globalStats();
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.verdict.ticks"));
    // Batched feed: the update side drains under feed_drain (the
    // per-event update_feed phase only runs on the reference paths).
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.feed_drain.share"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.hier_walk.ticks"));
    EXPECT_TRUE(stats.has("prof.worker.w0.run.ticks"));
    // The worker's profile reached the global aggregate.
    const PhaseTotals global = globalPhaseTotals();
    EXPECT_GT(global.phase[phaseIdx(Phase::Run)].transitions, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::FeedDrain)].ticks, 0u);
    globalStats().clear();
}

TEST(ProfTest, WorkerProcessesShipAttributionOverTheResultPipe)
{
    ProfReset guard;
    setProfModeForTest(true);
    globalStats().clear();

    std::vector<SweepVariant> variants = {
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    std::vector<SweepCell> cells =
        makeGridCells({"164.gzip", "181.mcf"}, variants, 30000);
    ExperimentOptions opts;
    opts.jobs = 2; // prof crosses a fork boundary

    ::testing::internal::CaptureStdout();
    runSweep(cells, opts);
    foldProfGlobal(globalStats());
    // Purity: the profiler speaks only through manifests/trace/stderr.
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");

    // The workers measured each cell in their own process and shipped
    // its profile home in the response frame; the supervisor folded it
    // into the prof.cell.* and prof.worker.w<k>.* metrics.
    StatsRegistry &stats = globalStats();
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.verdict.ticks"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.feed_drain.share"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.hier_walk.ticks"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.mcf.hier_walk.ticks"));
    EXPECT_TRUE(stats.has("prof.worker.w0.run.ticks") ||
                stats.has("prof.worker.w1.run.ticks"));

    // ...and merged it into the global aggregate behind the manifest's
    // prof.<phase>.* totals.
    const PhaseTotals global = globalPhaseTotals();
    EXPECT_GT(global.phase[phaseIdx(Phase::Run)].transitions, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::FeedDrain)].ticks, 0u);

    // Conservation: per phase, the manifest's process total is exactly
    // the sum of the two cells' shipped profiles (the supervisor runs
    // no cell of its own).
    std::uint64_t manifest_ticks = 0;
    double manifest_share = 0.0;
    for (int p = 0; p < num_phases; ++p) {
        const std::string phase = phaseName(static_cast<Phase>(p));
        auto ticks = [&](const std::string &prefix) -> std::uint64_t {
            const std::string key = prefix + "." + phase + ".ticks";
            return stats.has(key)
                       ? static_cast<std::uint64_t>(stats.gauge(key))
                       : 0;
        };
        const std::uint64_t total = ticks("prof");
        EXPECT_EQ(total, ticks("prof.cell.HMNM2.gzip") +
                             ticks("prof.cell.HMNM2.mcf"))
            << phase;
        manifest_ticks += total;
        if (total)
            manifest_share += stats.gauge("prof." + phase + ".share");
    }
    EXPECT_GT(manifest_ticks, 0u);
    // The shares cover the whole total: no charged phase is missing
    // from the manifest.
    EXPECT_NEAR(manifest_share, 1.0, 1e-9);
    globalStats().clear();
}

/** Check every phase node under the prof subtree @p node (the process
 *  totals, and through the cell/worker nests each cell's and worker's)
 *  holds exactly share, ticks and transitions; count them in @p seen. */
void
expectPhaseNodesHoldOnlyTicks(const JsonValue &node, const std::string &path,
                              std::size_t &seen)
{
    std::set<std::string> phases;
    for (int p = 0; p < num_phases; ++p)
        phases.insert(phaseName(static_cast<Phase>(p)));
    for (const auto &[key, child] : node.asObject()) {
        if (!child.isObject())
            continue;
        if (!phases.count(key)) {
            expectPhaseNodesHoldOnlyTicks(child, path + "." + key, seen);
            continue;
        }
        std::set<std::string> fields;
        for (const auto &[field, value] : child.asObject())
            fields.insert(field);
        EXPECT_EQ(fields,
                  (std::set<std::string>{"share", "ticks", "transitions"}))
            << path << "." << key;
        ++seen;
    }
}

TEST(ProfTest, SweepTraceHasOneEventPerCellAndPhasesHoldOnlyTicks)
{
    ProfReset guard;
    setProfModeForTest(true);
    globalStats().clear();
    globalTrace().clear();
    const std::string trace_path = ::testing::TempDir() +
                                   "mnm_prof_trace_" +
                                   std::to_string(::getpid()) + ".json";
    setRunArtifactPathsForTest("", trace_path);

    std::vector<SweepVariant> variants = {
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
        {"HMNM4", paperHierarchy(5), makeHmnmSpec(4)},
    };
    std::vector<SweepCell> cells =
        makeGridCells({"164.gzip", "181.mcf"}, variants, 20000);
    ExperimentOptions opts;
    opts.jobs = 2;

    ::testing::internal::CaptureStdout();
    runSweep(cells, opts);
    foldProfGlobal(globalStats());
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");

    // The trace carries the cells' own spans and nothing synthetic:
    // exactly one complete event per cell.
    writeRunArtifacts();
    setRunArtifactPathsForTest("", "");
    std::ifstream trace_in(trace_path);
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace_text;
    trace_text << trace_in.rdbuf();
    std::optional<JsonValue> trace = parseJson(trace_text.str());
    ASSERT_TRUE(trace.has_value());
    const JsonValue *events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->asArray().size(), cells.size());
    for (const JsonValue &event : events->asArray()) {
        EXPECT_EQ(event.getString("ph"), std::optional<std::string>("X"));
        EXPECT_EQ(event.getString("cat"),
                  std::optional<std::string>("sweep"));
    }

    std::ostringstream doc_stream;
    writeRunManifest(doc_stream);
    std::optional<JsonValue> doc = parseJson(doc_stream.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *prof = metrics->find("prof");
    ASSERT_NE(prof, nullptr);
    ASSERT_TRUE(prof->find("cell") != nullptr);
    std::size_t seen = 0;
    expectPhaseNodesHoldOnlyTicks(*prof, "prof", seen);
    // Process totals, four cells and at least one worker, each with
    // several phases.
    EXPECT_GT(seen, 5u * 3u);

    std::remove(trace_path.c_str());
    globalStats().clear();
    globalTrace().clear();
}

TEST(ProfTest, TimingCoresAttributeRunAndRefills)
{
    // Each core charges run() to run and each bounded refill to
    // batch_gen, so a profiled timing bench no longer reads as pure
    // feed_drain. 1000 instructions are four refills of 256.
    ProfReset guard;
    setProfModeForTest(true);
    auto check = [](auto &core, const char *what) {
        auto workload = makeSpecWorkload("181.mcf");
        const PhaseTotals before = threadPhaseTotals();
        core.run(*workload, 1000);
        const PhaseTotals delta =
            phaseTotalsDelta(before, threadPhaseTotals());
        EXPECT_EQ(delta.phase[phaseIdx(Phase::Run)].transitions, 1u)
            << what;
        EXPECT_EQ(delta.phase[phaseIdx(Phase::BatchGen)].transitions, 4u)
            << what;
        EXPECT_GT(delta.phase[phaseIdx(Phase::Run)].ticks, 0u) << what;
        EXPECT_GT(delta.phase[phaseIdx(Phase::FeedDrain)].transitions, 0u)
            << what;
    };
    CacheHierarchy h1(paperHierarchy(5));
    MnmUnit mnm1(makeHmnmSpec(4), h1);
    OooCore ooo(paperCpu(5), h1, &mnm1);
    check(ooo, "ooo");
    CacheHierarchy h2(paperHierarchy(5));
    MnmUnit mnm2(makeHmnmSpec(4), h2);
    CycleOooCore cycle(paperCpu(5), h2, &mnm2);
    check(cycle, "cycle");
}

TEST(ProfTest, SimulationIsByteIdenticalUnderProfiling)
{
    ProfReset guard;
    // The functional results a bench prints must not depend on the
    // profiling mode: the scopes only observe.
    MemSimResult off_result;
    {
        resetPhaseProfilerForTest();
        auto workload = makeSpecWorkload("164.gzip");
        MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(2));
        off_result = sim.run(*workload, 30000);
    }
    MemSimResult on_result;
    {
        resetPhaseProfilerForTest();
        setProfModeForTest(true);
        auto workload = makeSpecWorkload("164.gzip");
        MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(2));
        on_result = sim.run(*workload, 30000);
    }
    EXPECT_EQ(off_result.requests, on_result.requests);
    EXPECT_EQ(off_result.total_access_cycles,
              on_result.total_access_cycles);
    EXPECT_EQ(off_result.miss_cycles, on_result.miss_cycles);
    EXPECT_EQ(off_result.memory_accesses, on_result.memory_accesses);
    EXPECT_EQ(off_result.coverage.identified(),
              on_result.coverage.identified());
}

} // anonymous namespace
} // namespace mnm
