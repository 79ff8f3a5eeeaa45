/**
 * @file
 * Process-pool sweep execution contract (sim/proc_pool.hh): results
 * are element-wise bit-identical to runCell called directly, a
 * mid-cell worker crash costs nothing (the cell is re-issued and
 * recomputes the identical result), a throwing cell is re-issued,
 * throws and worker deaths spend one failure budget, a poison cell
 * fails alone, a hanging cell dies to the supervisor's SIGKILL
 * deadline, and MNM_FAIL_CELL rejects malformed values.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/fault_inject.hh"
#include "core/presets.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/recovery.hh"
#include "sim/runner.hh"

namespace mnm
{
namespace
{

/** Small two-app grid spanning baseline and MNM variants. */
std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepVariant> variants = {
        {"baseline", paperHierarchy(3), std::nullopt},
        {"RMNM", paperHierarchy(3), makeRmnmSpec(128, 1)},
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    return makeGridCells({"164.gzip", "181.mcf"}, variants, 40000);
}

/** The oracle: every cell simulated in turn in this process. */
std::vector<MemSimResult>
serialReference(const std::vector<SweepCell> &cells)
{
    std::vector<MemSimResult> results;
    for (const SweepCell &cell : cells)
        results.push_back(runCell(cell));
    return results;
}

/** Every result compared through its exact journal serialization: the
 *  strongest equality the repo defines (bit-identical doubles). */
void
expectBitIdentical(const std::vector<SweepCell> &cells,
                   const std::vector<MemSimResult> &a,
                   const std::vector<MemSimResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        EXPECT_FALSE(a[i].failed);
        EXPECT_FALSE(b[i].failed);
        EXPECT_EQ(writeMemSimResult(a[i]), writeMemSimResult(b[i]));
    }
}

TEST(ProcPoolTest, MatchesSerialBitIdentical)
{
    // Every cell model crosses the worker pipe: a warm timing core
    // behind HMNM4, a cold cycle core, and a filtered DTLB.
    std::vector<SweepCell> cells = smallGrid();
    cells.push_back({"181.mcf", paperHierarchy(5), makeHmnmSpec(4), 20000,
                     "ooo", CellModel::OooCore});
    cells.push_back({"164.gzip", paperHierarchy(3), std::nullopt, 20000,
                     "cyc", CellModel::CycleCore, /*warm=*/false});
    cells.push_back({"181.mcf", paperHierarchy(5),
                     mnmSpecByName("TMNM_8x2"), 40000, "dtlb",
                     CellModel::Dtlb});
    std::vector<MemSimResult> reference = serialReference(cells);

    ExperimentOptions pool;
    pool.jobs = 3;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    expectBitIdentical(cells, reference, pooled);
}

TEST(ProcPoolTest, MoreWorkersThanCells)
{
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 2);
    ExperimentOptions pool;
    pool.jobs = 16; // clamped to the cell count internally
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    expectBitIdentical(cells, serialReference(cells), pooled);
    EXPECT_EQ(globalStats().gauge("runner.proc.workers"), 2.0);
}

TEST(ProcPoolTest, MidCellCrashIsReissuedAndStaysBitIdentical)
{
    std::vector<SweepCell> cells = smallGrid();
    std::vector<MemSimResult> reference = serialReference(cells);

    // Every 181.mcf cell SIGSEGVs its worker on the first attempt and
    // completes on the re-issue: the sweep must survive the crashes
    // and still produce bit-identical results.
    setSweepFaultHookForTest([](const SweepCell &cell, unsigned attempt) {
        if (cell.app == "181.mcf" && attempt == 0) {
            ::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
        }
    });
    const std::uint64_t reissues_before =
        globalStats().counter("runner.proc.reissues").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.worker_backoff_ms = 1;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    setSweepFaultHookForTest(nullptr);

    expectBitIdentical(cells, reference, pooled);
    // One re-issue per mcf cell, never more: each leased-but-dead cell
    // went back out exactly once.
    EXPECT_EQ(globalStats().counter("runner.proc.reissues").value() -
                  reissues_before,
              3u);
}

TEST(ProcPoolTest, PoisonCellFailsAloneWithCause)
{
    std::vector<SweepCell> cells = smallGrid();

    // One cell aborts on every attempt; with MNM_POISON_LIMIT=2 it is
    // declared poison after killing two workers and the rest of the
    // sweep stands.
    setSweepFaultHookForTest([](const SweepCell &cell, unsigned) {
        if (cell.app == "181.mcf" && cell.label == "RMNM") {
            ::signal(SIGABRT, SIG_DFL);
            std::abort();
        }
    });
    const std::uint64_t poisoned_before =
        globalStats().counter("runner.proc.poisoned").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.poison_limit = 2;
    pool.worker_backoff_ms = 1;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    setSweepFaultHookForTest(nullptr);

    std::vector<MemSimResult> reference = serialReference(cells);
    ASSERT_EQ(pooled.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        if (cells[i].app == "181.mcf" && cells[i].label == "RMNM") {
            EXPECT_TRUE(pooled[i].failed);
            EXPECT_NE(pooled[i].fail_reason.find("failed 2 attempt"),
                      std::string::npos)
                << pooled[i].fail_reason;
        } else {
            EXPECT_FALSE(pooled[i].failed);
            EXPECT_EQ(writeMemSimResult(pooled[i]),
                      writeMemSimResult(reference[i]));
        }
    }
    EXPECT_EQ(globalStats().counter("runner.proc.poisoned").value() -
                  poisoned_before,
              1u);
    EXPECT_TRUE(
        globalStats().has("runner.failures.by_cause.poison"));
    EXPECT_EQ(sweepExitCode(), 1);
}

TEST(ProcPoolTest, HangingCellDiesToRealDeadline)
{
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 4);

    // MNM_FAIL_CELL=<match>:hang never returns; only the supervisor's
    // SIGKILL deadline can end it. The timed-out cell must fail with
    // the timeout cause and never be re-issued: the timeout count is
    // exactly one.
    const std::uint64_t timeouts_before =
        globalStats().counter("runner.proc.timeouts").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.worker_backoff_ms = 1;
    pool.cell_timeout_s = 0.25;
    pool.fail_cell.match = "181.mcf · baseline";
    pool.fail_cell.mode = CellFaultMode::Hang;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        bool hung = cells[i].app == "181.mcf" &&
                    cells[i].label == "baseline";
        EXPECT_EQ(pooled[i].failed, hung);
        if (hung) {
            EXPECT_NE(pooled[i].fail_reason.find("MNM_CELL_TIMEOUT_S"),
                      std::string::npos)
                << pooled[i].fail_reason;
        }
    }
    EXPECT_EQ(globalStats().counter("runner.proc.timeouts").value() -
                  timeouts_before,
              1u);
    EXPECT_TRUE(
        globalStats().has("runner.failures.by_cause.timeout"));
}

TEST(ProcPoolTest, ExitModeCrashIsContained)
{
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 3);
    std::vector<MemSimResult> reference = serialReference(cells);

    // A cell that calls _Exit(3) kills its worker with a nonzero exit
    // status -- contained exactly like a signal. Poison limit 1 makes
    // the very first death final, so this also pins the by-cause
    // accounting for exit-style crashes.
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.poison_limit = 1;
    pool.worker_backoff_ms = 1;
    pool.fail_cell.match = "164.gzip · RMNM";
    pool.fail_cell.mode = CellFaultMode::Exit;
    pool.fail_cell.exit_code = 3;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        if (cells[i].app == "164.gzip" && cells[i].label == "RMNM") {
            EXPECT_TRUE(pooled[i].failed);
            EXPECT_NE(pooled[i].fail_reason.find("status 3"),
                      std::string::npos)
                << pooled[i].fail_reason;
        } else {
            EXPECT_EQ(writeMemSimResult(pooled[i]),
                      writeMemSimResult(reference[i]));
        }
    }
}

TEST(ProcPoolTest, ThrowingCellIsRetriedThroughTheWorker)
{
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 2);
    std::vector<MemSimResult> reference = serialReference(cells);

    // A contained exception inside the worker is reported over the
    // pipe and re-issued, not treated as a crash: both cells (both
    // gzip) fail their first attempt and are re-issued exactly once.
    setSweepFaultHookForTest([](const SweepCell &cell, unsigned attempt) {
        if (cell.app == "164.gzip" && attempt == 0)
            throw std::runtime_error("transient");
    });
    const std::uint64_t reissues_before =
        globalStats().counter("runner.proc.reissues").value();
    const std::uint64_t crashes_before =
        globalStats().counter("runner.proc.crashes").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    setSweepFaultHookForTest(nullptr);
    expectBitIdentical(cells, reference, pooled);
    EXPECT_EQ(globalStats().counter("runner.proc.reissues").value() -
                  reissues_before,
              2u);
    EXPECT_EQ(globalStats().counter("runner.proc.crashes").value(),
              crashes_before);
}

TEST(ProcPoolTest, ExhaustedRetriesFailWithCause)
{
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 2);

    // A cell that throws on every attempt spends exactly poison_limit
    // attempts (poison_limit - 1 re-issues), then fails as poison.
    const std::uint64_t reissues_before =
        globalStats().counter("runner.proc.reissues").value();
    const std::uint64_t poison_before =
        globalStats().counter("runner.failures.by_cause.poison").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.poison_limit = 4;
    pool.fail_cell.match = "164.gzip · baseline"; // mode: throw
    std::vector<MemSimResult> pooled = runSweep(cells, pool);

    EXPECT_TRUE(pooled[0].failed);
    EXPECT_NE(pooled[0].fail_reason.find("failed 4 attempt(s)"),
              std::string::npos)
        << pooled[0].fail_reason;
    EXPECT_NE(pooled[0].fail_reason.find("MNM_FAIL_CELL"),
              std::string::npos);
    EXPECT_FALSE(pooled[1].failed);
    EXPECT_EQ(globalStats().counter("runner.proc.reissues").value() -
                  reissues_before,
              3u);
    EXPECT_EQ(
        globalStats().counter("runner.failures.by_cause.poison").value() -
            poison_before,
        1u);
}

TEST(ProcPoolTest, ThrowsAndWorkerDeathsSpendOneBudget)
{
    std::vector<SweepCell> cells = smallGrid();
    std::vector<MemSimResult> reference = serialReference(cells);

    // Every 181.mcf cell throws on attempt 0, kills its worker on
    // attempt 1 and succeeds on attempt 2. The two failures fit a
    // budget of 3 attempts: the sweep completes bit-identical to
    // serial. At a budget of 2 the same cells fail as poison -- a throw
    // and a death are charged to the one count.
    setSweepFaultHookForTest([](const SweepCell &cell, unsigned attempt) {
        if (cell.app != "181.mcf")
            return;
        if (attempt == 0)
            throw std::runtime_error("transient");
        if (attempt == 1) {
            ::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
        }
    });
    const std::uint64_t reissues_before =
        globalStats().counter("runner.proc.reissues").value();
    const std::uint64_t crashes_before =
        globalStats().counter("runner.proc.crashes").value();
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.poison_limit = 3;
    pool.worker_backoff_ms = 1;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    expectBitIdentical(cells, reference, pooled);
    EXPECT_EQ(globalStats().counter("runner.proc.reissues").value() -
                  reissues_before,
              6u);
    EXPECT_EQ(globalStats().counter("runner.proc.crashes").value() -
                  crashes_before,
              3u);

    pool.poison_limit = 2;
    pooled = runSweep(cells, pool);
    setSweepFaultHookForTest(nullptr);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        EXPECT_EQ(pooled[i].failed, cells[i].app == "181.mcf");
        if (pooled[i].failed) {
            EXPECT_NE(pooled[i].fail_reason.find("failed 2 attempt(s)"),
                      std::string::npos)
                << pooled[i].fail_reason;
        }
    }
}

TEST(ProcPoolTest, JournalRecordsLeasesAndSurvivesCrashes)
{
    std::vector<SweepCell> cells = smallGrid();
    std::vector<MemSimResult> reference = serialReference(cells);
    std::string path = ::testing::TempDir() + "mnm_proc_pool_journal_" +
                       std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());

    // EVERY cell kills its first worker: both slots must die and be
    // respawned for the sweep to finish at all.
    setSweepFaultHookForTest([](const SweepCell &, unsigned attempt) {
        if (attempt == 0) {
            ::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
        }
    });
    ExperimentOptions pool;
    pool.jobs = 2;
    pool.worker_backoff_ms = 1;
    pool.checkpoint = path;
    std::vector<MemSimResult> pooled = runSweep(cells, pool);
    setSweepFaultHookForTest(nullptr);
    expectBitIdentical(cells, reference, pooled);

    // The journal is a complete audit: one lease per issue (every cell
    // crashed once, so exactly two leases each -- each leased-but-
    // uncommitted cell was re-issued exactly once), one committed
    // result per cell, and the worker respawns that kept the pool
    // alive.
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_EQ(replay.entries.size(), cells.size());
    EXPECT_GE(replay.respawns, 1u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(replay.leases.at(cellFingerprint(cells[i])), 2u)
            << cells[i].app << " · " << cells[i].label;
    }

    // Resuming from the journal replays every cell bit-identically.
    std::vector<MemSimResult> resumed = runSweep(cells, pool);
    expectBitIdentical(cells, reference, resumed);
    std::remove(path.c_str());
}

TEST(ProcPoolTest, WorkersKnobParses)
{
    // MNM_JOBS is the pool's worker-process count.
    ASSERT_EQ(setenv("MNM_JOBS", "4", 1), 0);
    EXPECT_EQ(ExperimentOptions::fromEnv().jobs, 4u);
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
    // Unset: one worker process per hardware thread.
    EXPECT_GE(ExperimentOptions::fromEnv().jobs, 1u);
}

TEST(CellFaultSpecTest, ParsesEveryMode)
{
    CellFaultSpec spec = parseCellFaultSpec("mcf");
    EXPECT_EQ(spec.match, "mcf");
    EXPECT_EQ(spec.mode, CellFaultMode::Throw);
    EXPECT_TRUE(spec.matches("181.mcf · RMNM"));
    EXPECT_FALSE(spec.matches("164.gzip · RMNM"));

    EXPECT_EQ(parseCellFaultSpec("mcf:throw").mode, CellFaultMode::Throw);
    EXPECT_EQ(parseCellFaultSpec("mcf:segv").mode, CellFaultMode::Segv);
    EXPECT_EQ(parseCellFaultSpec("mcf:abort").mode, CellFaultMode::Abort);
    EXPECT_EQ(parseCellFaultSpec("mcf:hang").mode, CellFaultMode::Hang);
    spec = parseCellFaultSpec("mcf:exit:7");
    EXPECT_EQ(spec.mode, CellFaultMode::Exit);
    EXPECT_EQ(spec.exit_code, 7);
}

TEST(ProcPoolDeathTest, RejectsMalformedWorkers)
{
    // A malformed or oversized worker count dies while the options
    // are read, before any worker is forked.
    for (const char *bad :
         {"many", "999999", "zero", "0", "", "-3", "4x"}) {
        ASSERT_EQ(setenv("MNM_JOBS", bad, 1), 0);
        EXPECT_EXIT(ExperimentOptions::fromEnv(),
                    ::testing::ExitedWithCode(1), "MNM_JOBS")
            << "MNM_JOBS='" << bad << "'";
    }
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
}

TEST(ProcPoolDeathTest, RejectsMalformedFailCellModes)
{
    EXPECT_EXIT(parseCellFaultSpec("mcf:frobnicate"),
                ::testing::ExitedWithCode(1), "unknown mode");
    EXPECT_EXIT(parseCellFaultSpec(":segv"),
                ::testing::ExitedWithCode(1), "empty cell substring");
    EXPECT_EXIT(parseCellFaultSpec("mcf:exit:lots"),
                ::testing::ExitedWithCode(1), "exit code");
    EXPECT_EXIT(parseCellFaultSpec("mcf:exit:300"),
                ::testing::ExitedWithCode(1), "exit code");
}

} // anonymous namespace
} // namespace mnm
