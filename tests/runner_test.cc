/**
 * @file
 * The parallel sweep engine's contract (sim/runner.hh): parallel
 * execution is element-wise identical to the serial path, errors stay
 * in their slot without stalling the pool, timing cells reproduce a
 * direct core run, and MNM_JOBS parsing.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

/** Cells spanning the MNM techniques on a small machine/budget. */
std::vector<SweepCell>
techniqueCells()
{
    const std::uint64_t instructions = 60000;
    std::vector<SweepVariant> variants = {
        {"baseline", paperHierarchy(3), std::nullopt},
        {"RMNM", paperHierarchy(3), makeRmnmSpec(128, 1)},
        {"TMNM", paperHierarchy(3),
         makeUniformSpec(TmnmSpec{8, 2, 3})},
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    return makeGridCells({"164.gzip", "181.mcf"}, variants,
                         instructions);
}

void
expectSameResult(const MemSimResult &a, const MemSimResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.data_requests, b.data_requests);
    EXPECT_EQ(a.fetch_requests, b.fetch_requests);
    EXPECT_EQ(a.total_access_cycles, b.total_access_cycles);
    EXPECT_EQ(a.miss_cycles, b.miss_cycles);
    EXPECT_EQ(a.memory_accesses, b.memory_accesses);
    EXPECT_EQ(a.soundness_violations, b.soundness_violations);
    EXPECT_EQ(a.mnm_storage_bits, b.mnm_storage_bits);
    EXPECT_EQ(a.coverage.identified(), b.coverage.identified());
    EXPECT_EQ(a.coverage.unidentified(), b.coverage.unidentified());
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        SCOPED_TRACE("decision level " + std::to_string(l));
        const DecisionMatrix::Cells &da = a.decisions.at(l);
        const DecisionMatrix::Cells &db = b.decisions.at(l);
        EXPECT_EQ(da.predicted_miss_actual_miss,
                  db.predicted_miss_actual_miss);
        EXPECT_EQ(da.maybe_actual_miss, db.maybe_actual_miss);
        EXPECT_EQ(da.maybe_actual_hit, db.maybe_actual_hit);
        EXPECT_EQ(da.predicted_miss_actual_hit,
                  db.predicted_miss_actual_hit);
    }
    // Energies are sums of the same per-event terms in the same
    // (per-cell) order, so they must be bit-identical, not just close.
    EXPECT_EQ(a.energy.probe_hit_pj, b.energy.probe_hit_pj);
    EXPECT_EQ(a.energy.probe_miss_pj, b.energy.probe_miss_pj);
    EXPECT_EQ(a.energy.fill_pj, b.energy.fill_pj);
    EXPECT_EQ(a.energy.writeback_pj, b.energy.writeback_pj);
    EXPECT_EQ(a.energy.mnm_pj, b.energy.mnm_pj);
    ASSERT_EQ(a.caches.size(), b.caches.size());
    for (std::size_t i = 0; i < a.caches.size(); ++i) {
        EXPECT_EQ(a.caches[i].name, b.caches[i].name);
        EXPECT_EQ(a.caches[i].accesses, b.caches[i].accesses);
        EXPECT_EQ(a.caches[i].hits, b.caches[i].hits);
        EXPECT_EQ(a.caches[i].misses, b.caches[i].misses);
        EXPECT_EQ(a.caches[i].bypasses, b.caches[i].bypasses);
    }
}

TEST(RunnerTest, ParallelMatchesSerialElementWise)
{
    std::vector<SweepCell> cells = techniqueCells();

    ExperimentOptions serial;
    serial.jobs = 1;
    std::vector<MemSimResult> serial_results = runSweep(cells, serial);

    ExperimentOptions parallel;
    parallel.jobs = 8;
    std::vector<MemSimResult> parallel_results =
        runSweep(cells, parallel);

    ASSERT_EQ(serial_results.size(), cells.size());
    ASSERT_EQ(parallel_results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        expectSameResult(serial_results[i], parallel_results[i]);
    }
}

TEST(RunnerTest, RepeatedParallelRunsAreDeterministic)
{
    std::vector<SweepCell> cells = techniqueCells();
    ExperimentOptions opts;
    opts.jobs = 4;
    std::vector<MemSimResult> first = runSweep(cells, opts);
    std::vector<MemSimResult> second = runSweep(cells, opts);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        expectSameResult(first[i], second[i]);
    }
}

TEST(RunnerTest, ThrowingTaskFailsItsSlotOnly)
{
    constexpr std::size_t count = 32;
    ParallelRunner runner(8);
    std::vector<std::atomic<bool>> ran(count);
    auto errors = runner.run(count, [&](std::size_t i) {
        ran[i] = true;
        if (i == 5)
            throw std::runtime_error("cell 5 exploded");
        if (i == 17)
            throw 42; // non-std::exception payloads are captured too
    });

    ASSERT_EQ(errors.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(ran[i]) << "slot " << i << " never ran";
        if (i == 5 || i == 17)
            EXPECT_TRUE(errors[i]) << "slot " << i;
        else
            EXPECT_FALSE(errors[i]) << "slot " << i;
    }
    EXPECT_THROW(std::rethrow_exception(errors[5]), std::runtime_error);
}

TEST(RunnerTest, SerialPathCapturesErrorsIdentically)
{
    ParallelRunner runner(1);
    auto errors = runner.run(3, [](std::size_t i) {
        if (i == 1)
            throw std::runtime_error("middle");
    });
    EXPECT_FALSE(errors[0]);
    EXPECT_TRUE(errors[1]);
    EXPECT_FALSE(errors[2]);
}

TEST(RunnerTest, MoreJobsThanTasks)
{
    ParallelRunner runner(16);
    std::vector<std::atomic<int>> hits(3);
    auto errors = runner.run(3, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "slot " << i;
        EXPECT_FALSE(errors[i]);
    }
}

TEST(RunnerTest, EmptyTaskSetIsANoOp)
{
    ParallelRunner runner(4);
    auto errors = runner.run(0, [](std::size_t) {
        FAIL() << "no task should run";
    });
    EXPECT_TRUE(errors.empty());
}

TEST(RunnerTest, ZeroJobsMeansHardwareConcurrency)
{
    ParallelRunner runner(0);
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(RunnerTest, JobsFromEnvParsesOverride)
{
    ASSERT_EQ(setenv("MNM_JOBS", "3", 1), 0);
    EXPECT_EQ(jobsFromEnv(), 3u);
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
    EXPECT_GE(jobsFromEnv(), 1u);
}

TEST(RunnerTest, ExperimentOptionsPickUpJobs)
{
    ASSERT_EQ(setenv("MNM_JOBS", "5", 1), 0);
    ASSERT_EQ(setenv("MNM_PROGRESS", "1", 1), 0);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_EQ(opts.jobs, 5u);
    EXPECT_TRUE(opts.progress);
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
    ASSERT_EQ(unsetenv("MNM_PROGRESS"), 0);
}

TEST(RunnerDeathTest, RejectsMalformedJobs)
{
    ASSERT_EQ(setenv("MNM_JOBS", "zero", 1), 0);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "MNM_JOBS");
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
}

TEST(RunnerDeathTest, RejectsOutOfRangeJobs)
{
    ASSERT_EQ(setenv("MNM_JOBS", "5000", 1), 0);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "out of range");
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
}

TEST(RunnerTest, FailedCellDegradesGracefully)
{
    std::vector<SweepCell> cells = techniqueCells();

    ExperimentOptions opts;
    opts.jobs = 4;
    opts.retries = 0;
    opts.fail_cell.match = "181.mcf · RMNM";
    std::vector<MemSimResult> results = runSweep(cells, opts);

    // Exactly one cell is marked failed; every other cell completed
    // and matches an unperturbed run.
    ExperimentOptions clean;
    clean.jobs = 1;
    std::vector<MemSimResult> reference = runSweep(cells, clean);
    ASSERT_EQ(results.size(), cells.size());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        if (results[i].failed) {
            ++failed;
            EXPECT_EQ(cells[i].app, "181.mcf");
            EXPECT_EQ(cells[i].label, "RMNM");
            EXPECT_NE(results[i].fail_reason.find("injected failure"),
                      std::string::npos);
        } else {
            expectSameResult(results[i], reference[i]);
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(sweepExitCode(), 1);
}

TEST(RunnerTest, TransientFailureIsRetried)
{
    std::vector<SweepCell> cells = techniqueCells();
    cells.resize(1);

    std::atomic<unsigned> attempts{0};
    setSweepFaultHookForTest([&](const SweepCell &, unsigned attempt) {
        ++attempts;
        if (attempt == 0)
            throw std::runtime_error("transient");
    });
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.retries = 1;
    std::vector<MemSimResult> results = runSweep(cells, opts);
    setSweepFaultHookForTest(nullptr);

    EXPECT_EQ(attempts.load(), 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_GT(results[0].instructions, 0u);
}

TEST(RunnerTest, WatchdogTimeoutFailsCellWithoutRetry)
{
    std::vector<SweepCell> cells = techniqueCells();
    cells.resize(1);

    std::atomic<unsigned> attempts{0};
    setSweepFaultHookForTest(
        [&](const SweepCell &, unsigned) { ++attempts; });
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.retries = 3;
    opts.cell_timeout_s = 1e-6; // expires before the first poll
    std::vector<MemSimResult> results = runSweep(cells, opts);
    setSweepFaultHookForTest(nullptr);

    EXPECT_TRUE(results[0].failed);
    EXPECT_NE(results[0].fail_reason.find("watchdog"),
              std::string::npos);
    // Timeouts are never retried: a second attempt would only burn
    // another timeout's worth of wall clock.
    EXPECT_EQ(attempts.load(), 1u);

    // The worker's deadline is disarmed; a follow-up sweep on the
    // same thread runs to completion.
    ExperimentOptions clean;
    clean.jobs = 1;
    std::vector<MemSimResult> ok = runSweep(cells, clean);
    EXPECT_FALSE(ok[0].failed);
}

/** A timing core run directly, the way benches ran them before they
 *  were sweep cells: fresh hierarchy and MNM, optional tenth-of-budget
 *  warm-up, then the measured window. */
template <typename Core>
CpuRunStats
directCoreRun(const std::optional<MnmSpec> &spec, bool warm,
              std::uint64_t instructions,
              std::vector<CacheSnapshot> &caches)
{
    CacheHierarchy hierarchy(paperHierarchy(5));
    std::unique_ptr<MnmUnit> mnm;
    if (spec)
        mnm = std::make_unique<MnmUnit>(*spec, hierarchy);
    Core core(paperCpu(5), hierarchy, mnm.get());
    auto workload = makeSpecWorkload("181.mcf");
    if (warm)
        core.run(*workload, instructions / 10);
    CpuRunStats stats = core.run(*workload, instructions);
    caches = snapshotCaches(hierarchy);
    return stats;
}

TEST(RunnerTest, TimingCellsMatchDirectCoreRuns)
{
    const std::uint64_t instructions = 30000;
    std::vector<SweepCell> cells;
    for (CellModel model : {CellModel::OooCore, CellModel::CycleCore}) {
        for (bool warm : {true, false}) {
            for (bool hmnm : {false, true}) {
                SweepCell cell;
                cell.app = "181.mcf";
                cell.hierarchy = paperHierarchy(5);
                if (hmnm)
                    cell.mnm = makeHmnmSpec(4);
                cell.instructions = instructions;
                cell.label = std::string(model == CellModel::OooCore
                                             ? "df"
                                             : "cyc") +
                             (warm ? " warm" : " cold") +
                             (hmnm ? " HMNM4" : " base");
                cell.model = model;
                cell.warm = warm;
                cells.push_back(cell);
            }
        }
    }
    ExperimentOptions opts;
    opts.jobs = 4;
    std::vector<MemSimResult> results = runSweep(cells, opts);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        const MemSimResult &r = results[i];
        SCOPED_TRACE(cell.label);
        ASSERT_FALSE(r.failed) << r.fail_reason;
        std::vector<CacheSnapshot> caches;
        CpuRunStats d =
            cell.model == CellModel::OooCore
                ? directCoreRun<OooCore>(cell.mnm, cell.warm,
                                         instructions, caches)
                : directCoreRun<CycleOooCore>(cell.mnm, cell.warm,
                                              instructions, caches);
        EXPECT_EQ(r.cpu.instructions, d.instructions);
        EXPECT_EQ(r.cpu.cycles, d.cycles);
        EXPECT_EQ(r.cpu.loads, d.loads);
        EXPECT_EQ(r.cpu.stores, d.stores);
        EXPECT_EQ(r.cpu.branches, d.branches);
        EXPECT_EQ(r.cpu.mispredicts, d.mispredicts);
        EXPECT_EQ(r.cpu.fetch_line_accesses, d.fetch_line_accesses);
        EXPECT_EQ(r.cpu.data_access_cycles, d.data_access_cycles);
        EXPECT_EQ(r.cpu.data_accesses, d.data_accesses);
        EXPECT_EQ(r.instructions, instructions);
        ASSERT_EQ(r.caches.size(), caches.size());
        for (std::size_t c = 0; c < caches.size(); ++c) {
            EXPECT_EQ(r.caches[c].name, caches[c].name);
            EXPECT_EQ(r.caches[c].accesses, caches[c].accesses);
            EXPECT_EQ(r.caches[c].hits, caches[c].hits);
            EXPECT_EQ(r.caches[c].bypasses, caches[c].bypasses);
        }
        EXPECT_EQ(r.soundness_violations, 0u);
        EXPECT_EQ(r.mnm_storage_bits > 0, cell.mnm.has_value());
    }
    // The MNM shortens the run, and the warm-up changes it.
    EXPECT_LT(results[1].cpu.cycles, results[0].cpu.cycles);
    EXPECT_NE(results[0].cpu.cycles, results[2].cpu.cycles);
}

} // anonymous namespace
} // namespace mnm
