/**
 * @file
 * Checkpoint journal contract (sim/recovery.hh): deterministic cell
 * fingerprints, bit-identical MemSimResult round-trips through the
 * JSON journal format, torn-tail tolerance of the loader, and the end
 * result -- an interrupted sweep resumed from its journal reproduces
 * an uninterrupted run exactly.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/recovery.hh"
#include "sim/runner.hh"
#include "util/bits.hh"

namespace mnm
{
namespace
{

/** A small two-app, two-variant grid covering MNM and baseline cells. */
std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepVariant> variants = {
        {"baseline", paperHierarchy(3), std::nullopt},
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    return makeGridCells({"164.gzip", "181.mcf"}, variants, 40000);
}

/** One cell of every non-functional model: a warm timing core behind
 *  HMNM4, a cold cycle core, and a DTLB behind TMNM_8x2. */
std::vector<SweepCell>
modelCells(const std::string &app)
{
    return {
        {app, paperHierarchy(5), makeHmnmSpec(4), 20000, "ooo",
         CellModel::OooCore},
        {app, paperHierarchy(3), std::nullopt, 20000, "cyc",
         CellModel::CycleCore, /*warm=*/false},
        {app, paperHierarchy(5), mnmSpecByName("TMNM_8x2"), 40000, "dtlb",
         CellModel::Dtlb},
    };
}

/** smallGrid() plus modelCells() for both of its apps. */
std::vector<SweepCell>
mixedGrid()
{
    std::vector<SweepCell> cells = smallGrid();
    for (const char *app : {"164.gzip", "181.mcf"}) {
        for (SweepCell &cell : modelCells(app))
            cells.push_back(std::move(cell));
    }
    return cells;
}

/** Fresh temp-file path (not yet created). */
std::string
tempJournalPath(const std::string &tag)
{
    return ::testing::TempDir() + "mnm_recovery_" + tag + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

TEST(FingerprintTest, StableForIdenticalCells)
{
    std::vector<SweepCell> cells = smallGrid();
    for (const SweepCell &cell : cells) {
        std::string fp = cellFingerprint(cell);
        ASSERT_EQ(fp.size(), 16u);
        EXPECT_EQ(fp, cellFingerprint(cell));
    }
}

TEST(FingerprintTest, SensitiveToEveryCellIngredient)
{
    SweepCell base = smallGrid()[1]; // gzip · HMNM2
    std::string fp = cellFingerprint(base);

    SweepCell other = base;
    other.app = "181.mcf";
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.label = "renamed";
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.instructions += 1;
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.hierarchy = paperHierarchy(3);
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.mnm = std::nullopt;
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.mnm = makeHmnmSpec(4);
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.mnm->oracle_check = !other.mnm->oracle_check;
    EXPECT_NE(cellFingerprint(other), fp);

    other = base;
    other.model = CellModel::OooCore;
    EXPECT_NE(cellFingerprint(other), fp);

    SweepCell timing = other;
    other.model = CellModel::CycleCore;
    EXPECT_NE(cellFingerprint(other), cellFingerprint(timing));

    other.model = CellModel::Dtlb;
    EXPECT_NE(cellFingerprint(other), cellFingerprint(timing));

    other = base;
    other.warm = false;
    EXPECT_NE(cellFingerprint(other), fp);

    other = timing;
    other.warm = false;
    EXPECT_NE(cellFingerprint(other), cellFingerprint(timing));
}

TEST(FingerprintTest, FunctionalFingerprintPredatesCellModels)
{
    // Computed before cells carried a model or warm flag: a warm
    // functional cell must hash exactly as it did, so older journals
    // still resume.
    SweepCell cell = smallGrid()[1]; // gzip · HMNM2
    EXPECT_EQ(cellFingerprint(cell), "8d32110317bf885b");
}

TEST(FingerprintTest, IndependentOfExecutionKnobs)
{
    // Same cells, regardless of how the sweep will be executed: the
    // fingerprint must let a parallel-written journal resume a serial
    // run (and any retry/timeout setting).
    std::vector<SweepCell> cells = mixedGrid();
    std::vector<std::string> fps;
    for (const SweepCell &cell : cells)
        fps.push_back(cellFingerprint(cell));
    // No two cells of the grid collide.
    for (std::size_t i = 0; i < fps.size(); ++i) {
        for (std::size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_NE(fps[i], fps[j]) << i << " vs " << j;
    }
}

TEST(RecoveryTest, ResultRoundTripsByteIdentical)
{
    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<SweepCell> cells = mixedGrid();
    std::vector<MemSimResult> results = runSweep(cells, opts);
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        std::string text = writeMemSimResult(results[i], true);
        std::optional<MemSimResult> back = readMemSimResult(text);
        ASSERT_TRUE(back.has_value());
        // Serializing the parsed result reproduces the exact bytes:
        // every counter and every double survived the round trip.
        EXPECT_EQ(writeMemSimResult(*back, true), text);
        // Without the work block the text is the outputs alone.
        EXPECT_EQ(writeMemSimResult(*back), writeMemSimResult(results[i]));
        EXPECT_EQ(writeMemSimResult(results[i]).find("\"work\""),
                  std::string::npos);
        EXPECT_EQ(back->instructions, results[i].instructions);
        EXPECT_EQ(back->soundness_violations,
                  results[i].soundness_violations);
        EXPECT_EQ(back->coverage.identified(),
                  results[i].coverage.identified());
        ASSERT_EQ(back->caches.size(), results[i].caches.size());
        EXPECT_EQ(back->verdicts, results[i].verdicts);
        EXPECT_EQ(back->feed_events, results[i].feed_events);
        // Every MNM cell but the DTLB's did work the record must carry.
        const bool counts_work =
            cells[i].mnm && cells[i].model != CellModel::Dtlb;
        EXPECT_EQ(results[i].verdicts != 0, counts_work);
        EXPECT_EQ(results[i].feed_events != 0, counts_work);
        EXPECT_EQ(back->cpu, results[i].cpu);
        // Only timing cells write a "cpu" block; functional and DTLB
        // records keep their pre-timing-cell bytes.
        const bool timing = cells[i].model == CellModel::OooCore ||
                            cells[i].model == CellModel::CycleCore;
        EXPECT_EQ(text.find("\"cpu\"") != std::string::npos, timing);
        EXPECT_EQ(results[i].cpu.cycles != 0, timing);
    }
}

TEST(RecoveryTest, RecordWithoutWorkIsNotReplayed)
{
    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 1);
    const MemSimResult result = runSweep(cells, opts).front();
    // A record written before the work counters: the same bytes
    // without the "work" block. The reader requires the block, so its
    // cell re-runs instead of replaying.
    const std::string older = writeMemSimResult(result);
    EXPECT_TRUE(readMemSimResult(writeMemSimResult(result, true))
                    .has_value());
    EXPECT_FALSE(readMemSimResult(older).has_value());

    const std::string path = tempJournalPath("no_work");
    std::remove(path.c_str());
    {
        CheckpointJournal journal(path);
        journal.append("cell-a", result);
    }
    std::string text;
    {
        std::ifstream in(path);
        text.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(CheckpointJournal::load(path).entries.size(), 1u);
    // Rewrite the record as an older writer did: without the work block,
    // under a fresh CRC envelope.
    const std::size_t at = text.find("{\"crc\":");
    ASSERT_NE(at, std::string::npos);
    const std::string rec = "{\"type\":\"result\",\"fp\":\"cell-a\","
                            "\"result\":" + older + "}";
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", static_cast<unsigned>(crc32(rec)));
    {
        std::ofstream out(path, std::ios::trunc);
        out << text.substr(0, at) << "{\"crc\":\"" << crc
            << "\",\"rec\":" << rec << "}\n";
    }
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_TRUE(replay.entries.empty());
    EXPECT_EQ(replay.skipped, 1u);
    std::remove(path.c_str());
}

TEST(RecoveryTest, ReadRejectsTornText)
{
    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 1);
    std::string text =
        writeMemSimResult(runSweep(cells, opts).front(), true);
    EXPECT_TRUE(readMemSimResult(text).has_value());
    // Any truncation makes the line unreadable, never misread.
    for (std::size_t len : {text.size() - 1, text.size() / 2,
                            std::size_t{1}, std::size_t{0}}) {
        EXPECT_FALSE(
            readMemSimResult(std::string_view(text).substr(0, len))
                .has_value())
            << "prefix of length " << len;
    }
}

TEST(JournalTest, AppendAndLoadRoundTrip)
{
    std::string path = tempJournalPath("roundtrip");
    std::remove(path.c_str());

    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<MemSimResult> results = runSweep(smallGrid(), opts);
    {
        CheckpointJournal journal(path);
        journal.append("cell-a", results[0]);
        journal.append("cell-b", results[1]);
    }
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_EQ(replay.skipped, 0u);
    ASSERT_EQ(replay.entries.size(), 2u);
    EXPECT_EQ(writeMemSimResult(replay.entries.at("cell-a"), true),
              writeMemSimResult(results[0], true));
    EXPECT_EQ(writeMemSimResult(replay.entries.at("cell-b"), true),
              writeMemSimResult(results[1], true));

    // Re-opening an existing journal appends, never truncates.
    {
        CheckpointJournal journal(path);
        journal.append("cell-c", results[2]);
    }
    replay = CheckpointJournal::load(path);
    EXPECT_EQ(replay.entries.size(), 3u);
    std::remove(path.c_str());
}

TEST(JournalTest, LoadSkipsTornTail)
{
    std::string path = tempJournalPath("torn");
    std::remove(path.c_str());

    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 1);
    MemSimResult result = runSweep(cells, opts).front();
    {
        CheckpointJournal journal(path);
        journal.append("cell-a", result);
    }
    // Simulate a crash mid-write: an incomplete line at the tail.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"fp\":\"cell-b\",\"result\":{\"instructions\":4";
    }
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_EQ(replay.entries.size(), 1u);
    EXPECT_EQ(replay.skipped, 1u);
    EXPECT_TRUE(replay.entries.count("cell-a"));
    std::remove(path.c_str());
}

TEST(JournalTest, CrcCatchesMidFileBitFlip)
{
    std::string path = tempJournalPath("bitflip");
    std::remove(path.c_str());

    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<MemSimResult> results = runSweep(smallGrid(), opts);
    {
        CheckpointJournal journal(path);
        journal.append("cell-a", results[0]);
        journal.append("cell-b", results[1]);
    }

    // Flip one digit inside the FIRST record (not the tail): the line
    // still parses as JSON, so only the CRC envelope can catch it.
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    std::size_t pos = text.find("\"requests\":");
    ASSERT_NE(pos, std::string::npos);
    pos += std::string("\"requests\":").size();
    ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(text[pos])));
    text[pos] = text[pos] == '9' ? '1' : '9';
    {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    }

    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    // The flipped record is quarantined (so its cell re-runs instead
    // of resuming with silently wrong numbers); the other survives.
    EXPECT_EQ(replay.corrupt, 1u);
    EXPECT_EQ(replay.skipped, 0u);
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_TRUE(replay.entries.count("cell-b"));
    std::remove(path.c_str());
}

TEST(JournalTest, LeaseRespawnPoisonRoundTrip)
{
    std::string path = tempJournalPath("lease");
    std::remove(path.c_str());

    ExperimentOptions opts;
    opts.jobs = 1;
    std::vector<SweepCell> grid = smallGrid();
    std::vector<SweepCell> cells(grid.begin(), grid.begin() + 1);
    MemSimResult result = runSweep(cells, opts).front();
    {
        CheckpointJournal journal(path);
        journal.appendLease("cell-a", 0, 1);
        journal.append("cell-a", result);
        journal.appendLease("cell-b", 1, 1);
        journal.appendRespawn(1, 2);
        journal.appendLease("cell-b", 0, 2);
        journal.appendPoison("cell-b", 3);
    }
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_EQ(replay.skipped, 0u);
    EXPECT_EQ(replay.corrupt, 0u);
    // cell-a committed; cell-b was leased twice but never committed --
    // exactly the in-flight-when-killed signature a resume re-runs.
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_TRUE(replay.entries.count("cell-a"));
    EXPECT_EQ(replay.leases.at("cell-a"), 1u);
    EXPECT_EQ(replay.leases.at("cell-b"), 2u);
    EXPECT_EQ(replay.respawns, 1u);
    ASSERT_EQ(replay.poisoned.size(), 1u);
    EXPECT_EQ(replay.poisoned.at("cell-b"), 3u);
    std::remove(path.c_str());
}

TEST(JournalTest, V1JournalIsIgnoredWholesale)
{
    // A v1 journal carries no CRCs, so its records cannot be verified;
    // the loader must re-run everything rather than replay unchecked.
    std::string path = tempJournalPath("v1");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"mnm-checkpoint-v1\"}\n";
        out << "{\"fp\":\"cell-a\",\"result\":{}}\n";
    }
    CheckpointJournal::Replay replay = CheckpointJournal::load(path);
    EXPECT_TRUE(replay.entries.empty());
    std::remove(path.c_str());
}

TEST(JournalTest, MissingFileAndWrongSchema)
{
    CheckpointJournal::Replay replay =
        CheckpointJournal::load(tempJournalPath("missing"));
    EXPECT_TRUE(replay.entries.empty());
    EXPECT_EQ(replay.skipped, 0u);

    std::string path = tempJournalPath("schema");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"some-other-format\"}\n";
        out << "{\"fp\":\"cell-a\",\"result\":{}}\n";
    }
    // A foreign file is ignored wholesale rather than misapplied.
    replay = CheckpointJournal::load(path);
    EXPECT_TRUE(replay.entries.empty());
    std::remove(path.c_str());
}

TEST(RecoveryTest, InterruptedSweepResumesByteIdentical)
{
    std::vector<SweepCell> cells = mixedGrid();
    const std::size_t mcf_cells = static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(), [](const SweepCell &c) {
            return c.app == "181.mcf";
        }));

    // Reference: one uninterrupted serial run.
    ExperimentOptions serial;
    serial.jobs = 1;
    std::vector<MemSimResult> reference = runSweep(cells, serial);

    std::string path = tempJournalPath("resume");
    std::remove(path.c_str());
    ExperimentOptions opts;
    opts.jobs = 2;
    opts.retries = 0;
    opts.checkpoint = path;

    // First attempt: every 181.mcf cell dies. The journal captures
    // only the completed gzip cells; failed cells are never recorded.
    setSweepFaultHookForTest([](const SweepCell &cell, unsigned) {
        if (cell.app == "181.mcf")
            throw std::runtime_error("simulated crash");
    });
    std::vector<MemSimResult> first = runSweep(cells, opts);
    setSweepFaultHookForTest(nullptr);
    EXPECT_EQ(sweepExitCode(), 1);
    std::size_t failed = 0;
    for (const MemSimResult &r : first)
        failed += r.failed ? 1 : 0;
    EXPECT_EQ(failed, mcf_cells);
    EXPECT_EQ(CheckpointJournal::load(path).entries.size(),
              cells.size() - mcf_cells);

    // Resume: gzip cells replay from the journal, mcf cells finally
    // run. The combined results must be byte-identical to the
    // uninterrupted reference -- the acceptance bar for the whole
    // checkpoint layer.
    std::vector<MemSimResult> resumed = runSweep(cells, opts);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        EXPECT_FALSE(resumed[i].failed);
        EXPECT_EQ(writeMemSimResult(resumed[i]),
                  writeMemSimResult(reference[i]));
    }
    EXPECT_EQ(CheckpointJournal::load(path).entries.size(),
              cells.size());

    // A third run replays everything and still matches.
    std::vector<MemSimResult> replayed = runSweep(cells, opts);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(writeMemSimResult(replayed[i]),
                  writeMemSimResult(reference[i]));
    }
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace mnm
