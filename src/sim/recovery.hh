/**
 * @file
 * Crash-safe checkpoint journal for long sweep runs.
 *
 * A paper-scale sweep (20 workloads x many variants x millions of
 * instructions) can run for hours; losing the whole run to a crash,
 * OOM kill, or pre-empted node at cell 380/400 is the failure mode
 * this layer removes. When MNM_CHECKPOINT=<path> is set, runSweep()
 * appends one JSON line per *completed* cell -- keyed by a
 * deterministic fingerprint of everything that defines the cell's
 * result (workload, hierarchy, MNM spec, model, instruction budget) --
 * and on the next run replays matching entries instead of
 * re-simulating them.
 * Because the simulator itself is deterministic, a replayed result is
 * bit-identical to a recomputed one, so the resumed run's tables are
 * byte-identical to an uninterrupted run's.
 *
 * Crash safety: each entry is a single write(2) of one complete line
 * to an O_APPEND descriptor followed by fsync(2). A crash can at worst
 * leave one torn line at the tail; the loader treats any unparsable
 * line as "not yet written" and skips it, so that cell simply re-runs.
 * Failed cells are never journaled -- a rerun retries them.
 *
 * Against *in-place* corruption (a bit flip in the middle of an old
 * record still parses as JSON), every v2 record is wrapped as
 * {"crc":"<8 hex>","rec":{...}} with an IEEE CRC-32 over the exact
 * serialized rec text; a mismatching line is counted in
 * Replay::corrupt and skipped -- it re-runs instead of poisoning the
 * resume with silently wrong numbers.
 *
 * Beyond completed results, the journal is the process pool's work-
 * distribution substrate (sim/proc_pool.hh): the supervisor appends a
 * "lease" record when it issues a cell to a worker process and the
 * fsync'd "result" record only after the worker's reply arrived, so a
 * killed run can be audited cell by cell (leased-but-uncommitted =
 * was in flight, will re-run) and tools/extract_results.py --journal
 * can summarize leases, re-issues, worker respawns, and poisoned
 * cells.
 *
 * The fingerprint is intentionally independent of execution knobs that
 * do not change results (jobs, workers, progress, retries, timeouts),
 * so a journal written by a parallel or process-pool run resumes a
 * serial run and vice versa.
 */

#ifndef MNM_SIM_RECOVERY_HH
#define MNM_SIM_RECOVERY_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/json.hh"
#include "sim/runner.hh"

namespace mnm
{

/**
 * Deterministic fingerprint of one sweep cell: FNV-1a 64 over a
 * canonical text encoding of (app, label, instructions, model and warm
 * flag, every HierarchyParams field, every MnmSpec field), rendered as
 * 16 lower-case hex digits. The model and warm flag enter the encoding
 * only when they differ from a warm Functional cell, so functional
 * fingerprints (and journals holding them) predate and survive the
 * cell model. Two cells collide only if they would produce the same
 * result anyway (modulo a 2^-64 hash accident).
 */
std::string cellFingerprint(const SweepCell &cell);

/** Serialize @p result as one compact (single-line) JSON object. All
 *  counters are written exactly; doubles use the shortest round-trip
 *  form, so deserializing reproduces bit-identical values. The "cpu"
 *  block is written only when some CpuRunStats field is non-zero.
 *
 *  The "work" block (verdicts, feed_events) is written only with
 *  @p with_work, as the worker pipe and the checkpoint journal do: the
 *  suite's work gate sums it. Without it the text holds the cell's
 *  outputs alone, which every schedule must reproduce byte for byte,
 *  while the work legitimately depends on the route (the verdict-first
 *  reference loop computes a verdict per request, the production loop
 *  one per level-1 miss of a guard-free plan). */
std::string writeMemSimResult(const MemSimResult &result,
                              bool with_work = false);

/** Inverse of writeMemSimResult(@p result, true). nullopt when @p text
 *  is not a complete well-formed result object (torn journal line) or
 *  carries no "work" block (a journal record written before the work
 *  counters: its cell re-runs instead of replaying). */
std::optional<MemSimResult> readMemSimResult(std::string_view text);

/** Same, from an already parsed JSON value. */
std::optional<MemSimResult> readMemSimResult(const JsonValue &value);

/**
 * Append-only journal of completed cells. Construct with the target
 * path to record; use load() to replay a previous run's entries.
 */
class CheckpointJournal
{
  public:
    /** What load() recovered from an existing journal. */
    struct Replay
    {
        /** fingerprint -> completed result. */
        std::map<std::string, MemSimResult> entries;
        /** Unparsable lines skipped (torn tail, partial writes). */
        std::size_t skipped = 0;
        /** Parsable lines whose CRC-32 did not match (bit rot,
         *  mid-file corruption); skipped like torn ones. */
        std::size_t corrupt = 0;
        /** fingerprint -> times leased to a worker process. A lease
         *  without a matching entries[] result was in flight when the
         *  run died; the cell simply re-runs. */
        std::map<std::string, unsigned> leases;
        /** Worker-process respawn records seen. */
        std::size_t respawns = 0;
        /** Cells the previous run declared poison. */
        std::map<std::string, unsigned> poisoned;
    };

    /**
     * Parse the journal at @p path. A missing file yields an empty
     * replay; malformed lines are counted in Replay::skipped and
     * otherwise ignored -- loading never throws on bad content.
     */
    static Replay load(const std::string &path);

    /**
     * Open @p path for appending, creating it (with its schema header
     * line) when absent or empty. Throws std::runtime_error when the
     * file cannot be opened or created.
     */
    explicit CheckpointJournal(const std::string &path);
    ~CheckpointJournal();

    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /**
     * Durably record one completed cell: a single O_APPEND write of
     * the full line, then fsync. Thread-safe; a failed write degrades
     * to a warning (the sweep result is still correct, the journal
     * just stops growing).
     */
    void append(const std::string &fingerprint,
                const MemSimResult &result);

    /** Record that @p fingerprint was issued to worker @p worker;
     *  @p seq counts issues of this cell (1 = first, >1 = re-issue
     *  after a crash). Same durability as append(). */
    void appendLease(const std::string &fingerprint, unsigned worker,
                     unsigned seq);

    /** Record that dead worker slot @p worker was respawned (its
     *  @p spawns-th process). */
    void appendRespawn(unsigned worker, unsigned spawns);

    /** Record that @p fingerprint killed @p crashes successive worker
     *  processes and was declared poison. */
    void appendPoison(const std::string &fingerprint, unsigned crashes);

    const std::string &path() const { return path_; }

    /** Journal schema tag, first line of every journal file. v2 wraps
     *  every record in a CRC-32 envelope and adds the lease/respawn/
     *  poison record types; v1 journals are ignored wholesale (their
     *  cells re-run) rather than replayed unverified. */
    static constexpr const char *schema = "mnm-checkpoint-v2";

  private:
    /** Wrap @p rec_text in the CRC envelope, write, fsync. */
    void appendRecord(const std::string &rec_text);

    std::string path_;
    std::mutex mutex_;
    int fd_ = -1;
    bool write_failed_ = false;
};

} // namespace mnm

#endif // MNM_SIM_RECOVERY_HH
