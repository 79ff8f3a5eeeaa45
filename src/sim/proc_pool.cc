#include "sim/proc_pool.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "core/fault_inject.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "sim/recovery.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

std::uint64_t
steadyNowUs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<microseconds>(steady_clock::now().time_since_epoch())
            .count());
}

// --------------------------------------------------- frame plumbing
//
// Every pipe message is one frame: a 4-byte little-endian payload
// length followed by the payload. Fixed-width and endian-pinned so the
// framing never depends on host struct layout.

std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

void
storeLe32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v & 0xff);
    p[1] = static_cast<unsigned char>((v >> 8) & 0xff);
    p[2] = static_cast<unsigned char>((v >> 16) & 0xff);
    p[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

/** Largest response frame the supervisor will buffer; anything bigger
 *  is a protocol breach and the worker is treated as crashed. */
constexpr std::uint32_t max_frame_bytes = 64u * 1024 * 1024;

// -------------------------------------------- prof wire format
//
// With MNM_PROF active each worker measures its own profile (the
// profiler state is per-process; the supervisor cannot see it) and
// ships each cell's PhaseTotals home inside the response frame:
// {"phases":[...]}, num_phases [ticks,transitions] pairs. The worker
// is a fork of the supervisor, so both sides always agree on the
// layout; the reader only rejects a malformed block.

void
appendU64Array(std::string &out, std::initializer_list<std::uint64_t> v)
{
    const char *sep = "[";
    for (std::uint64_t x : v) {
        out += sep;
        out += std::to_string(x);
        sep = ",";
    }
    out += ']';
}

std::string
writePhaseTotals(const PhaseTotals &totals)
{
    std::string out = "{\"phases\":[";
    for (int p = 0; p < num_phases; ++p) {
        const PhaseCounters &c = totals.phase[p];
        if (p)
            out += ',';
        appendU64Array(out, {c.ticks, c.transitions});
    }
    out += "]}";
    return out;
}

/** @p value as an array of exactly @p n integers, or nullopt. */
std::optional<std::vector<std::uint64_t>>
readU64Array(const JsonValue &value, std::size_t n)
{
    if (!value.isArray() || value.asArray().size() != n)
        return std::nullopt;
    std::vector<std::uint64_t> out;
    for (const JsonValue &x : value.asArray()) {
        if (!x.isInteger())
            return std::nullopt;
        out.push_back(x.asU64());
    }
    return out;
}

std::optional<PhaseTotals>
readPhaseTotals(const JsonValue &value)
{
    const JsonValue *phases = value.find("phases");
    if (!phases || !phases->isArray() ||
        phases->asArray().size() != static_cast<std::size_t>(num_phases)) {
        return std::nullopt;
    }
    PhaseTotals totals;
    for (int p = 0; p < num_phases; ++p) {
        auto v = readU64Array(phases->asArray()[p], 2);
        if (!v)
            return std::nullopt;
        totals.phase[p] = {(*v)[0], (*v)[1]};
    }
    return totals;
}

bool
writeFully(int fd, const void *data, std::size_t size)
{
    const char *p = static_cast<const char *>(data);
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::write(fd, p + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readFully(int fd, void *data, std::size_t size)
{
    char *p = static_cast<char *>(data);
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::read(fd, p + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, std::string_view payload)
{
    std::string frame;
    frame.resize(4 + payload.size());
    storeLe32(reinterpret_cast<unsigned char *>(frame.data()),
              static_cast<std::uint32_t>(payload.size()));
    std::memcpy(frame.data() + 4, payload.data(), payload.size());
    // One write per frame so a frame is never interleaved and a killed
    // writer leaves at most one torn frame at the reader.
    return writeFully(fd, frame.data(), frame.size());
}

// ------------------------------------------------------ worker child
//
// The forked child inherited everything by value: the cell vector, the
// options, the test fault hook. Its whole world is the two pipe fds.
// It must never touch stdout (the supervisor's tables) and must only
// leave via _Exit, so the supervisor's atexit manifest/trace writers
// are not run a second time from the child.

[[noreturn]] void
workerChildLoop(const std::vector<SweepCell> &cells,
                const ExperimentOptions &opts, int cmd_fd, int res_fd)
{
    for (;;) {
        unsigned char header[4];
        if (!readFully(cmd_fd, header, sizeof(header)))
            std::_Exit(0); // EOF: pool shutdown
        if (loadLe32(header) != 8)
            std::_Exit(0); // protocol breach; surfaces as a crash
        unsigned char payload[8];
        if (!readFully(cmd_fd, payload, sizeof(payload)))
            std::_Exit(0);
        const std::uint32_t index = loadLe32(payload);
        const unsigned attempt = loadLe32(payload + 4);
        if (index >= cells.size())
            std::_Exit(0);
        const SweepCell &cell = cells[index];

        std::string response;
        try {
            if (sweepFaultHook())
                sweepFaultHook()(cell, attempt);
            if (opts.fail_cell.matches(sweepCellDisplayName(cell))) {
                triggerCellFault(opts.fail_cell,
                                 sweepCellDisplayName(cell));
            }
            // Drop whatever the thread profile holds (state inherited
            // across fork, a failed attempt), so the profile taken
            // after runCell is exactly this cell's work.
            takeThreadProfile();
            const std::uint64_t start_us = steadyNowUs();
            MemSimResult result = runCell(cell);
            const std::uint64_t dur_us = steadyNowUs() - start_us;
            response = "{\"index\":" + std::to_string(index) +
                       ",\"dur_us\":" + std::to_string(dur_us);
            if (profActive()) {
                response +=
                    ",\"prof\":" + writePhaseTotals(takeThreadProfile());
            }
            response += ",\"result\":" +
                        writeMemSimResult(result, /*with_work=*/true) + "}";
        } catch (const std::exception &e) {
            response = "{\"index\":" + std::to_string(index) +
                       ",\"error\":" + JsonWriter::quoted(e.what()) + "}";
        } catch (...) {
            response = "{\"index\":" + std::to_string(index) +
                       ",\"error\":\"non-standard exception\"}";
        }
        if (!writeFrame(res_fd, response))
            std::_Exit(0); // supervisor is gone
    }
}

// ------------------------------------------------------- supervisor

/** Supervisor-side state of one worker slot. */
struct WorkerProc
{
    pid_t pid = -1;
    int cmd_fd = -1; //!< supervisor -> worker commands
    int res_fd = -1; //!< worker -> supervisor responses (O_NONBLOCK)
    std::string buf; //!< partial response bytes
    int cell = -1;   //!< cell index in flight, -1 when idle
    std::uint64_t issue_us = 0;
    std::uint64_t deadline_us = 0; //!< 0 = no deadline armed
    bool timed_out = false; //!< we SIGKILLed it for a deadline
    bool alive = false;
    unsigned spawns = 0;
    unsigned consecutive_deaths = 0;
    std::uint64_t respawn_at_us = 0;
};

/** "w<slot>" metric segment for per-worker-process attribution. */
std::string
slotMetric(std::size_t slot, const char *leaf)
{
    return "runner.proc.w" + std::to_string(slot) + "." + leaf;
}

/** Human-readable cause of a reaped worker's death. */
std::string
describeExit(int status)
{
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        return "killed by signal " + std::to_string(sig) + " (" +
               (name ? name : "?") + ")";
    }
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    return "ended with unrecognized wait status";
}

class ProcPoolSupervisor
{
  public:
    ProcPoolSupervisor(const std::vector<SweepCell> &cells,
                       const ExperimentOptions &opts,
                       const std::vector<std::string> &fingerprints,
                       CheckpointJournal *journal,
                       std::vector<MemSimResult> &results,
                       std::vector<SweepCellTiming> &timing,
                       std::vector<PhaseTotals> &cell_prof)
        : cells_(cells), opts_(opts), fingerprints_(fingerprints),
          journal_(journal), results_(results), timing_(timing),
          cell_prof_(cell_prof), failures_(cells.size(), 0),
          lease_seq_(cells.size(), 0)
    {
    }

    void
    run(const std::vector<char> &replayed)
    {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (i < replayed.size() && replayed[i])
                continue;
            pending_.push_back(static_cast<std::uint32_t>(i));
        }
        outstanding_ = pending_.size();
        if (outstanding_ == 0)
            return;

        // A worker can die between poll() and our next command write;
        // that write must come back as EPIPE, not kill the supervisor.
        struct sigaction ignore_pipe = {};
        struct sigaction old_pipe = {};
        ignore_pipe.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

        // Never more workers than cells to run.
        const std::size_t nworkers = std::min<std::size_t>(
            std::max(opts_.jobs, 1u), outstanding_);
        workers_.resize(nworkers);
        slot_prof_.resize(nworkers);
        globalStats().setGauge("runner.proc.workers",
                               static_cast<double>(nworkers));
        start_us_ = steadyNowUs();
        for (std::size_t slot = 0; slot < nworkers; ++slot)
            spawn(slot);

        while (outstanding_ > 0)
            step();

        shutdown();
        ::sigaction(SIGPIPE, &old_pipe, nullptr);

        // Per-worker-process attribution: slot totals are the sum of
        // every cell profile delivered by that slot (across respawns).
        if (profActive()) {
            for (std::size_t slot = 0; slot < slot_prof_.size(); ++slot) {
                if (slot_prof_[slot].totalTicks() == 0)
                    continue; // slot never delivered a profiled cell
                foldPhaseTotals(globalStats(), slot_prof_[slot],
                                "prof.worker.w" + std::to_string(slot));
            }
        }
    }

  private:
    void
    spawn(std::size_t slot)
    {
        WorkerProc &w = workers_[slot];
        int cmd_pipe[2];
        int res_pipe[2];
        if (::pipe(cmd_pipe) != 0 || ::pipe(res_pipe) != 0)
            fatal("sweep pool: cannot create worker pipes");

        pid_t pid = ::fork();
        if (pid < 0)
            fatal("sweep pool: fork failed");
        if (pid == 0) {
            // Child. Drop every descriptor that belongs to the
            // supervisor or a sibling: a sibling holding a copy of our
            // command pipe's write end would defeat EOF shutdown.
            ::close(cmd_pipe[1]);
            ::close(res_pipe[0]);
            for (const WorkerProc &other : workers_) {
                if (other.cmd_fd >= 0)
                    ::close(other.cmd_fd);
                if (other.res_fd >= 0)
                    ::close(other.res_fd);
            }
            workerChildLoop(cells_, opts_, cmd_pipe[0], res_pipe[1]);
        }

        ::close(cmd_pipe[0]);
        ::close(res_pipe[1]);
        ::fcntl(res_pipe[0], F_SETFL, O_NONBLOCK);
        w.pid = pid;
        w.cmd_fd = cmd_pipe[1];
        w.res_fd = res_pipe[0];
        w.buf.clear();
        w.cell = -1;
        w.deadline_us = 0;
        w.timed_out = false;
        w.alive = true;
        ++w.spawns;
        globalStats().addCounter("runner.proc.spawns", 1);
        globalStats().addCounter(slotMetric(slot, "spawns"), 1);
        if (w.spawns > 1 && journal_) {
            journal_->appendRespawn(static_cast<unsigned>(slot),
                                    w.spawns);
        }
    }

    void
    issue(std::size_t slot)
    {
        WorkerProc &w = workers_[slot];
        const std::uint32_t index = pending_.front();
        pending_.pop_front();
        w.cell = static_cast<int>(index);
        w.issue_us = steadyNowUs();
        w.deadline_us =
            opts_.cell_timeout_s > 0.0
                ? w.issue_us + static_cast<std::uint64_t>(
                                   opts_.cell_timeout_s * 1e6)
                : 0;
        ++lease_seq_[index];
        if (journal_) {
            journal_->appendLease(fingerprints_[index],
                                  static_cast<unsigned>(slot),
                                  lease_seq_[index]);
        }
        globalStats().addCounter("runner.proc.leases", 1);
        unsigned char payload[8];
        storeLe32(payload, index);
        storeLe32(payload + 4, failures_[index]);
        // EPIPE here means the worker died between poll() and now; the
        // cell stays attributed to this slot and the death handler
        // re-issues it like any other mid-cell crash.
        writeFrame(w.cmd_fd,
                   std::string_view(reinterpret_cast<char *>(payload),
                                    sizeof(payload)));
    }

    /** One supervisor iteration: respawn, issue, wait, collect. */
    void
    step()
    {
        std::uint64_t now = steadyNowUs();

        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            WorkerProc &w = workers_[slot];
            if (!w.alive && !pending_.empty() && now >= w.respawn_at_us)
                spawn(slot);
        }
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            WorkerProc &w = workers_[slot];
            if (w.alive && w.cell < 0 && !pending_.empty())
                issue(slot);
        }

        // Sleep until a response can arrive, a deadline fires, or a
        // respawn comes due.
        std::uint64_t wake_us = 0;
        for (const WorkerProc &w : workers_) {
            if (w.alive && w.cell >= 0 && w.deadline_us &&
                (!wake_us || w.deadline_us < wake_us)) {
                wake_us = w.deadline_us;
            }
            if (!w.alive && !pending_.empty() &&
                (!wake_us || w.respawn_at_us < wake_us)) {
                wake_us = std::max<std::uint64_t>(w.respawn_at_us, now);
            }
        }
        int timeout_ms = -1;
        if (wake_us) {
            timeout_ms = wake_us <= now
                             ? 0
                             : static_cast<int>(
                                   std::min<std::uint64_t>(
                                       (wake_us - now) / 1000 + 1,
                                       60'000));
        }

        std::vector<struct pollfd> fds;
        std::vector<std::size_t> fd_slot;
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            if (!workers_[slot].alive)
                continue;
            fds.push_back({workers_[slot].res_fd, POLLIN, 0});
            fd_slot.push_back(slot);
        }
        int ready = ::poll(fds.empty() ? nullptr : fds.data(),
                           static_cast<nfds_t>(fds.size()), timeout_ms);
        if (ready < 0 && errno != EINTR)
            fatal("sweep pool: poll failed");

        for (std::size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents & (POLLIN | POLLHUP | POLLERR))
                drain(fd_slot[f]);
        }

        // Enforce real deadlines: SIGKILL, no cooperation required.
        now = steadyNowUs();
        for (WorkerProc &w : workers_) {
            if (w.alive && w.cell >= 0 && w.deadline_us &&
                now >= w.deadline_us && !w.timed_out) {
                w.timed_out = true;
                ::kill(w.pid, SIGKILL);
            }
        }
    }

    /** Read everything the worker has written; handle death on EOF. */
    void
    drain(std::size_t slot)
    {
        WorkerProc &w = workers_[slot];
        bool dead = false;
        char chunk[65536];
        for (;;) {
            ssize_t n = ::read(w.res_fd, chunk, sizeof(chunk));
            if (n > 0) {
                w.buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                dead = true; // EOF: the worker is gone
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            dead = true;
            break;
        }

        // Deliver complete frames first: a worker that wrote its
        // response and then died still completed its cell.
        while (w.buf.size() >= 4) {
            std::uint32_t len = loadLe32(
                reinterpret_cast<const unsigned char *>(w.buf.data()));
            if (len > max_frame_bytes) {
                dead = true;
                ::kill(w.pid, SIGKILL);
                break;
            }
            if (w.buf.size() < 4u + len)
                break;
            handleResponse(slot, std::string_view(w.buf).substr(4, len));
            w.buf.erase(0, 4u + len);
        }
        if (dead)
            handleDeath(slot);
    }

    void
    handleResponse(std::size_t slot, std::string_view payload)
    {
        WorkerProc &w = workers_[slot];
        std::optional<JsonValue> value = parseJson(payload);
        std::optional<std::uint64_t> index =
            value ? value->getU64("index") : std::nullopt;
        if (!value || !index || w.cell < 0 ||
            *index != static_cast<std::uint64_t>(w.cell)) {
            // A response we cannot attribute means the protocol state
            // is broken; treat the worker as crashed.
            warn("sweep worker %zu sent an unattributable "
                 "response; killing it",
                 slot);
            ::kill(w.pid, SIGKILL);
            return;
        }
        const std::size_t cell_index = static_cast<std::size_t>(w.cell);
        const SweepCell &cell = cells_[cell_index];

        if (std::optional<std::string> err = value->getString("error")) {
            w.cell = -1;
            w.deadline_us = 0;
            failAttempt(slot, cell_index, "threw: " + *err);
            return;
        }

        const JsonValue *result_json = value->find("result");
        std::optional<MemSimResult> result =
            result_json ? readMemSimResult(*result_json) : std::nullopt;
        if (!result) {
            warn("sweep worker %zu sent an unreadable result "
                 "for cell %zu; killing it",
                 slot, cell_index);
            ::kill(w.pid, SIGKILL);
            return;
        }
        results_[cell_index] = std::move(*result);
        if (const JsonValue *prof_json = value->find("prof")) {
            std::optional<PhaseTotals> prof = readPhaseTotals(*prof_json);
            if (!prof) {
                warn("sweep worker %zu sent an unreadable prof block for "
                     "cell %zu; dropping its attribution",
                     slot, cell_index);
            } else {
                // The manifest's prof.<phase> totals are the sum of the
                // delivered cells' profiles.
                cell_prof_[cell_index] = *prof;
                addPhaseTotals(slot_prof_[slot], *prof);
                mergeGlobalProf(*prof);
            }
        }
        SweepCellTiming &t = timing_[cell_index];
        t.start_us = w.issue_us;
        t.dur_us = value->getU64("dur_us").value_or(0);
        t.worker = static_cast<unsigned>(slot);
        t.ran = true;
        if (journal_)
            journal_->append(fingerprints_[cell_index],
                             results_[cell_index]);
        globalStats().addCounter(slotMetric(slot, "cells"), 1);
        w.cell = -1;
        w.deadline_us = 0;
        w.consecutive_deaths = 0;
        --outstanding_;
        ++completed_;
        if (opts_.progress) {
            std::uint64_t now = steadyNowUs();
            double elapsed_s =
                static_cast<double>(now - start_us_) / 1e6;
            double eta_s = elapsed_s / static_cast<double>(completed_) *
                           static_cast<double>(outstanding_);
            progress("[%zu/%zu] %s (eta %.1fs)", completed_,
                     completed_ + outstanding_,
                     sweepCellDisplayName(cell).c_str(), eta_s);
        }
    }

    void
    handleDeath(std::size_t slot)
    {
        WorkerProc &w = workers_[slot];
        ::close(w.cmd_fd);
        ::close(w.res_fd);
        w.cmd_fd = w.res_fd = -1;
        w.buf.clear(); // a torn partial frame is worthless
        w.alive = false;

        int status = 0;
        ::waitpid(w.pid, &status, 0);
        std::string reason = describeExit(status);
        w.pid = -1;
        globalStats().addCounter(slotMetric(slot, "deaths"), 1);

        const int cell_index = w.cell;
        w.cell = -1;
        w.deadline_us = 0;
        const std::uint64_t now = steadyNowUs();

        if (cell_index >= 0 && w.timed_out) {
            // A deadline kill is the supervisor working as designed,
            // not worker flakiness: fail the cell, never re-issue it
            // (it would only time out again), respawn immediately.
            globalStats().addCounter("runner.proc.timeouts", 1);
            recordSweepCellFailure(
                cells_[cell_index], static_cast<std::size_t>(cell_index),
                SweepFailCause::Timeout,
                "cell exceeded MNM_CELL_TIMEOUT_S=" +
                    std::to_string(opts_.cell_timeout_s) +
                    "; worker process SIGKILLed",
                results_[cell_index]);
            --outstanding_;
            w.timed_out = false;
            w.respawn_at_us = now;
            return;
        }

        ++w.consecutive_deaths;
        if (cell_index >= 0) {
            globalStats().addCounter("runner.proc.crashes", 1);
            failAttempt(slot, static_cast<std::size_t>(cell_index),
                        "worker " + reason);
        } else {
            warn("idle worker %zu %s; respawning", slot, reason.c_str());
        }

        // Exponential backoff per consecutive death of this slot, so a
        // crash-looping environment does not fork-bomb the host.
        const std::uint64_t backoff_us =
            static_cast<std::uint64_t>(opts_.worker_backoff_ms) * 1000u
            << std::min(w.consecutive_deaths - 1, 6u);
        w.respawn_at_us = now + backoff_us;
    }

    /**
     * The one failure budget: count a failed attempt of cell @p i (it
     * threw, or its worker died) and re-issue it at the queue front, so
     * it is not starved behind the remaining grid, until it has failed
     * MNM_POISON_LIMIT times; then fail it with cause "poison".
     */
    void
    failAttempt(std::size_t slot, std::size_t i, const std::string &why)
    {
        const unsigned failures = ++failures_[i];
        if (failures >= opts_.poison_limit) {
            if (journal_)
                journal_->appendPoison(fingerprints_[i], failures);
            globalStats().addCounter("runner.proc.poisoned", 1);
            recordSweepCellFailure(cells_[i], i, SweepFailCause::Poison,
                                   "failed " + std::to_string(failures) +
                                       " attempt(s); last " + why,
                                   results_[i]);
            --outstanding_;
            return;
        }
        warn("sweep cell %zu (%s) on worker %zu: %s; re-issuing "
             "(failure %u/%u)",
             i, sweepCellDisplayName(cells_[i]).c_str(), slot, why.c_str(),
             failures, opts_.poison_limit);
        pending_.push_front(static_cast<std::uint32_t>(i));
        globalStats().addCounter("runner.proc.reissues", 1);
    }

    void
    shutdown()
    {
        // EOF on the command pipe is the shutdown signal; idle workers
        // _Exit(0) on seeing it.
        for (WorkerProc &w : workers_) {
            if (!w.alive)
                continue;
            ::close(w.cmd_fd);
            ::close(w.res_fd);
            w.cmd_fd = w.res_fd = -1;
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
            w.alive = false;
        }
    }

    const std::vector<SweepCell> &cells_;
    const ExperimentOptions &opts_;
    const std::vector<std::string> &fingerprints_;
    CheckpointJournal *journal_;
    std::vector<MemSimResult> &results_;
    std::vector<SweepCellTiming> &timing_;
    std::vector<PhaseTotals> &cell_prof_;

    std::vector<WorkerProc> workers_;
    /** Per-slot sum of delivered cell profiles (prof.worker.w<k>). */
    std::vector<PhaseTotals> slot_prof_;
    /** Cell indices awaiting a worker; index order. */
    std::deque<std::uint32_t> pending_;
    /** Failed attempts per cell: the attempt number its next command
     *  frame carries. */
    std::vector<unsigned> failures_;
    std::vector<unsigned> lease_seq_;
    std::size_t outstanding_ = 0;
    std::size_t completed_ = 0;
    std::uint64_t start_us_ = 0;
};

} // anonymous namespace

void
runSweepProcPool(const std::vector<SweepCell> &cells,
                 const ExperimentOptions &opts,
                 const std::vector<std::string> &fingerprints,
                 const std::vector<char> &replayed,
                 CheckpointJournal *journal,
                 std::vector<MemSimResult> &results,
                 std::vector<SweepCellTiming> &timing,
                 std::vector<PhaseTotals> &cell_prof)
{
    ProcPoolSupervisor supervisor(cells, opts, fingerprints, journal,
                                  results, timing, cell_prof);
    supervisor.run(replayed);
}

} // namespace mnm
