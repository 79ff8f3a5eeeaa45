/**
 * @file
 * mnm_perfbench: run one benchmark workload for a time budget and write
 * the raw measurements as JSON. run.py builds this program, runs it and
 * turns its output into the benchmark's metrics.
 *
 *   mnm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --out PATH [--trace-file PATH] [--budget N]
 *
 * --budget replaces the workload's measured-window instructions per
 * cell; the benchmark never passes it, budget_check.py does.
 *
 * The grid is run in passes: every pass builds and runs every cell
 * once, and passes repeat until S seconds of passes have elapsed (at
 * least min_passes). After the timed passes, a fixed sample of
 * functional cells is re-run through the reference kernel and feed and
 * compared counter for counter. With --trace 1 each cell also records
 * spans and generator timings, the MNM_PROF phase profile is read out,
 * and the layer replay runs; the spans go to --trace-file.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "trace/batch_pipeline.hh"
#include "tracing.hh"

using namespace perfbench;

namespace
{

constexpr unsigned min_passes = 3;
/** Instructions each replay sample drives through the layer calls. */
constexpr std::uint64_t replay_instructions = 50'000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out;
    std::string trace_file;
    std::uint64_t budget = 0; //!< 0: the workload's own
};

bool
parseUnsigned(const char *text, std::uint64_t &value)
{
    char *end = nullptr;
    if (!*text || *text == '-')
        return false;
    value = std::strtoull(text, &end, 10);
    return *end == '\0';
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        std::uint64_t n = 0;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed" && parseUnsigned(val, n)) {
            a.seed = n;
            have_seed = true;
        } else if (key == "--seconds" && parseUnsigned(val, n) && n > 0) {
            a.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (key == "--trace" && parseUnsigned(val, n) && n <= 1) {
            a.trace = n == 1;
        } else if (key == "--out") {
            a.out = val;
        } else if (key == "--trace-file") {
            a.trace_file = val;
        } else if (key == "--budget" && parseUnsigned(val, n) && n > 0) {
            a.budget = n;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_seed &&
           have_seconds && !a.out.empty();
}

unsigned
hostThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct PassRecord
{
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<CellOutcome> cells;
};

void
writeSums(mnm::JsonWriter &j, const char *key, const Sums &sums)
{
    j.key(key);
    j.beginObject();
    for (const auto &[name, value] : sums)
        j.field(name, value);
    j.endObject();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: mnm_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --out PATH "
                     "[--trace-file PATH] [--budget N]\n");
        return 2;
    }
    const unsigned nproc = hostThreads();
    std::optional<Workload> wl = makeWorkload(args.workload, nproc);
    if (!wl) {
        std::fprintf(stderr, "mnm_perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    if (args.budget)
        wl->budget = args.budget;
    const Workload &w = *wl;
    if (args.trace)
        mnm::initPhaseProfiler(); // MNM_PROF=time comes from run.py

    const std::size_t n = w.cells();
    const bool functional = w.variants.front().kind == CellKind::Functional;
    // Reference sample: one app per variant, spread over the apps.
    std::set<std::size_t> sample;
    if (functional) {
        for (std::size_t v = 0; v < w.variants.size(); ++v)
            sample.insert((v % w.apps.size()) * w.variants.size() + v);
    }

    mnm::ParallelRunner runner(w.workers);
    mnm::TraceLog spans;
    Sums layers;
    std::vector<PassRecord> passes;
    std::vector<CellOutcome> kept(n);
    std::vector<std::uint64_t> digest0(n);
    std::vector<bool> have_digest0(n, false);
    std::uint64_t attempted = 0, failed = 0, checks = 0, checks_failed = 0;
    std::map<std::string, std::uint64_t> failures;

    double elapsed = 0;
    for (unsigned pass = 0;
         pass < min_passes ? elapsed < 3 * args.seconds
                           : elapsed < args.seconds;
         ++pass) {
        PassRecord rec;
        rec.cells.resize(n);
        const double cpu0 = cpuSeconds();
        const std::uint64_t t0 = nowNs();
        auto errors = runner.run(n, [&](std::size_t i) {
            std::optional<CellTrace> tr;
            if (args.trace)
                tr.emplace(static_cast<std::uint32_t>(i), pass);
            const double start = static_cast<double>(nowNs() - t0) / 1e9;
            CellOutcome out = runCell(w, i, args.seed, tr ? &*tr : nullptr,
                                      pass == 0 && sample.count(i));
            out.start_s = start;
            out.end_s = static_cast<double>(nowNs() - t0) / 1e9;
            out.worker = mnm::ParallelRunner::currentWorker();
            if (tr)
                tr->flushTo(spans);
            rec.cells[i] = std::move(out);
        });
        rec.wall_s = static_cast<double>(nowNs() - t0) / 1e9;
        rec.cpu_s = cpuSeconds() - cpu0;
        elapsed += rec.wall_s;

        for (std::size_t i = 0; i < n; ++i) {
            ++attempted;
            CellOutcome &c = rec.cells[i];
            if (errors[i] || !c.ran) {
                std::string what = "cell threw";
                try {
                    if (errors[i])
                        std::rethrow_exception(errors[i]);
                } catch (const std::exception &e) {
                    what += std::string(": ") + e.what();
                } catch (...) {
                }
                ++failures[what];
                ++failed;
                c.ran = false;
                continue;
            }
            if (have_digest0[i]) {
                ++c.checks;
                if (c.digest != digest0[i])
                    c.failures.push_back("outputs identical across passes");
            } else {
                digest0[i] = c.digest;
                have_digest0[i] = true;
            }
            checks += c.checks;
            checks_failed += c.failures.size();
            for (const std::string &f : c.failures)
                ++failures[w.variantOf(i).label + ": " + f];
            if (!c.failures.empty())
                ++failed;
            addSums(layers, c.layers);
            if (c.measured) {
                kept[i].warm = std::move(c.warm);
                kept[i].measured = std::move(c.measured);
            }
        }
        passes.push_back(std::move(rec));
    }

    // Phase shares cover the timed passes only.
    Sums prof;
    if (args.trace && mnm::profActive()) {
        mnm::flushThreadProf();
        mnm::PhaseTotals totals = mnm::globalPhaseTotals();
        for (int p = 0; p < mnm::num_phases; ++p) {
            prof[mnm::phaseName(static_cast<mnm::Phase>(p))] =
                static_cast<double>(totals.phase[p].ticks);
        }
    }

    // Reference re-run of the sample, outside the timed window.
    std::vector<std::size_t> ref(sample.begin(), sample.end());
    std::vector<std::vector<std::string>> mismatch(ref.size());
    auto ref_errors = runner.run(ref.size(), [&](std::size_t k) {
        mismatch[k] =
            referenceMismatches(w, ref[k], args.seed, kept[ref[k]]);
    });
    for (std::size_t k = 0; k < ref.size(); ++k) {
        ++attempted;
        ++checks;
        const std::string label = w.variantOf(ref[k]).label;
        if (ref_errors[k]) {
            ++failures[label + ": reference re-run threw"];
        } else if (!mismatch[k].empty()) {
            ++failures[label + ": reference kernel+feed: " +
                       mismatch[k].front()];
        } else {
            continue;
        }
        ++checks_failed;
        ++failed;
    }

    Sums replay;
    if (args.trace) {
        replay = layerReplay(w, args.seed, replay_instructions);
        if (!args.trace_file.empty()) {
            std::ofstream out(args.trace_file);
            spans.write(out);
            if (!out.flush()) {
                std::fprintf(stderr, "mnm_perfbench: cannot write %s\n",
                             args.trace_file.c_str());
                return 1;
            }
        }
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream file(args.out);
    {
        mnm::JsonWriter j(file, /*pretty=*/false);
        j.beginObject();
        j.field("workload", w.name);
        j.field("seed", args.seed);
        j.field("trace", args.trace);
        j.field("nproc", nproc);
        j.field("workers", w.workers);
        j.field("threads", w.workers * w.threads_per_worker);
        j.field("overlap", mnm::overlapFromEnv() ? "on" : "off");
        j.field("budget", w.budget);
        j.field("warmup", warmupOf(w.budget));
        j.field("cells", static_cast<std::uint64_t>(n));
        // Cell i runs variant i % variants (budget_check.py reads it).
        j.key("variants");
        j.beginArray();
        for (const Variant &v : w.variants)
            j.value(v.label);
        j.endArray();
        j.key("passes");
        j.beginArray();
        for (const PassRecord &p : passes) {
            j.beginObject();
            j.field("wall_s", p.wall_s);
            j.field("cpu_s", p.cpu_s);
            // Each cell: [start_s, end_s, worker, setup_s, instructions,
            // cpu_s]; failed cells are left out.
            j.key("cells");
            j.beginArray();
            for (const CellOutcome &c : p.cells) {
                if (!c.ran)
                    continue;
                j.beginArray();
                j.value(c.start_s);
                j.value(c.end_s);
                j.value(c.worker);
                j.value(c.setup_s);
                j.value(c.instructions);
                j.value(c.cpu_s);
                j.endArray();
            }
            j.endArray();
            j.endObject();
        }
        j.endArray();
        j.field("attempted", attempted);
        j.field("failed", failed);
        j.field("checks", checks);
        j.field("checks_failed", checks_failed);
        j.field("reference_cells", static_cast<std::uint64_t>(ref.size()));
        j.key("failures");
        j.beginObject();
        for (const auto &[what, count] : failures)
            j.field(what, count);
        j.endObject();
        j.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
        if (args.trace) {
            writeSums(j, "layers", layers);
            writeSums(j, "replay", replay);
            writeSums(j, "prof_ticks", prof);
        }
        j.endObject();
    }
    file << '\n';
    if (!file.flush()) {
        std::fprintf(stderr, "mnm_perfbench: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    return 0;
}
