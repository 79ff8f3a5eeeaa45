#include "sim/experiment.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "cache/tlb.hh"
#include "core/tlb_filter.hh"
#include "cpu/cycle_core.hh"
#include "obs/manifest.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** Parse @p env as a whole-string decimal integer in [min, max];
 *  anything else (trailing junk, overflow, empty) is fatal. */
unsigned long long
parseEnvU64(const char *name, const char *env, unsigned long long min,
            unsigned long long max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno != 0 ||
        std::isspace(static_cast<unsigned char>(env[0])) ||
        env[0] == '-') {
        fatal("%s='%s' is not an unsigned integer", name, env);
    }
    if (v < min || v > max) {
        fatal("%s=%llu is out of range [%llu, %llu]", name, v, min, max);
    }
    return v;
}

/** Parse @p env as exactly "0" or "1". */
bool
parseEnvBool(const char *name, const char *env)
{
    if (env[0] != '\0' && env[1] == '\0' &&
        (env[0] == '0' || env[0] == '1')) {
        return env[0] == '1';
    }
    fatal("%s='%s' must be 0 or 1", name, env);
    return false; // unreachable; fatal() exits
}

/** Every environment knob, each read by one getenv() in src/. */
constexpr const char *known_knobs[] = {
    "MNM_INSTRUCTIONS", "MNM_APPS",          "MNM_JOBS",
    "MNM_POISON_LIMIT", "MNM_PROGRESS",      "MNM_STATS_JSON",
    "MNM_TRACE_FILE",   "MNM_CHECKPOINT",    "MNM_CELL_TIMEOUT_S",
    "MNM_FAIL_CELL",    "MNM_REFERENCE",     "MNM_OVERLAP",
    "MNM_PROF",
};

/** fatal() on any MNM_-prefixed environment name outside known_knobs:
 *  a typo or a removed knob would otherwise be silently ignored. */
void
rejectUnknownKnobs()
{
    for (char **entry = environ; *entry; ++entry) {
        const std::string_view var(*entry);
        if (var.rfind("MNM_", 0) != 0)
            continue;
        const std::string_view name = var.substr(0, var.find('='));
        if (std::find(std::begin(known_knobs), std::end(known_knobs),
                      name) == std::end(known_knobs)) {
            fatal("unknown environment knob %.*s (sim/experiment.hh "
                  "lists the knobs)",
                  static_cast<int>(name.size()), name.data());
        }
    }
}

} // anonymous namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    rejectUnknownKnobs();
    ExperimentOptions opts;
    if (const char *env = std::getenv("MNM_INSTRUCTIONS")) {
        opts.instructions =
            parseEnvU64("MNM_INSTRUCTIONS", env, 1,
                        std::numeric_limits<unsigned long long>::max());
    }
    if (const char *env = std::getenv("MNM_APPS")) {
        std::stringstream stream(env);
        std::string app;
        while (std::getline(stream, app, ',')) {
            if (app.empty())
                continue;
            // Accept both "164.gzip" and "gzip".
            bool found = false;
            for (const std::string &full : specAllNames()) {
                if (full == app || shortName(full) == app) {
                    opts.apps.push_back(full);
                    found = true;
                    break;
                }
            }
            if (!found)
                fatal("MNM_APPS: unknown workload '%s'", app.c_str());
        }
    }
    if (opts.apps.empty())
        opts.apps = specAllNames();
    opts.jobs = jobsFromEnv();
    if (const char *env = std::getenv("MNM_PROGRESS"))
        opts.progress = parseEnvBool("MNM_PROGRESS", env);
    if (const char *env = std::getenv("MNM_CHECKPOINT"))
        opts.checkpoint = env;
    if (const char *env = std::getenv("MNM_POISON_LIMIT")) {
        opts.poison_limit = static_cast<unsigned>(
            parseEnvU64("MNM_POISON_LIMIT", env, 1, 1000));
    }
    if (const char *env = std::getenv("MNM_CELL_TIMEOUT_S")) {
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(env, &end);
        if (end == env || *end != '\0' || errno != 0 ||
            !std::isfinite(v) || v <= 0.0 || v > 86400.0) {
            fatal("MNM_CELL_TIMEOUT_S='%s' must be a number of seconds "
                  "in (0, 86400]",
                  env);
        }
        opts.cell_timeout_s = v;
    }
    if (const char *env = std::getenv("MNM_FAIL_CELL"))
        opts.fail_cell = parseCellFaultSpec(env);
    // Arm the exit-time manifest/trace writers and echo the resolved
    // configuration into the manifest. Inert when both knobs are unset.
    initRunTelemetry();
    setRunConfig(opts.instructions, opts.apps, opts.jobs);
    return opts;
}

std::string
ExperimentOptions::shortName(const std::string &app)
{
    auto dot = app.find('.');
    return dot == std::string::npos ? app : app.substr(dot + 1);
}

MemSimResult
runFunctional(const HierarchyParams &hierarchy,
              const std::optional<MnmSpec> &mnm, const std::string &app,
              std::uint64_t instructions, bool warm)
{
    MemorySimulator sim(hierarchy, mnm);
    // CI escape hatch: run every cell through the reference paths --
    // the single-step loop with virtual verdict dispatch, and the
    // per-event virtual update feed -- so stdout can be byte-diffed
    // against the batched production path.
    static const bool reference = [] {
        const char *env = std::getenv("MNM_REFERENCE");
        return env && *env && *env != '0';
    }();
    if (reference) {
        sim.setReferenceKernel(true);
        sim.setReferenceFeed(true);
    }
    auto workload = makeSpecWorkload(app);
    std::uint64_t warmup = warm ? instructions / 10 : 0;
    if (warmup)
        sim.run(*workload, warmup); // discard accounting; warm state
    return sim.run(*workload, instructions);
}

namespace
{

/** A timing-core cell: the paper's core for the cell's level count on
 *  a fresh hierarchy, warm-up window (when warm) then measured window. */
template <typename Core>
MemSimResult
runCore(const SweepCell &cell)
{
    CacheHierarchy hierarchy(cell.hierarchy);
    std::unique_ptr<MnmUnit> mnm;
    if (cell.mnm)
        mnm = std::make_unique<MnmUnit>(*cell.mnm, hierarchy);
    Core core(paperCpu(static_cast<int>(cell.hierarchy.levels.size())),
              hierarchy, mnm.get());
    auto workload = makeSpecWorkload(cell.app);
    std::uint64_t warmup = cell.warm ? cell.instructions / 10 : 0;
    if (warmup)
        core.run(*workload, warmup);

    MemSimResult result;
    const std::vector<CacheStats> start = cacheCounters(hierarchy);
    result.cpu = core.run(*workload, cell.instructions);
    result.instructions = result.cpu.instructions;
    result.caches = snapshotCaches(hierarchy);
    // What the MNM did in the measured window, as a functional cell
    // reports it (the timing cells report no energy).
    WindowCounts counts = countWindow(hierarchy, mnm.get(), start);
    result.coverage = counts.coverage;
    result.decisions = counts.decisions;
    if (mnm) {
        result.soundness_violations = mnm->soundnessViolations();
        result.mnm_storage_bits = mnm->storageBits();
        result.verdicts = mnm->verdicts();
        result.feed_events = mnm->feedEvents();
    }
    return result;
}

/** A DTLB cell: the data-address stream through a 64-entry fully
 *  associative DTLB, bare or behind the spec's single filter. */
MemSimResult
runDtlb(const SweepCell &cell)
{
    TlbParams params;
    params.name = "dtlb";
    params.entries = 64;
    params.associativity = 0;
    Tlb tlb(params);
    std::unique_ptr<TlbFilterUnit> filter;
    if (cell.mnm) {
        const std::vector<LevelFilters> &lf = cell.mnm->level_filters;
        if (cell.mnm->rmnm || cell.mnm->perfect || lf.size() != 1 ||
            lf[0].filters.size() != 1) {
            throw std::invalid_argument(
                "a DTLB cell takes an MNM spec with exactly one filter, "
                "not " + cell.mnm->name);
        }
        filter = std::make_unique<TlbFilterUnit>(lf[0].filters[0], tlb);
    }

    auto workload = makeSpecWorkload(cell.app);
    auto batch = std::make_unique<InstructionBatch>();
    MemSimResult result;
    auto window = [&](std::uint64_t count, bool measured) {
        forEachRecord(*workload, count, *batch, [&](const Instruction &i) {
            if (!i.isMem())
                return;
            Cycles cycles = filter ? filter->translate(i.mem_addr)
                                   : tlb.translate(i.mem_addr);
            if (measured) {
                ++result.requests;
                result.total_access_cycles += cycles;
            }
        });
    };
    if (cell.warm)
        window(cell.instructions / 10, false);
    // The filter's coverage and energy cover the measured window, so
    // the warm-up's share is subtracted; caches[0] is cumulative over
    // the cell, as it is for every other cell model.
    const std::uint64_t id_before = filter ? filter->identified() : 0;
    const std::uint64_t un_before = filter ? filter->unidentified() : 0;
    const PicoJoules pj_before = filter ? filter->consumedEnergyPj() : 0.0;
    window(cell.instructions, true);

    const TlbStats &stats = tlb.stats();
    CacheSnapshot snap;
    snap.name = params.name;
    snap.level = 1;
    snap.accesses = stats.accesses.value();
    snap.hits = stats.hits.value();
    snap.misses = stats.misses.value();
    snap.bypasses = stats.bypasses.value();
    snap.hit_rate = ratio(static_cast<double>(snap.hits),
                          static_cast<double>(snap.accesses));
    result.caches.push_back(snap);
    result.instructions = cell.instructions;
    if (filter) {
        result.coverage.add(1, filter->identified() - id_before,
                            filter->unidentified() - un_before);
        result.energy.mnm_pj = filter->consumedEnergyPj() - pj_before;
        result.soundness_violations = filter->soundnessViolations();
    }
    return result;
}

} // anonymous namespace

MemSimResult
runCell(const SweepCell &cell)
{
    switch (cell.model) {
    case CellModel::Functional:
        break;
    case CellModel::OooCore:
        return runCore<OooCore>(cell);
    case CellModel::CycleCore:
        return runCore<CycleOooCore>(cell);
    case CellModel::Dtlb:
        return runDtlb(cell);
    }
    return runFunctional(cell.hierarchy, cell.mnm, cell.app,
                         cell.instructions, cell.warm);
}

} // namespace mnm
