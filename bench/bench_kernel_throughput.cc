/**
 * @file
 * Simulation-kernel throughput: functional-mode instructions per second
 * for representative MNM configurations on the paper's 5-level machine.
 *
 * This bench measures the simulator, not the simulated machine: its
 * numbers are wall-clock dependent and NOT byte-stable across runs, so
 * it is deliberately excluded from the CI byte-diff that guards every
 * other bench. It seeds and guards the kernel's performance trajectory
 * instead: with MNM_BENCH_JSON=<path> it writes a machine-readable
 * summary (schema mnm-kernel-bench-v2), which CI's Release job compares
 * against the committed BENCH_kernel.json baseline via
 * tools/extract_results.py --perf.
 *
 * Schema v2 keys each cell by (config, backend). The backend key is
 * "scalar-soa" -- the SoA verdict program, the one production verdict
 * -- for filter configs and "n/a" for the bare hierarchy and the
 * perfect oracle, which run no filter verdicts.
 *
 * Methodology: every cell owns one simulator; after
 * a warm-up run, the cell is measured in MNM_BENCH_ROUNDS consecutive
 * rounds of MNM_INSTRUCTIONS each and reports its best round (minimum
 * time). Rounds run back-to-back per cell -- interleaving cells would
 * evict each cell's tag arrays and filter tables from the LLC between
 * its rounds, measuring the machine's cache size instead of the
 * kernel -- and min-time is the standard robust throughput estimator
 * under external noise: slowdowns from host contention are one-sided,
 * so the fastest observed round is the closest to the kernel's true
 * cost.
 *
 * Knobs: MNM_INSTRUCTIONS (measured window per round), MNM_BENCH_ROUNDS
 * (rounds; default 5), MNM_APPS (the first named workload drives the
 * measurement; default 164.gzip), and MNM_BENCH_JSON (summary path;
 * unset = table only).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

using namespace mnm;

namespace
{

/** One measured configuration: a paper label or "off" (no MNM). */
struct KernelConfig
{
    const char *label;
    bool mnm_enabled;
    /** The cell's schema-v2 backend key. */
    const char *backend_role;
};

constexpr KernelConfig kernel_configs[] = {
    {"off", false, "n/a"},              //!< bare hierarchy: the floor
    {"RMNM_2048_4", true, "scalar-soa"}, //!< shared replacement tracker
    {"TMNM_13x2", true, "scalar-soa"},   //!< per-cache counting tables
    {"HMNM4", true, "scalar-soa"},       //!< widest hybrid (headline)
    {"Perfect", true, "n/a"},            //!< oracle: contains(), no filters
};

/** One measurement cell and its live simulator. */
struct Cell
{
    std::string config;
    std::string backend_role; //!< "scalar-soa" / "n/a"
    std::unique_ptr<MemorySimulator> sim;
    std::unique_ptr<WorkloadGenerator> workload;
    double best_instr_per_sec = 0.0;
    /** Phase attribution over this cell's measured rounds (MNM_PROF
     *  active only; warm-up excluded). */
    PhaseTotals prof;
};

double
measureWindow(Cell &cell, std::uint64_t instructions)
{
    auto start = std::chrono::steady_clock::now();
    MemSimResult result = cell.sim->run(*cell.workload, instructions);
    auto stop = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds <= 0.0)
        fatal("kernel bench measured a non-positive interval; raise "
              "MNM_INSTRUCTIONS");
    return static_cast<double>(result.instructions) / seconds;
}

/** Optional per-cell JSON suffix: phase shares when MNM_PROF is active
 *  ("" otherwise, keeping the summary byte-identical with knobs unset).
 *  Additive to schema v2 -- the perf gate reads instr_per_sec only. */
std::string
profSharesJson(const PhaseTotals &totals)
{
    const std::uint64_t total = totals.totalTicks();
    if (total == 0)
        return "";
    std::string out = ", \"prof\": {";
    bool first = true;
    for (int p = 0; p < num_phases; ++p) {
        if (totals.phase[p].ticks == 0)
            continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f",
                      first ? "" : ", ",
                      phaseName(static_cast<Phase>(p)),
                      static_cast<double>(totals.phase[p].ticks) /
                          static_cast<double>(total));
        out += buf;
        first = false;
    }
    out += "}";
    return out;
}

std::uint64_t
roundsFromEnv()
{
    const char *value = std::getenv("MNM_BENCH_ROUNDS");
    if (!value || !*value)
        return 5;
    char *end = nullptr;
    unsigned long long rounds = std::strtoull(value, &end, 10);
    if (!end || *end || rounds == 0)
        fatal("MNM_BENCH_ROUNDS must be a positive integer, got '%s'",
              value);
    return rounds;
}

} // anonymous namespace

int
main()
{
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    std::string app = opts.apps.empty() ? "164.gzip" : opts.apps.front();
    const std::uint64_t rounds = roundsFromEnv();

    std::vector<Cell> cells;
    for (const KernelConfig &config : kernel_configs) {
        Cell cell;
        cell.config = config.label;
        cell.backend_role = config.backend_role;
        std::optional<MnmSpec> spec;
        if (config.mnm_enabled)
            spec = mnmSpecByName(config.label);
        cell.sim =
            std::make_unique<MemorySimulator>(paperHierarchy(5), spec);
        cell.workload = makeSpecWorkload(app);
        cells.push_back(std::move(cell));
    }

    for (Cell &cell : cells) {
        // Warm the cell's caches and filters outside the timed rounds,
        // mirroring runFunctional()'s 10% warm-up discipline.
        cell.sim->run(*cell.workload, opts.instructions / 10);
        const PhaseTotals prof_before = threadPhaseTotals();
        for (std::uint64_t round = 0; round < rounds; ++round) {
            double ips = measureWindow(cell, opts.instructions);
            if (ips > cell.best_instr_per_sec)
                cell.best_instr_per_sec = ips;
        }
        if (profActive()) {
            cell.prof =
                phaseTotalsDelta(prof_before, threadPhaseTotals());
            foldPhaseTotals(
                globalStats(), cell.prof,
                "prof.cell." + sanitizeMetricSegment(cell.config) + "." +
                    sanitizeMetricSegment(cell.backend_role));
        }
    }

    std::printf("== Kernel throughput (%s, %llu instructions/round, "
                "best of %llu rounds) ==\n",
                app.c_str(),
                static_cast<unsigned long long>(opts.instructions),
                static_cast<unsigned long long>(rounds));
    std::printf("%-12s  %-12s  %14s\n", "config", "backend",
                "instr_per_sec");
    for (const Cell &cell : cells) {
        std::printf("%-12s  %-12s  %14.0f\n", cell.config.c_str(),
                    cell.backend_role.c_str(),
                    cell.best_instr_per_sec);
    }

    const char *json_path = std::getenv("MNM_BENCH_JSON");
    if (json_path && *json_path) {
        std::FILE *f = std::fopen(json_path, "w");
        if (!f)
            fatal("cannot write MNM_BENCH_JSON file '%s'", json_path);
        std::fprintf(f, "{\n  \"schema\": \"mnm-kernel-bench-v2\",\n");
        std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
        std::fprintf(f, "  \"instructions\": %llu,\n",
                     static_cast<unsigned long long>(opts.instructions));
        std::fprintf(f, "  \"rounds\": %llu,\n",
                     static_cast<unsigned long long>(rounds));
        std::fprintf(f, "  \"estimator\": \"best-of-rounds\",\n");
        std::fprintf(f, "  \"configs\": {\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            bool open = i == 0 || cells[i].config != cells[i - 1].config;
            bool close = i + 1 == cells.size() ||
                         cells[i + 1].config != cells[i].config;
            if (open)
                std::fprintf(f, "    \"%s\": {\n",
                             cells[i].config.c_str());
            std::fprintf(f,
                         "      \"%s\": {\"instr_per_sec\": %.0f%s}%s\n",
                         cells[i].backend_role.c_str(),
                         cells[i].best_instr_per_sec,
                         profSharesJson(cells[i].prof).c_str(),
                         close ? "" : ",");
            if (close) {
                std::fprintf(f, "    }%s\n",
                             i + 1 == cells.size() ? "" : ",");
            }
        }
        std::fprintf(f, "  }\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "kernel bench summary written to %s\n",
                     json_path);
    }
    return 0;
}
