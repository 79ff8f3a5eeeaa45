/**
 * @file
 * Power study: where does the cache energy go, and what does a serial
 * MNM buy back? Reproduces the paper's Section 4.4 methodology for one
 * workload with a full breakdown: per-bucket dynamic energy without and
 * with each headline MNM configuration.
 *
 *   ./power_study [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/presets.hh"
#include "obs/manifest.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace mnm;

int
main(int argc, char **argv)
{
    initRunTelemetry("power_study");
    std::string app = argc > 1 ? argv[1] : "181.mcf";
    std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400000;

    // Baseline plus every headline config as one parallel sweep.
    std::vector<SweepCell> cells = {
        {app, paperHierarchy(5), std::nullopt, instructions,
         "baseline"}};
    for (const std::string &config : headlineConfigs()) {
        MnmSpec spec = mnmSpecByName(config);
        spec.placement = MnmPlacement::Serial;
        cells.push_back(
            {app, paperHierarchy(5), spec, instructions, config});
    }
    // App and budget come from argv; execution knobs (jobs, checkpoint,
    // poison limit, cell timeout) from the environment like every bench.
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    std::vector<MemSimResult> results = runSweep(cells, opts);
    const MemSimResult &base = results[0];

    Table table("Serial-MNM energy breakdown for " + app + " [uJ]");
    table.setHeader({"config", "hit probes", "miss probes", "fills",
                     "mnm", "total", "saved%"});
    auto add = [&](const std::string &label, const MemSimResult &r) {
        // saved% is baseline-relative; gap it when either cell failed.
        double saved =
            (base.failed || r.failed)
                ? std::numeric_limits<double>::quiet_NaN()
                : 100.0 * (base.energy.total() - r.energy.total()) /
                      base.energy.total();
        table.addRow(label,
                     {sweepCell(r, r.energy.probe_hit_pj / 1e6),
                      sweepCell(r, r.energy.probe_miss_pj / 1e6),
                      sweepCell(r, r.energy.fill_pj / 1e6),
                      sweepCell(r, r.energy.mnm_pj / 1e6),
                      sweepCell(r, r.energy.total() / 1e6), saved},
                     2);
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        add(cells[i].label, results[i]);
    table.print();

    std::puts("Notes: 'miss probes' is the waste the MNM attacks; "
              "'mnm' is what it costs. Perfect is the zero-cost oracle "
              "bound (paper Section 4.4).");
    return sweepExitCode();
}
