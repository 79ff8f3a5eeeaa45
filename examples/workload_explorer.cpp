/**
 * @file
 * Workload explorer: sizing an MNM for a given workload. Sweeps TMNM
 * and CMNM configurations, reporting coverage against storage budget --
 * the trade study an architect would run before committing area. The
 * candidates run concurrently on the sweep engine (MNM_JOBS workers).
 *
 *   ./workload_explorer [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>

#include "core/presets.hh"
#include "obs/manifest.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "util/table.hh"

using namespace mnm;

int
main(int argc, char **argv)
{
    initRunTelemetry("workload_explorer");
    std::string app = argc > 1 ? argv[1] : "255.vortex";
    std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400000;

    std::vector<MnmSpec> specs;
    for (std::uint32_t bits : {8u, 10u, 12u, 14u}) {
        for (std::uint32_t tables : {1u, 2u, 3u})
            specs.push_back(makeUniformSpec(TmnmSpec{bits, tables, 3}));
    }
    for (std::uint32_t regs : {2u, 4u, 8u, 16u}) {
        specs.push_back(makeUniformSpec(
            CmnmSpec{regs, 10, 3, CmnmMaskPolicy::Monotone}));
    }
    std::vector<SweepCell> cells;
    for (const MnmSpec &spec : specs)
        cells.push_back({app, paperHierarchy(5), spec, instructions,
                         spec.name});

    Table table("MNM sizing study for " + app);
    table.setHeader({"config", "storage[KB]", "coverage%",
                     "coverage%/KB"});
    std::vector<MemSimResult> results =
        runSweep(cells, ExperimentOptions::fromEnv());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const MemSimResult &r = results[i];
        double kb = static_cast<double>(r.mnm_storage_bits) / 8.0 / 1024.0;
        double coverage = r.coverage.coverage();
        table.addRow(cells[i].label,
                     {sweepCell(r, kb), sweepCell(r, 100.0 * coverage),
                      sweepCell(r, kb > 0 ? 100.0 * coverage / kb : 0.0)},
                     2);
    }
    table.print();

    std::puts("Reading the last column: coverage per kilobyte of MNM "
              "state -- the knee of the curve is where the paper's "
              "chosen configurations sit.");
    return sweepExitCode();
}
