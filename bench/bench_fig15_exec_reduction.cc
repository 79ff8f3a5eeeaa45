/**
 * @file
 * Paper Figure 15: reduction in execution cycles with a *parallel* MNM,
 * for TMNM_12x3, CMNM_8_10, HMNM2, HMNM4, and the perfect MNM, on the
 * paper's 8-way 5-level machine.
 *
 * Expected shape: every technique helps (never hurts -- the parallel
 * MNM adds no latency); ordering follows coverage (HMNM4 best among
 * real techniques); the perfect MNM roughly doubles the best hybrid's
 * gain; miss-heavy apps benefit the most.
 */

#include "core/presets.hh"
#include "harness.hh"

using namespace mnm;

int
main()
{
    SweepTableBench bench("fig15_exec_reduction",
                          "Figure 15: reduction in execution cycles, "
                          "parallel MNM [%]");
    // Variant 0 is the baseline (no MNM); the headline configs follow.
    // Warm OooCore cells: a tenth of the budget warms the hierarchy.
    bench.addVariant("base", paperHierarchy(5), std::nullopt,
                     CellModel::OooCore);
    for (const std::string &config : headlineConfigs()) {
        MnmSpec spec = mnmSpecByName(config);
        spec.placement = MnmPlacement::Parallel;
        bench.addVariant(config, paperHierarchy(5), spec,
                         CellModel::OooCore);
    }
    bench.useVariantHeader(1);
    bench.runGrid();

    // Every column is baseline-relative: a failed baseline gaps the
    // whole row, a failed config its own column.
    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        const MemSimResult &base = bench.at(a, 0);
        const double base_cycles = static_cast<double>(base.cpu.cycles);
        std::vector<double> row;
        for (std::size_t v = 1; v < bench.numVariants(); ++v) {
            const MemSimResult &r = bench.at(a, v);
            row.push_back(sweepCell(
                base, r,
                100.0 *
                    (base_cycles - static_cast<double>(r.cpu.cycles)) /
                    base_cycles));
        }
        bench.addAppRow(a, row, 2);
    }
    return bench.finish(2);
}
