/**
 * @file
 * Ablation: the two core models. The benches use the fast one-pass
 * dataflow model (ooo_core); the cycle-driven model (cycle_core) is the
 * reference. This bench shows that both produce the same *relative*
 * story for Figure 15 -- baseline > HMNM4 > Perfect in cycles -- and
 * reports how far apart their absolute IPCs sit.
 */

#include <algorithm>

#include "core/presets.hh"
#include "harness.hh"

using namespace mnm;

int
main()
{
    SweepTableBench bench("abl_cpu_models",
                          "Ablation: dataflow vs cycle-driven core "
                          "(cycle-reduction %, both models)");
    bench.setHeader({"app", "df HMNM4", "cyc HMNM4", "df Perfect",
                     "cyc Perfect", "ipc ratio"});

    // Six cold timing cells per app: 2 core models x 3 configs.
    const std::pair<const char *, CellModel> models[] = {
        {"df", CellModel::OooCore}, {"cyc", CellModel::CycleCore}};
    for (const auto &[tag, model] : models) {
        for (const char *config : {"base", "HMNM4", "Perfect"}) {
            std::optional<MnmSpec> spec;
            if (config != std::string("base"))
                spec = mnmSpecByName(config);
            bench.addVariant(std::string(tag) + " " + config,
                             paperHierarchy(5), spec, model,
                             /*warm=*/false);
        }
    }
    // The cycle model costs ~1.7x the host time per instruction; cap
    // the per-app budget.
    bench.runGrid(std::min<std::uint64_t>(bench.opts().instructions,
                                          500000));

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        auto cycles = [&](std::size_t v) {
            return static_cast<double>(bench.at(a, v).cpu.cycles);
        };
        // Every column reads two cells; either failure gaps it.
        auto reduction = [&](std::size_t base, std::size_t with) {
            return sweepCell(bench.at(a, base), bench.at(a, with),
                             100.0 * (cycles(base) - cycles(with)) /
                                 cycles(base));
        };
        bench.addAppRow(a,
                        {reduction(0, 1), reduction(3, 4), reduction(0, 2),
                         reduction(3, 5),
                         sweepCell(bench.at(a, 0), bench.at(a, 3),
                                   cycles(3) / cycles(0))},
                        2);
    }
    return bench.finish(2);
}
