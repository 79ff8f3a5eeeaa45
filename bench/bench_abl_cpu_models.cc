/**
 * @file
 * Ablation: the two core models. The benches use the fast one-pass
 * dataflow model (ooo_core); the cycle-driven model (cycle_core) is the
 * reference. This bench shows that both produce the same *relative*
 * story for Figure 15 -- baseline > HMNM4 > Perfect in cycles -- and
 * reports how far apart their absolute IPCs sit.
 */

#include <memory>

#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "harness.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

using namespace mnm;

namespace
{

template <typename Core>
Cycles
runCore(const std::string &app, const std::string &config,
        std::uint64_t instructions)
{
    CacheHierarchy hierarchy(paperHierarchy(5));
    std::unique_ptr<MnmUnit> mnm;
    if (!config.empty())
        mnm = std::make_unique<MnmUnit>(mnmSpecByName(config), hierarchy);
    Core core(paperCpu(5), hierarchy, mnm.get());
    auto workload = makeSpecWorkload(app);
    return core.run(*workload, instructions).cycles;
}

} // anonymous namespace

int
main()
{
    SweepTableBench bench("abl_cpu_models",
                          "Ablation: dataflow vs cycle-driven core "
                          "(cycle-reduction %, both models)");
    const ExperimentOptions &opts = bench.opts();
    // The cycle model costs ~1.7x the host time per instruction; cap
    // the per-app budget.
    std::uint64_t n = std::min<std::uint64_t>(opts.instructions, 500000);

    bench.setHeader({"app", "df HMNM4", "cyc HMNM4", "df Perfect",
                     "cyc Perfect", "ipc ratio"});

    // Six timing runs per app (2 core models x 3 configs), flattened
    // into one cell grid so every run parallelizes independently.
    const char *configs[] = {"", "HMNM4", "Perfect"};
    constexpr std::size_t kinds = 6;
    ParallelRunner runner(opts.jobs);
    std::vector<Cycles> cycles;
    try {
        cycles = runner.map<Cycles>(
            opts.apps.size() * kinds, [&](std::size_t i) {
                const std::string &app = opts.apps[i / kinds];
                std::size_t k = i % kinds;
                const char *config = configs[k % 3];
                return k < 3 ? runCore<OooCore>(app, config, n)
                             : runCore<CycleOooCore>(app, config, n);
            });
    } catch (const SweepFailure &e) {
        fatal("%s", e.what());
    }

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        const Cycles *c = &cycles[a * kinds];
        Cycles df_base = c[0], df_hmnm = c[1], df_perf = c[2];
        Cycles cy_base = c[3], cy_hmnm = c[4], cy_perf = c[5];

        auto reduction = [](Cycles base, Cycles with) {
            return 100.0 *
                   (static_cast<double>(base) -
                    static_cast<double>(with)) /
                   static_cast<double>(base);
        };
        bench.addAppRow(a,
                        {reduction(df_base, df_hmnm),
                         reduction(cy_base, cy_hmnm),
                         reduction(df_base, df_perf),
                         reduction(cy_base, cy_perf),
                         static_cast<double>(cy_base) /
                             static_cast<double>(df_base)},
                        2);
    }
    return bench.finish(2);
}
