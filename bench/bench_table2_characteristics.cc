/**
 * @file
 * Paper Table 2: per-application characteristics on the 5-level
 * machine -- execution cycles, L1 data/instruction access counts, and
 * the per-level hit rates of all seven cache structures.
 */

#include "harness.hh"

using namespace mnm;

int
main()
{
    SweepTableBench bench("table2_characteristics",
                          "Table 2: application characteristics "
                          "(5-level machine)");
    bench.setHeader({"app", "cycles[M]", "dl1 acc[M]", "il1 acc[M]",
                     "dl1 hit%", "dl2 hit%", "il1 hit%", "il2 hit%",
                     "ul3 hit%", "ul4 hit%", "ul5 hit%"});
    // One cold OooCore cell per app, no MNM.
    bench.addVariant("base", paperHierarchy(5), std::nullopt,
                     CellModel::OooCore, /*warm=*/false);
    bench.runGrid();

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        const MemSimResult &r = bench.at(a, 0);
        const CpuRunStats &cpu = r.cpu;
        std::vector<double> row = {
            static_cast<double>(cpu.cycles) / 1e6,
            static_cast<double>(cpu.loads + cpu.stores) / 1e6,
            static_cast<double>(cpu.fetch_line_accesses) / 1e6,
        };
        for (const char *name :
             {"dl1", "dl2", "il1", "il2", "ul3", "ul4", "ul5"}) {
            double hit_rate = 0.0;
            for (const CacheSnapshot &snap : r.caches) {
                if (snap.name == name)
                    hit_rate = 100.0 * snap.hit_rate;
            }
            row.push_back(hit_rate);
        }
        for (double &value : row)
            value = sweepCell(r, value);
        bench.addAppRow(a, row, 2);
    }
    return bench.finish(2);
}
