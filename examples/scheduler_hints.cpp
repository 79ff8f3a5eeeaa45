/**
 * @file
 * Scheduler hints: the paper's Section 4.5 sketch, made concrete. The
 * MNM's verdicts predict, before a load issues, how deep into the
 * hierarchy it will have to travel -- a load whose first k levels are
 * all "no" has a known minimum latency. An instruction scheduler can
 * use that to deprioritize dependents of long-latency loads instead of
 * discovering the miss cycles later.
 *
 * This example quantifies the quality of that hint: for every load it
 * records the MNM's predicted minimum supply level and compares it with
 * the actual supply level.
 *
 *   ./scheduler_hints [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/presets.hh"
#include "obs/manifest.hh"
#include "sim/config.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace mnm;

int
main(int argc, char **argv)
{
    initRunTelemetry("scheduler_hints");
    std::string app = argc > 1 ? argv[1] : "176.gcc";
    std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400000;

    CacheHierarchy hierarchy(paperHierarchy(5));
    MnmUnit mnm(makeHmnmSpec(4), hierarchy);
    auto workload = makeSpecWorkload(app);

    // predicted minimum supply level (1..6) x actual supply level.
    constexpr int max_level = 7;
    std::uint64_t matrix[max_level][max_level] = {};
    std::uint64_t loads = 0;
    std::uint64_t useful_hints = 0; // predicted >= L3 and correct-or-under

    auto grade = [&](const Instruction &inst) {
        if (inst.cls != InstClass::Load) {
            if (inst.isMem())
                hierarchy.access(AccessType::Store, inst.mem_addr,
                                 mnm.computeBypass(AccessType::Store,
                                                   inst.mem_addr));
            return;
        }
        BypassMask mask =
            mnm.computeBypass(AccessType::Load, inst.mem_addr);
        // The predicted minimum supply level: the first level (>= 1)
        // the MNM does NOT rule out. L1 is never predicted.
        int predicted = 1;
        for (std::uint32_t level = 2; level <= hierarchy.levels();
             ++level) {
            CacheId id =
                hierarchy.path(AccessType::Load)[level - 1];
            if (predicted == static_cast<int>(level) - 1 &&
                mask.test(id)) {
                predicted = static_cast<int>(level);
            }
        }
        // predicted==k means "definitely not in levels 2..k" (when the
        // run of consecutive bypass bits starts at level 2); the load
        // must be served at level >= predicted+1 unless it hits L1.
        AccessResult r =
            hierarchy.access(AccessType::Load, inst.mem_addr, mask);
        ++loads;
        int actual = r.supply_level;
        matrix[std::min(predicted + 1, max_level - 1)]
              [std::min(actual, max_level - 1)]++;
        if (predicted >= 2 && (actual > predicted || actual == 1))
            ++useful_hints;
    };
    auto batch = std::make_unique<InstructionBatch>();
    forEachRecord(*workload, instructions, *batch, grade);

    Table table("Scheduler hint quality for " + app +
                " (rows: predicted min supply; cols: actual)");
    table.setHeader({"pred\\actual", "L1", "L2", "L3", "L4", "L5",
                     "mem"});
    const char *row_names[max_level] = {"", "(none)", ">=L2", ">=L3",
                                        ">=L4", ">=L5", ">=mem"};
    for (int p = 1; p < max_level; ++p) {
        std::vector<double> row;
        for (int a = 1; a < max_level; ++a)
            row.push_back(static_cast<double>(matrix[p][a]));
        table.addRow(row_names[p], row, 0);
    }
    table.print();

    std::printf("loads: %llu; hints naming >=L3 that were safe "
                "(actual at/below the prediction or an L1 hit): "
                "%llu\n",
                static_cast<unsigned long long>(loads),
                static_cast<unsigned long long>(useful_hints));
    std::puts("Soundness means a hint can only UNDER-estimate the "
              "supply depth, never over-estimate it: a scheduler can "
              "trust 'at least this slow'.");
    return 0;
}
