/**
 * @file
 * Extension (paper Section 4.5): MNM filtering applied to the TLBs.
 * For each workload, the data-address stream is translated through a
 * 64-entry fully-associative DTLB, with and without a TMNM-style filter
 * in front. Reported: TLB miss rate, filter coverage of those misses,
 * probe energy avoided (CAM probes skipped) net of the filter's own
 * energy, and average translation latency.
 */

#include <memory>

#include "cache/tlb.hh"
#include "core/tlb_filter.hh"
#include "harness.hh"
#include "power/sram_model.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

using namespace mnm;

namespace
{

/** One app's measurements, produced by its sweep cell. */
struct TlbRow
{
    std::vector<double> cells;
    std::uint64_t violations = 0;
};

} // anonymous namespace

int
main()
{
    SweepTableBench bench("ext_tlb_filter",
                          "Extension: TMNM_8x2 filtering a 64-entry "
                          "DTLB");
    const ExperimentOptions &opts = bench.opts();
    bench.setHeader({"app", "tlb miss%", "coverage%", "net saved%",
                     "t base", "t filt"});

    SramModel sram;
    // A 64-entry fully-associative TLB is a CAM probe per access.
    PowerDelay tlb_probe = sram.cam(64, 20);

    // Direct ParallelRunner use: a failed app aborts the bench with
    // the aggregate error list (no per-cell gap markers here).
    ParallelRunner runner(opts.jobs);
    std::vector<TlbRow> rows;
    try {
        rows = runner.map<TlbRow>(opts.apps.size(), [&](std::size_t a) {
            const std::string &app = opts.apps[a];
            TlbParams params;
            params.entries = 64;
            params.associativity = 0;

            auto batch = std::make_unique<InstructionBatch>();

            // Baseline: bare TLB.
            Tlb base(params);
            auto w1 = makeSpecWorkload(app);
            Cycles base_cycles = 0;
            std::uint64_t accesses = 0;
            forEachRecord(*w1, opts.instructions, *batch,
                          [&](const Instruction &inst) {
                              if (!inst.isMem())
                                  return;
                              base_cycles += base.translate(inst.mem_addr);
                              ++accesses;
                          });

            // Filtered: TMNM at page granularity.
            Tlb filtered(params);
            TlbFilterUnit filter(TmnmSpec{8, 2, 3}, filtered);
            auto w2 = makeSpecWorkload(app);
            Cycles filt_cycles = 0;
            forEachRecord(*w2, opts.instructions, *batch,
                          [&](const Instruction &inst) {
                              if (inst.isMem())
                                  filt_cycles +=
                                      filter.translate(inst.mem_addr);
                          });

            double base_energy =
                tlb_probe.read_energy_pj * static_cast<double>(accesses);
            double filt_energy =
                tlb_probe.read_energy_pj *
                    static_cast<double>(filtered.stats().accesses.value()) +
                filter.consumedEnergyPj();
            return TlbRow{
                {100.0 * (1.0 - base.stats().hitRate()),
                 100.0 * filter.coverage(),
                 100.0 * (base_energy - filt_energy) / base_energy,
                 ratio(static_cast<double>(base_cycles),
                       static_cast<double>(accesses)),
                 ratio(static_cast<double>(filt_cycles),
                       static_cast<double>(accesses))},
                filter.soundnessViolations()};
        });
    } catch (const SweepFailure &e) {
        fatal("%s", e.what());
    }

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        bench.addAppRow(a, rows[a].cells, 2);
        if (rows[a].violations != 0)
            warn("TLB filter violations on %s", bench.app(a).c_str());
    }
    return bench.finish(2);
}
