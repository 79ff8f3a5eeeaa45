/**
 * @file
 * Extension (paper Section 4.5): MNM filtering applied to the TLBs.
 * For each workload, the data-address stream is translated through a
 * 64-entry fully-associative DTLB, with and without a TMNM-style filter
 * in front. Reported: TLB miss rate, filter coverage of those misses,
 * probe energy avoided (CAM probes skipped) net of the filter's own
 * energy, and average translation latency.
 */

#include "core/presets.hh"
#include "harness.hh"
#include "power/sram_model.hh"
#include "util/logging.hh"

using namespace mnm;

int
main()
{
    SweepTableBench bench("ext_tlb_filter",
                          "Extension: TMNM_8x2 filtering a 64-entry "
                          "DTLB");
    bench.setHeader({"app", "tlb miss%", "coverage%", "net saved%",
                     "t base", "t filt"});
    // Two cold DTLB cells per app: bare, and behind TMNM at page
    // granularity. The hierarchy is unused by DTLB cells.
    bench.addVariant("dtlb base", paperHierarchy(5), std::nullopt,
                     CellModel::Dtlb, /*warm=*/false);
    bench.addVariant("dtlb TMNM_8x2", paperHierarchy(5),
                     mnmSpecByName("TMNM_8x2"), CellModel::Dtlb,
                     /*warm=*/false);
    bench.runGrid();

    SramModel sram;
    // A 64-entry fully-associative TLB is a CAM probe per access.
    const double probe_pj = sram.cam(64, 20).read_energy_pj;

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        const MemSimResult &base = bench.at(a, 0);
        const MemSimResult &filt = bench.at(a, 1);
        // Failed cells carry no DTLB snapshot; their columns gap.
        const CacheSnapshot none;
        const CacheSnapshot &base_tlb = base.failed ? none : base.caches[0];
        const CacheSnapshot &filt_tlb = filt.failed ? none : filt.caches[0];
        const double base_energy =
            probe_pj * static_cast<double>(base.requests);
        const double filt_energy =
            probe_pj * static_cast<double>(filt_tlb.accesses) +
            filt.energy.mnm_pj;
        std::vector<double> row = {
            sweepCell(base, 100.0 * (1.0 - base_tlb.hit_rate)),
            sweepCell(filt, 100.0 * filt.coverage.coverage()),
            sweepCell(base, filt,
                      100.0 * (base_energy - filt_energy) / base_energy),
            sweepCell(base, base.avgAccessTime()),
            sweepCell(filt, filt.avgAccessTime()),
        };
        bench.addAppRow(a, row, 2);
        if (!filt.failed && filt.soundness_violations != 0)
            warn("TLB filter violations on %s", bench.app(a).c_str());
    }
    return bench.finish(2);
}
