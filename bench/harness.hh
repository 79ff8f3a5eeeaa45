/**
 * @file
 * Shared skeleton of the sweep-table benches.
 *
 * Every sweep bench in this directory has the same spine: read
 * ExperimentOptions from the environment, name the run for the
 * manifest, build a Table, register (label, hierarchy, spec) variants,
 * run the apps x variants grid through runSweep, emit one row per app
 * with gap markers for failed cells, append the arithmetic-mean row,
 * print (plain or CSV), and exit via sweepExitCode(). SweepTableBench
 * hoists that spine so each bench states only what is unique to it:
 * its variants, its metric, and any custom row layout.
 *
 * Output is produced by the same Table/sweepCell/sweepExitCode calls
 * the benches previously made directly, so adopting the harness changes
 * no bytes on stdout.
 */

#ifndef MNM_BENCH_HARNESS_HH
#define MNM_BENCH_HARNESS_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "util/table.hh"

namespace mnm
{

/** One bench's options, run name, table, variants, and results. */
class SweepTableBench
{
  public:
    /**
     * @param run_name manifest run name (MNM_STATS_JSON meta block)
     * @param title    printed table title
     */
    SweepTableBench(const std::string &run_name, const std::string &title)
        : opts_(ExperimentOptions::fromEnv()), table_(title)
    {
        setRunName(run_name);
    }

    ExperimentOptions &opts() { return opts_; }
    const ExperimentOptions &opts() const { return opts_; }
    Table &table() { return table_; }

    /** Register one sweep variant (a table column group). Labels must
     *  be unique: they key the manifest's sweep.<label>.<app> block. */
    void addVariant(const std::string &label, const HierarchyParams &h,
                    std::optional<MnmSpec> spec = std::nullopt,
                    CellModel model = CellModel::Functional,
                    bool warm = true)
    {
        variants_.push_back({label, h, std::move(spec), model, warm});
    }

    /** Header "app" + one column per variant label, starting at
     *  variant @p first (baseline-relative benches skip column 0). */
    void useVariantHeader(std::size_t first = 0)
    {
        std::vector<std::string> header = {"app"};
        for (std::size_t v = first; v < variants_.size(); ++v)
            header.push_back(variants_[v].label);
        table_.setHeader(header);
    }

    void setHeader(const std::vector<std::string> &header)
    {
        table_.setHeader(header);
    }

    /** Run the full apps x variants grid (app-major, like the cell
     *  layout makeGridCells produces), @p instructions per cell. */
    void runGrid(std::uint64_t instructions)
    {
        results_ = runSweep(
            makeGridCells(opts_.apps, variants_, instructions), opts_);
    }
    void runGrid() { runGrid(opts_.instructions); }

    std::size_t numApps() const { return opts_.apps.size(); }
    std::size_t numVariants() const { return variants_.size(); }
    const std::string &app(std::size_t a) const { return opts_.apps[a]; }
    const std::string &variantLabel(std::size_t v) const
    {
        return variants_[v].label;
    }

    /** Result of app @p a under variant @p v (after runGrid()). */
    const MemSimResult &at(std::size_t a, std::size_t v) const
    {
        return results_[a * variants_.size() + v];
    }

    /** Add one app's row (short app name, gap markers already folded
     *  into @p row via sweepCell). */
    void addAppRow(std::size_t a, std::vector<double> row, int decimals)
    {
        table_.addRow(ExperimentOptions::shortName(opts_.apps[a]),
                      std::move(row), decimals);
    }

    /**
     * The common row shape: one column per variant, each
     * sweepCell(r, metric(r)). A failed cell's metric value is
     * discarded and the cell renders as the gap marker.
     */
    template <typename Metric>
    void addMetricRows(int decimals, Metric &&metric)
    {
        for (std::size_t a = 0; a < numApps(); ++a) {
            std::vector<double> row;
            for (std::size_t v = 0; v < numVariants(); ++v) {
                const MemSimResult &r = at(a, v);
                row.push_back(sweepCell(r, metric(r)));
            }
            addAppRow(a, std::move(row), decimals);
        }
    }

    /** Mean row, print (plain/CSV per MNM_CSV), sweep exit code. */
    int finish(int decimals)
    {
        table_.addMeanRow("Arith. Mean", decimals);
        table_.print(opts_.csv);
        return sweepExitCode();
    }

  private:
    ExperimentOptions opts_;
    Table table_;
    std::vector<SweepVariant> variants_;
    std::vector<MemSimResult> results_;
};

} // namespace mnm

#endif // MNM_BENCH_HARNESS_HH
