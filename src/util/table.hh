/**
 * @file
 * Column-aligned table printing for the benchmark harnesses. Every bench
 * binary prints paper-style rows (one per application plus an arithmetic
 * mean) through this formatter so the output is uniform and greppable.
 * tools/extract_results.py turns the printed tables into CSV.
 */

#ifndef MNM_UTIL_TABLE_HH
#define MNM_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace mnm
{

/** A simple column-aligned text table builder. */
class Table
{
  public:
    /** @param title caption printed above the table. */
    explicit Table(std::string title);

    /** Set the column headers (fixes the column count). */
    void setHeader(const std::vector<std::string> &header);

    /** Append a row; must match the header width. */
    void addRow(const std::vector<std::string> &row);

    /** Convenience: label + numeric cells formatted to @p precision.
     *  Non-finite cells (failed sweep cells) render as "<failed>". */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 2);

    /**
     * Append an arithmetic-mean row over all numeric rows added through the
     * numeric addRow overload. Non-finite (failed) cells are excluded
     * from the mean rather than poisoning it.
     */
    void addMeanRow(const std::string &label = "Arith. Mean",
                    int precision = 2);

    /** Render as an aligned plain-text table. */
    std::string toString() const;

    /** Print toString() and a blank line to stdout. */
    void print() const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::vector<double>> numeric_rows_;
};

/** Format @p value with @p precision decimal places; non-finite
 *  values render as the "<failed>" gap marker. */
std::string formatDouble(double value, int precision);

} // namespace mnm

#endif // MNM_UTIL_TABLE_HH
