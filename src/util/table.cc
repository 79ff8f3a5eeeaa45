#include "util/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace mnm
{

std::string
formatDouble(double value, int precision)
{
    // Non-finite values mark cells whose simulation failed (sweep
    // graceful degradation); render the gap explicitly rather than
    // printing "nan"/"inf" that looks like a result.
    if (!std::isfinite(value))
        return "<failed>";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

Table::Table(std::string title) : title_(std::move(title))
{
}

void
Table::setHeader(const std::vector<std::string> &header)
{
    MNM_ASSERT(!header.empty(), "empty table header");
    header_ = header;
}

void
Table::addRow(const std::vector<std::string> &row)
{
    MNM_ASSERT(header_.empty() || row.size() == header_.size(),
               "row width mismatch");
    rows_.push_back(row);
}

void
Table::addRow(const std::string &label, const std::vector<double> &values,
              int precision)
{
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.push_back(label);
    for (double v : values)
        row.push_back(formatDouble(v, precision));
    addRow(row);
    numeric_rows_.push_back(values);
}

void
Table::addMeanRow(const std::string &label, int precision)
{
    if (numeric_rows_.empty())
        return;
    std::size_t width = 0;
    for (const auto &r : numeric_rows_)
        width = std::max(width, r.size());
    std::vector<double> sums(width, 0.0);
    std::vector<std::uint64_t> counts(width, 0);
    for (const auto &r : numeric_rows_) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            // Failed-cell gaps (non-finite) don't poison the mean;
            // it averages the cells that completed.
            if (!std::isfinite(r[i]))
                continue;
            sums[i] += r[i];
            ++counts[i];
        }
    }
    std::vector<std::string> row;
    row.push_back(label);
    for (std::size_t i = 0; i < width; ++i) {
        double mean = counts[i] ? sums[i] / static_cast<double>(counts[i])
                                : 0.0;
        row.push_back(formatDouble(mean, precision));
    }
    addRow(row);
}

std::string
Table::toString() const
{
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    if (!header_.empty())
        grow(header_);
    for (const auto &row : rows_)
        grow(row);

    std::ostringstream out;
    out << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                out << "  ";
            out << row[i];
            // Right-pad every column except the last.
            if (i + 1 < row.size()) {
                for (std::size_t p = row[i].size(); p < widths[i]; ++p)
                    out << ' ';
            }
        }
        out << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t i = 0; i < header_.size(); ++i)
            total += widths[i] + (i ? 2 : 0);
        out << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
    return out.str();
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fflush(stdout);
}

} // namespace mnm
