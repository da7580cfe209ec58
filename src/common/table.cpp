#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hpp"

namespace mcbp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        panic("table row arity mismatch: got " +
              std::to_string(row.size()) + " columns, expected " +
              std::to_string(header_.size()));
    rows_.push_back(std::move(row));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << "\n";
    };

    emit(header_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ",";
            os << row[c];
        }
        os << "\n";
    };
    emit(header_);
    for (const auto &row : rows_)
        emit(row);
}

std::string
fmt(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
fmtPct(double fraction, int decimals)
{
    return fmt(fraction * 100.0, decimals) + "%";
}

std::string
fmtX(double v, int decimals)
{
    return fmt(v, decimals) + "x";
}

} // namespace mcbp
