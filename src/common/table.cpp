#include "common/table.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace lbsim
{

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    // Compute column widths over header + rows.
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &row : rows_)
        grow(row);

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string &cell = i < row.size() ? row[i] : "";
            out << (i == 0 ? "| " : " ");
            out << cell << std::string(widths[i] - cell.size(), ' ')
                << " |";
        }
        out << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        for (std::size_t i = 0; i < widths.size(); ++i) {
            out << (i == 0 ? "|-" : "-");
            out << std::string(widths[i], '-') << "-|";
        }
        out << '\n';
    }
    for (const auto &row : rows_)
        emit(row);
    return out.str();
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list measure;
    va_copy(measure, args);
    std::string out(
        static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, measure)),
        '\0');
    va_end(measure);
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

std::string
fmtDouble(double value, int digits)
{
    return format("%.*f", digits, value);
}

std::string
fmtPercent(double value, int digits)
{
    return format("%.*f%%", digits, value * 100.0);
}

std::string
fmtSpeedup(double value)
{
    return format("%.2fx", value);
}

std::string
fmtKb(double bytes)
{
    return format("%.1fKB", bytes / 1024.0);
}

} // namespace lbsim
