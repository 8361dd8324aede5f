/**
 * @file
 * Text-table rendering used by the figure drivers to print paper-style
 * rows.
 */

#pragma once

#include <string>
#include <vector>

namespace lbsim
{

/**
 * Accumulates rows of string cells and renders them as an aligned text
 * table for the console.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> cells);

    /** Append a data row. */
    void addRow(std::vector<std::string> cells);

    /** Render as an aligned, pipe-separated text table. */
    std::string render() const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf() into a string. */
[[gnu::format(printf, 1, 2)]] std::string format(const char *fmt, ...);

/** Format @p value with @p digits fractional digits. */
std::string fmtDouble(double value, int digits = 2);

/** Format @p value as a percentage with @p digits fractional digits. */
std::string fmtPercent(double value, int digits = 1);

/** Format a normalized speedup like "1.29x". */
std::string fmtSpeedup(double value);

/** Format a byte quantity as KB with one fractional digit. */
std::string fmtKb(double bytes);

} // namespace lbsim
