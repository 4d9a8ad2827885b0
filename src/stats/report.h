// Plain-text table reporting used by campaigns and examples to print
// paper-style result rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace rair {

/// A simple fixed-column text table. Cells are strings; numeric helpers
/// format with fixed precision. Rendered with column alignment:
///
///   scheme        App 0    App 1    mean
///   ------------  -------  -------  -------
///   RO_RR         41.25    63.10    52.17
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row; returns its index.
  std::size_t addRow();

  void set(std::size_t row, std::size_t col, std::string value);
  void setNum(std::size_t row, std::size_t col, double value,
              int precision = 2);
  /// Formats as a signed percentage, e.g. "+12.4%".
  void setPct(std::size_t row, std::size_t col, double fraction,
              int precision = 1);

  /// Convenience: append a full row of cells.
  void addRow(std::vector<std::string> cells);

  void print(std::ostream& os) const;
  std::string toString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for ad-hoc prints).
std::string formatNum(double value, int precision = 2);

/// Formats a fraction as signed percent: 0.124 -> "+12.4%".
std::string formatPct(double fraction, int precision = 1);

/// Renders the aggregate router/arbitration counters of an instrumented
/// run (VA/SA grants split native vs. foreign with shares, escape-VC
/// allocations, switch traversals, DPA priority flips, delivery census) as
/// a paper-style text table.
std::string renderMetricsSummary(const metrics::MetricsSummary& summary);

}  // namespace rair
