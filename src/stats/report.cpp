#include "stats/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/assert.h"

namespace rair {

std::string formatNum(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string formatPct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, fraction * 100.0);
  return buf;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

std::size_t TextTable::addRow() {
  rows_.emplace_back(headers_.size());
  return rows_.size() - 1;
}

void TextTable::set(std::size_t row, std::size_t col, std::string value) {
  RAIR_CHECK(row < rows_.size() && col < headers_.size());
  rows_[row][col] = std::move(value);
}

void TextTable::setNum(std::size_t row, std::size_t col, double value,
                       int precision) {
  set(row, col, formatNum(value, precision));
}

void TextTable::setPct(std::size_t row, std::size_t col, double fraction,
                       int precision) {
  set(row, col, formatPct(fraction, precision));
}

void TextTable::addRow(std::vector<std::string> cells) {
  RAIR_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_)
      widths[c] = std::max(widths[c], row[c].size());
  }
  auto emitRow = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size())
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emitRow(headers_);
  std::vector<std::string> rule;
  rule.reserve(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule.emplace_back(widths[c], '-');
  emitRow(rule);
  for (const auto& row : rows_) emitRow(row);
}

std::string TextTable::toString() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace rair
