#include "metrics/table.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace spardl {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  SPARDL_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') +
              " |";
    }
    return line + "\n";
  };
  std::string out = render_row(header_);
  std::string sep = "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    sep += std::string(widths[c] + 2, '-') + "|";
  }
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace spardl
