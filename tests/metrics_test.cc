#include "metrics/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace spardl {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long header"});
  table.AddRow({"wide cell", "x"});
  const std::string out = table.ToString();
  // Three lines: header, separator, row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  // Every line has the same width.
  std::stringstream ss(out);
  std::string line;
  size_t width = 0;
  while (std::getline(ss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_NE(out.find("| wide cell |"), std::string::npos);
}

TEST(TablePrinterTest, RejectsMismatchedRow) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "");
}

}  // namespace
}  // namespace spardl
