#include "common/table_printer.h"

#include <gtest/gtest.h>

namespace dgcl {
namespace {

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::string out = table.Render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_NE(out.find("| 22 "), std::string::npos);
}

TEST(TablePrinterTest, TitleAppearsFirst) {
  TablePrinter table({"x"});
  table.AddRow({"1"});
  std::string out = table.Render("Table 1. Link speeds");
  EXPECT_EQ(out.rfind("Table 1. Link speeds\n", 0), 0u);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  std::string out = table.Render();
  // Three columns in every body row.
  size_t row_start = out.find("| only");
  ASSERT_NE(row_start, std::string::npos);
  size_t row_end = out.find('\n', row_start);
  std::string row = out.substr(row_start, row_end - row_start);
  EXPECT_EQ(std::count(row.begin(), row.end(), '|'), 4);
}

TEST(TablePrinterTest, ColumnsAlign) {
  TablePrinter table({"k", "v"});
  table.AddRow({"aa", "1"});
  table.AddRow({"bbbb", "2"});
  std::string out = table.Render();
  // Every line has the same length.
  size_t expected = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    size_t next = out.find('\n', pos);
    ASSERT_NE(next, std::string::npos);
    EXPECT_EQ(next - pos, expected);
    pos = next + 1;
  }
}

TEST(TablePrinterTest, MultiByteCellsAlignByCodePoint) {
  TablePrinter table({"speedup", "shape"});
  table.AddRow({"—", "n×16"});
  table.AddRow({"3.3x", "n*16"});
  std::string out = table.Render();
  EXPECT_NE(out.find("| —       | n×16  |\n"), std::string::npos) << out;
  EXPECT_NE(out.find("| 3.3x    | n*16  |\n"), std::string::npos) << out;
}

TEST(TablePrinterTest, FmtFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::FmtInt(-42), "-42");
}

TEST(TablePrinterTest, FmtBytesScalesUnits) {
  EXPECT_EQ(TablePrinter::FmtBytes(512), "512.00 B");
  EXPECT_EQ(TablePrinter::FmtBytes(2048), "2.00 KiB");
  EXPECT_EQ(TablePrinter::FmtBytes(3.5 * 1024 * 1024), "3.50 MiB");
}

}  // namespace
}  // namespace dgcl
