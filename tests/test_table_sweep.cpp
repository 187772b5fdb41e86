// Output-table and sweep-helper tests (src/sim/table, src/sim/sweep).
#include <gtest/gtest.h>

#include "src/sim/sweep.hpp"
#include "src/sim/table.hpp"

namespace mmtag::sim {
namespace {

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(2.0, 12.0, 6);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_DOUBLE_EQ(v.front(), 2.0);
  EXPECT_DOUBLE_EQ(v.back(), 12.0);
  EXPECT_DOUBLE_EQ(v[1] - v[0], 2.0);
}

TEST(Linspace, SingleValue) {
  const auto v = linspace(5.0, 99.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table table({"range", "power"});
  table.add_row({"2 ft", "-51.7"});
  table.add_row({"12 ft", "-82.8"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("range"), std::string::npos);
  EXPECT_NE(text.find("-82.8"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(TableFmt, Numbers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(-51.66, 1), "-51.7");
}

TEST(TableFmt, Rates) {
  EXPECT_EQ(Table::fmt_rate(1e9), "1.00 Gbps");
  EXPECT_EQ(Table::fmt_rate(1e8), "100.00 Mbps");
  EXPECT_EQ(Table::fmt_rate(3e5), "300.00 kbps");
  EXPECT_EQ(Table::fmt_rate(12.0), "12 bps");
  EXPECT_EQ(Table::fmt_rate(0.0), "-");
}

TEST(TableFmt, SiPrefixes) {
  EXPECT_EQ(Table::fmt_si(9e-12, 1), "9.0p");
  EXPECT_EQ(Table::fmt_si(2.5e-3, 1), "2.5m");
  EXPECT_EQ(Table::fmt_si(4.2e9, 1), "4.2G");
  EXPECT_EQ(Table::fmt_si(0.0, 1), "0.0");
}

TEST(TableFmt, SiTinyMagnitudesKeepTheirValue) {
  // Regression: magnitudes below 1e-15 used to fall through to the femto
  // branch and print as 0.00f at default precision.
  EXPECT_EQ(Table::fmt_si(3e-17, 1), "30.0a");
  EXPECT_EQ(Table::fmt_si(1.5e-18, 2), "1.50a");
  EXPECT_EQ(Table::fmt_si(-4e-18, 1), "-4.0a");
  // Below atto: scientific notation, never a silent zero.
  EXPECT_EQ(Table::fmt_si(5e-20, 2), "5.00e-20");
  EXPECT_NE(Table::fmt_si(1e-21, 2).find("e-21"), std::string::npos);
}

}  // namespace
}  // namespace mmtag::sim
