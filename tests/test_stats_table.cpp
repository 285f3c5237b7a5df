#include <gtest/gtest.h>

#include <cstdio>

#include "common/table.hpp"

namespace issr {
namespace {

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_f(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_u(1234), "1234");
  EXPECT_EQ(fmt_speedup(7.2, 1), "7.2x");
}

TEST(Table, RowAccessors) {
  Table t("title");
  t.set_header({"x", "y", "z"});
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.row(0)[2], "3");
}

}  // namespace
}  // namespace issr
