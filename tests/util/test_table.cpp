#include "pgmcml/util/table.hpp"

#include <gtest/gtest.h>

#include "pgmcml/util/units.hpp"

namespace pgmcml::util {
namespace {

TEST(Table, MarkdownHasHeaderSeparatorAndRows) {
  Table t("Demo");
  t.header({"Cell", "Area"});
  t.row({"BUF", "7.448"});
  t.row({"AND2", "8.9376"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("### Demo"), std::string::npos);
  EXPECT_NE(md.find("| Cell"), std::string::npos);
  EXPECT_NE(md.find("|------"), std::string::npos);
  EXPECT_NE(md.find("BUF"), std::string::npos);
  EXPECT_NE(md.find("AND2"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1.0, 0), "1");
}

TEST(SiString, PicksEngineeringPrefix) {
  EXPECT_EQ(si_string(47.77e-6, "W"), "47.77uW");
  EXPECT_EQ(si_string(30e-3, "A"), "30mA");
  EXPECT_EQ(si_string(1.5e3, "Hz"), "1.5kHz");
  EXPECT_EQ(si_string(0.0, "V"), "0V");
  EXPECT_EQ(si_string(-2.5e-9, "s"), "-2.5ns");
}

TEST(SiString, UnityAndLargeValues) {
  EXPECT_EQ(si_string(1.0), "1");
  EXPECT_EQ(si_string(2.0e9, "Hz"), "2GHz");
}

TEST(Table, RowsCountTracks) {
  Table t;
  EXPECT_EQ(t.rows(), 0u);
  t.row({"a"});
  t.row({"b"});
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace pgmcml::util
