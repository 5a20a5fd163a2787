// Liberty exporter regression coverage: a byte-exact golden file for the
// calibrated PG-MCML library, and a numeric round trip over a library
// characterized through the transistor-level engine (every printed area /
// capacitance / delay / leakage must match the in-memory StdCell it came
// from, so the exporter cannot silently drop or misscale a field).
//
// Regenerate the golden file after an intentional exporter change with:
//   PGMCML_UPDATE_GOLDEN=1 ./tests/pgmcml_tests --gtest_filter='LibertyGolden.*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "pgmcml/cells/liberty.hpp"
#include "pgmcml/cells/library.hpp"
#include "pgmcml/mcml/cells.hpp"

#ifndef PGMCML_SOURCE_DIR
#error "PGMCML_SOURCE_DIR must point at the repository root"
#endif

namespace pgmcml::cells {
namespace {

const std::string kGoldenPath =
    std::string(PGMCML_SOURCE_DIR) + "/tests/export/golden/pgmcml90.lib";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(LibertyGolden, Pgmcml90MatchesCheckedInGoldenFile) {
  const std::string lib = to_liberty(CellLibrary::pgmcml90());
  if (std::getenv("PGMCML_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    out << lib;
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string golden = read_file(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << kGoldenPath;
  EXPECT_EQ(lib, golden)
      << "exporter output changed; regenerate deliberately with "
         "PGMCML_UPDATE_GOLDEN=1 if the change is intended";
}

// Extracts the text of one cell block (up to the next "  cell (" or the
// closing brace of the library).
std::string cell_block(const std::string& lib, const std::string& name) {
  const std::string open = "  cell (" + name + ") {";
  const std::size_t begin = lib.find(open);
  if (begin == std::string::npos) return "";
  std::size_t end = lib.find("\n  cell (", begin + open.size());
  if (end == std::string::npos) end = lib.size();
  return lib.substr(begin, end - begin);
}

// First number following `token` inside `text`; NaN when absent.
double number_after(const std::string& text, const std::string& token) {
  const std::size_t at = text.find(token);
  if (at == std::string::npos) return std::nan("");
  const char* p = text.c_str() + at + token.size();
  while (*p == ' ' || *p == '"') ++p;
  return std::strtod(p, nullptr);
}

TEST(LibertyRoundTrip, CharacterizedLibraryNumbersSurviveExport) {
  // A library characterized through the SPICE engine (not the calibrated
  // constants), exported and read back number by number.
  const mcml::McmlDesign design;
  const CellLibrary library =
      CellLibrary::characterized(LogicStyle::kPgMcml, design);
  const std::string lib = to_liberty(library);

  // Library header carries the supply.
  EXPECT_NEAR(number_after(lib, "nom_voltage :"), library.vdd(),
              1e-5 * library.vdd());

  for (const StdCell& cell : library.cells()) {
    SCOPED_TRACE(cell.name);
    const std::string block = cell_block(lib, cell.name);
    ASSERT_FALSE(block.empty());

    // area is printed in um^2, delays in ps, capacitance in fF, leakage
    // (active-off leakage plus gated sleep current) in nW.  Default ostream
    // precision is 6 significant digits, hence the relative tolerance.
    const double rel = 1e-5;
    EXPECT_NEAR(number_after(block, "area :"), cell.area * 1e12,
                rel * cell.area * 1e12);
    EXPECT_NEAR(number_after(block, "cell_rise (scalar) { values ("),
                cell.delay * 1e12, rel * cell.delay * 1e12);
    EXPECT_NEAR(number_after(block, "capacitance :"), cell.input_cap * 1e15,
                rel * cell.input_cap * 1e15);
    const double leak_nw =
        (cell.leakage_power + cell.sleep_current * library.vdd()) * 1e9;
    EXPECT_NEAR(number_after(block, "cell_leakage_power :"), leak_nw,
                rel * leak_nw + 1e-12);
    // Every PG cell must expose the sleep pin.
    EXPECT_NE(block.find("pin (SLEEPB)"), std::string::npos);
  }
}

}  // namespace
}  // namespace pgmcml::cells
