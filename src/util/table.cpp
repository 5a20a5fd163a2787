#include "pgmcml/util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "pgmcml/util/units.hpp"

namespace pgmcml::util {

std::string si_string(double value, const std::string& unit,
                      int significant_digits) {
  if (value == 0.0) return "0" + unit;
  if (!std::isfinite(value)) return value > 0 ? "inf" : "-inf";
  struct Prefix {
    double scale;
    const char* name;
  };
  static constexpr Prefix kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"},  {1e3, "k"},  {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
      {1e-18, "a"},
  };
  const double mag = std::fabs(value);
  const Prefix* chosen = &kPrefixes[sizeof(kPrefixes) / sizeof(Prefix) - 1];
  for (const Prefix& p : kPrefixes) {
    if (mag >= p.scale) {
      chosen = &p;
      break;
    }
  }
  const double scaled = value / chosen->scale;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", significant_digits, scaled);
  return std::string(buf) + chosen->name + unit;
}

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::header(std::vector<std::string> columns) {
  header_ = std::move(columns);
}

void Table::row(std::vector<std::string> cells) {
  if (!header_.empty() && cells.size() != header_.size()) {
    throw std::invalid_argument("Table::row: width mismatch with header");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::eng(double v, const std::string& unit) {
  return si_string(v, unit);
}

std::string Table::to_markdown() const {
  // Compute column widths across header and all rows.
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<std::size_t> widths(ncols, 1);
  auto widen = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream os;
  if (!title_.empty()) os << "### " << title_ << "\n";
  auto emit = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t i = 0; i < ncols; ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      os << " " << cell << std::string(widths[i] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    os << "|";
    for (std::size_t i = 0; i < ncols; ++i) {
      os << std::string(widths[i] + 2, '-') << "|";
    }
    os << "\n";
  }
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void Table::print() const { std::cout << to_markdown() << std::flush; }

}  // namespace pgmcml::util
