#include "pgmcml/sca/traces.hpp"

#include <stdexcept>

namespace pgmcml::sca {

void TraceSet::add(std::uint8_t plaintext, std::vector<double> trace) {
  if (samples_ == 0) {
    samples_ = trace.size();
  } else if (trace.size() != samples_) {
    throw std::invalid_argument("TraceSet::add: sample-count mismatch");
  }
  plaintexts_.push_back(plaintext);
  data_.push_back(std::move(trace));
}

void TraceSet::reserve(std::size_t n) {
  plaintexts_.reserve(n);
  data_.reserve(n);
}

}  // namespace pgmcml::sca
