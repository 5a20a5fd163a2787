#include "pgmcml/sca/snapshot.hpp"

#include <stdexcept>

namespace pgmcml::sca {

const void* SnapshotReader::raw(std::size_t n) {
  if (n > data_.size() - pos_) {
    throw std::runtime_error("sca snapshot: truncated stream");
  }
  const void* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t SnapshotReader::u8() {
  return static_cast<std::uint8_t>(*static_cast<const char*>(raw(1)));
}

std::uint32_t SnapshotReader::u32() {
  std::uint32_t v;
  std::memcpy(&v, raw(sizeof v), sizeof v);
  return v;
}

std::uint64_t SnapshotReader::u64() {
  std::uint64_t v;
  std::memcpy(&v, raw(sizeof v), sizeof v);
  return v;
}

double SnapshotReader::f64() {
  double v;
  std::memcpy(&v, raw(sizeof v), sizeof v);
  return v;
}

std::vector<double> SnapshotReader::f64_vector() {
  const std::uint64_t n = u64();
  if (n > remaining() / sizeof(double)) {
    throw std::runtime_error("sca snapshot: vector length exceeds stream");
  }
  std::vector<double> out(static_cast<std::size_t>(n));
  std::memcpy(out.data(), raw(out.size() * sizeof(double)),
              out.size() * sizeof(double));
  return out;
}

void SnapshotReader::f64_into(std::vector<double>& out, std::size_t expect) {
  const std::uint64_t n = u64();
  if (n != expect) {
    throw std::runtime_error("sca snapshot: vector length mismatch");
  }
  if (expect > remaining() / sizeof(double)) {
    throw std::runtime_error("sca snapshot: vector length exceeds stream");
  }
  out.resize(expect);
  std::memcpy(out.data(), raw(expect * sizeof(double)),
              expect * sizeof(double));
}

void SnapshotReader::expect_tag(const char (&t)[5]) {
  const char* got = static_cast<const char*>(raw(4));
  if (std::memcmp(got, t, 4) != 0) {
    throw std::runtime_error(std::string("sca snapshot: expected tag '") + t +
                             "', found '" + std::string(got, 4) + "'");
  }
}

std::string SnapshotReader::bytes() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    throw std::runtime_error("sca snapshot: byte-string length exceeds stream");
  }
  return std::string(static_cast<const char*>(raw(n)),
                     static_cast<std::size_t>(n));
}

}  // namespace pgmcml::sca
