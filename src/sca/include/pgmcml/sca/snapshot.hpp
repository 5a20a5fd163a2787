// Bitwise binary serialization for the streaming-analysis state.
//
// SnapshotWriter/SnapshotReader move plain scalars and double vectors
// through a byte buffer in little-endian order with doubles copied bit for
// bit, so an accumulator saved on one process and loaded on another resumes
// the *identical* arithmetic sequence -- the property the distributed
// campaign layer needs for its crash-recovery guarantee ("a restarted worker
// produces the same result as one that never died, to the last ulp").
//
// Each serialized object leads with a 4-byte tag and the reader validates
// every tag and every length, throwing std::runtime_error on a truncated or
// mismatched stream; durability (fsync-then-rename, checksums) is the
// responsibility of the checkpoint layer that owns the enclosing file.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pgmcml::sca {

/// Appends binary fields to a growing byte buffer.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  /// Doubles are copied bit for bit (native IEEE-754, little-endian -- the
  /// same convention as the binary trace-file format).
  void f64(double v) { raw(&v, sizeof v); }
  void f64_span(std::span<const double> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  /// 4-char object tag, e.g. "CPA1"; the reader validates it.
  void tag(const char (&t)[5]) { raw(t, 4); }
  void bytes(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Sizes the buffer for `n` bytes in all, so a writer that knows its
  /// output size allocates once instead of growing by doubling.
  void reserve(std::size_t n) { out_.reserve(n); }

  const std::string& buffer() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

/// Reads fields back in writer order.  Throws std::runtime_error on
/// truncation or a tag mismatch; never reads past the buffer.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Reads a length-prefixed double vector, rejecting lengths beyond the
  /// remaining buffer (a corrupt length cannot trigger a huge allocation).
  std::vector<double> f64_vector();
  /// Reads exactly `expect` doubles into `out` (resized), validating the
  /// stored length first.
  void f64_into(std::vector<double>& out, std::size_t expect);
  void expect_tag(const char (&t)[5]);
  std::string bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  const void* raw(std::size_t n);
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace pgmcml::sca
