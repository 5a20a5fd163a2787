// Trace containers for side-channel analysis.
//
// TraceBatch is the one way traces move from acquisition to analysis:
// core::AcquisitionSource::next fills a batch of (plaintext, samples) views
// into its reused row buffers, and the accumulator engines (accumulator.hpp)
// fold it into running statistics and drop it, so a campaign of any length
// holds at most one batch.  TraceSet is the owning matrix a flow keeps when
// asked to (DpaFlowOptions::keep_traces).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pgmcml::sca {

/// Default number of traces per batch: large enough to amortize the
/// per-batch bookkeeping, small enough that one batch of 1k-sample traces
/// stays in the low megabytes.
inline constexpr std::size_t kDefaultTraceBatch = 256;

/// One batch of traces handed from an acquisition source to an analysis
/// engine.  Non-owning: `traces[i]` views memory owned by the producer and
/// stays valid until the producer's next next() or reset().
struct TraceBatch {
  std::vector<std::uint8_t> plaintexts;
  std::vector<std::span<const double>> traces;

  std::size_t size() const { return plaintexts.size(); }
  bool empty() const { return plaintexts.empty(); }
  void clear() {
    plaintexts.clear();
    traces.clear();
  }
  void add(std::uint8_t plaintext, std::span<const double> trace) {
    plaintexts.push_back(plaintext);
    traces.push_back(trace);
  }
};

/// A matrix of power samples with the per-trace public data (plaintext
/// byte) the attacker knows.
class TraceSet {
 public:
  TraceSet() = default;
  explicit TraceSet(std::size_t samples_per_trace)
      : samples_(samples_per_trace) {}

  void add(std::uint8_t plaintext, std::vector<double> trace);

  /// Preallocates room for n traces (bulk acquisition avoids regrowth).
  void reserve(std::size_t n);

  std::size_t num_traces() const { return plaintexts_.size(); }
  std::size_t samples_per_trace() const { return samples_; }
  std::uint8_t plaintext(std::size_t i) const { return plaintexts_.at(i); }
  const std::vector<double>& trace(std::size_t i) const { return data_.at(i); }

 private:
  std::size_t samples_ = 0;
  std::vector<std::uint8_t> plaintexts_;
  std::vector<std::vector<double>> data_;
};

}  // namespace pgmcml::sca
