// Trace container for side-channel analysis: a matrix of power samples with
// the per-trace public data (plaintext byte) the attacker knows.
#pragma once

#include <cstdint>
#include <vector>

namespace pgmcml::sca {

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

  /// Mean trace over all acquisitions.  Accumulated pairwise, so the error
  /// stays O(log n · eps) even on 10^5-trace campaigns where naive left-to-
  /// right summation loses digits.
  std::vector<double> mean_trace() const;

  /// Returns an *owning deep copy* of the first n traces: O(n * samples)
  /// time and memory.  Analysis code should not use this -- a prefix attack
  /// is `TraceSetSource(ts, n)` (trace_source.hpp) streamed into the binned
  /// statistic, and MTD sweeps score one statistic stream (MtdTracker)
  /// instead of re-attacking prefix copies.  Kept for callers
  /// that genuinely need an independent owning subset (e.g. handing a
  /// truncated campaign to a writer while the original keeps growing).
  TraceSet prefix(std::size_t n) const;

 private:
  /// Adds the column sums of traces [lo, hi) into `acc`, pairwise.
  void accumulate_pairwise(std::size_t lo, std::size_t hi,
                           std::vector<double>& acc) const;

  std::size_t samples_ = 0;
  std::vector<std::uint8_t> plaintexts_;
  std::vector<std::vector<double>> data_;
};

}  // namespace pgmcml::sca
