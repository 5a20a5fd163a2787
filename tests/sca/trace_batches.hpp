// Test helper: an in-memory TraceSet cut into TraceBatch views, the shape
// in which an acquisition source hands traces to the accumulators.  Tests
// feed these to the streaming engines to pin batching invariance and to
// rerun an attack on a prefix of a campaign without copying it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "pgmcml/sca/traces.hpp"

namespace pgmcml::sca {

/// "To the last trace" for batches_of's `end`.
inline constexpr std::size_t kAllTraces = static_cast<std::size_t>(-1);

/// Traces [0, min(end, ts.num_traces())) of `ts` as consecutive batches of
/// `batch_size` (> 0) traces, the last one possibly shorter.  The views
/// alias `ts`, which must outlive the batches.
inline std::vector<TraceBatch> batches_of(
    const TraceSet& ts, std::size_t batch_size = kDefaultTraceBatch,
    std::size_t end = kAllTraces) {
  const std::size_t n = std::min(end, ts.num_traces());
  std::vector<TraceBatch> batches;
  for (std::size_t lo = 0; lo < n; lo += batch_size) {
    TraceBatch& batch = batches.emplace_back();
    for (std::size_t i = lo; i < std::min(n, lo + batch_size); ++i) {
      batch.add(ts.plaintext(i), ts.trace(i));
    }
  }
  return batches;
}

}  // namespace pgmcml::sca
