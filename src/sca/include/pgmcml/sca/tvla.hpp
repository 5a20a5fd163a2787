// Test Vector Leakage Assessment (TVLA): the fixed-vs-random Welch t-test
// (Goodwill et al., NIAT 2011) that became the standard certification-style
// leakage check.  Unlike CPA it needs no leakage model: any statistically
// significant difference between traces of a *fixed* input and traces of
// *random* inputs flags exploitable leakage.  |t| > 4.5 is the conventional
// failure threshold.
//
// This is a methodological extension over the paper's CPA-only evaluation:
// the same acquisition engine feeds both assessments.
// All entry points below are thin wrappers over one streaming engine,
// TvlaAccumulator (accumulator.hpp): per-class Welford moments per sample, so
// fixed and random populations of any size are assessed in bounded memory.
#pragma once

#include <cstddef>
#include <vector>

#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/sca/traces.hpp"

namespace pgmcml::sca {

struct TvlaResult {
  /// Welch t statistic per time sample.
  std::vector<double> t_statistic;
  /// max |t| over the trace.
  double max_abs_t = 0.0;
  std::size_t fixed_traces = 0;
  std::size_t random_traces = 0;

  /// Conventional pass threshold.
  static constexpr double kThreshold = 4.5;
  bool leaks() const { return max_abs_t > kThreshold; }
};

/// Welch t-test between two trace populations (same sample count per trace).
TvlaResult tvla_t_test(const std::vector<std::vector<double>>& fixed,
                       const std::vector<std::vector<double>>& random);

/// Convenience: splits a TraceSet by plaintext -- traces whose plaintext
/// equals `fixed_plaintext` form the fixed class, the rest the random class.
TvlaResult tvla_from_traceset(const TraceSet& traces,
                              std::uint8_t fixed_plaintext);

/// Streaming variant of tvla_from_traceset: classifies each trace of the
/// source by plaintext and folds it into the running t-test, batch by batch.
TvlaResult tvla_from_source(TraceSource& source, std::uint8_t fixed_plaintext);

}  // namespace pgmcml::sca
