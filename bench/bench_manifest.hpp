// Shared bench-manifest envelope: every benchmark in bench/ reports through
// one schema-versioned JSON document (BENCH_<name>.json) instead of its own
// ad-hoc writer.  The envelope carries the provenance a regression gate
// needs (git sha, build type, thread count), the run's resource footprint
// (wall/cpu seconds, peak RSS), the named metrics with their improvement
// direction, free-form sections for bench-specific detail, and a snapshot of
// the pgmcml::obs registry so solver-effort counters ride along for free.
//
// compare_manifests() is the gate itself: bench_compare (the CLI) and the
// obs test suite both call it, so the pass/fail rule is one function.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::bench {

/// Manifest schema version; bump on envelope shape changes.
inline constexpr int kManifestSchemaVersion = 1;

/// Which direction is an improvement for a metric.
enum class Better {
  kNone,    ///< informational; never gated
  kLower,   ///< e.g. seconds, retries, skips
  kHigher,  ///< e.g. traces per second, speedup
};

const char* to_string(Better b);

/// Peak resident-set size of this process in kB (VmHWM), 0 where
/// /proc/self/status is unavailable.
std::size_t peak_rss_kb();

/// CI smoke mode: PGMCML_BENCH_SMOKE set to anything but empty or "0".
/// Benches that honour it shrink their workloads so they finish in seconds
/// while exercising the same code paths.
bool smoke_mode();

/// Collects one benchmark run.  Construct at the top of main() (wall/cpu
/// clocks start there), record metrics and sections as they are produced,
/// then write() the envelope.
class Manifest {
 public:
  explicit Manifest(std::string bench_name);

  /// Records a named scalar.  Dots namespace metrics ("cpa.pgmcml.seconds").
  void metric(const std::string& name, double value,
              Better better = Better::kNone);
  /// Attaches a bench-specific JSON subtree under sections.<name>.
  void section(const std::string& name, obs::json::Value value);

  /// Builds the envelope: provenance + clocks + metrics + sections + the
  /// current global obs snapshot.
  obs::json::Value to_json() const;

  /// Writes BENCH_<name>.json to the working directory (or `path` when
  /// given).  Returns true on success; failure is reported on stderr.
  bool write(const std::string& path = "") const;

 private:
  std::string name_;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
  obs::json::Object metrics_;
  obs::json::Object sections_;
};

/// One per-metric comparison outcome.
struct CompareLine {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< (current - baseline) / |baseline|
  double threshold = 0.0;
  bool regression = false;
  std::string note;  ///< "ignored", "missing-in-current", ...
};

struct CompareOptions {
  /// Relative degradation tolerated before a gated metric fails.
  double default_threshold = 0.25;
  /// Per-metric overrides, matched by exact name.
  std::vector<std::pair<std::string, double>> thresholds;
  /// Glob patterns ('*' wildcards) of metric names to skip entirely --
  /// machine-dependent timings in CI, for example.
  std::vector<std::string> ignore;
};

struct CompareReport {
  std::vector<CompareLine> lines;
  std::vector<std::string> errors;  ///< schema/shape problems (exit 2)
  bool ok() const;
  std::size_t regressions() const;
  /// Human-readable table of every compared metric.
  std::string render() const;
};

/// Matches `name` against a '*'-wildcard pattern (no other metacharacters).
bool glob_match(const std::string& pattern, const std::string& name);

/// Compares two manifest documents metric-by-metric.  A gated metric (better
/// != none) regresses when it degrades by more than its threshold; a gated
/// metric missing from `current` is a regression; metrics only in `current`
/// are informational.  Schema-version or shape mismatches land in errors.
CompareReport compare_manifests(const obs::json::Value& baseline,
                                const obs::json::Value& current,
                                const CompareOptions& options = {});

}  // namespace pgmcml::bench
