// Shared pieces of the repository benchmark: clocks, the percentile rule,
// the in-memory span recorder with self-time accounting, seed derivation,
// provenance, and the result record every workload returns.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pgmcml/obs/json.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/rng.hpp"

namespace repobench {

namespace obs = pgmcml::obs;

/// Host monotonic clock in seconds.
double now_s();

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// A tail percentile as the benchmark reports it.  `q` is the percentile
/// actually reported, which is lower than the requested one when the sample
/// is too small: a percentile is reported only when at least `min_beyond`
/// samples lie above its rank.
struct Percentile {
  double value = 0.0;
  double q = 0.0;           ///< reported percentile in (0, 1]
  std::size_t count = 0;    ///< sample size
  std::size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Nearest-rank percentile `q` of `samples` under the tail rule: when fewer
/// than `min_beyond` samples lie beyond rank ceil(q n), the highest
/// percentile that has `min_beyond` samples beyond it is reported instead,
/// never below the median.
Percentile tail_percentile(std::vector<double> samples, double q,
                           std::size_t min_beyond = 10);

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
  std::string name;      ///< "<layer>.<operation>", e.g. "netlist.settle"
  double start = 0.0;    ///< seconds (now_s clock)
  double end = 0.0;
  int parent = -1;       ///< index into the recorder's spans, -1 at top
  std::uint64_t id = 0;  ///< unit or request id the span served
  std::uint64_t units = 0;  ///< units of work the call did (traces, events)
};

/// In-memory span store for one thread.  Spans are appended when they open
/// and closed in LIFO order, so parents always precede their children.
class SpanRecorder {
 public:
  int open(std::string_view name, std::uint64_t id = 0);
  void close(int index, std::uint64_t units = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, std::uint64_t id = 0)
      : rec_(rec), index_(rec ? rec->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_, units_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_units(std::uint64_t units) { units_ = units; }

 private:
  SpanRecorder* rec_;
  int index_;
  std::uint64_t units_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// One row of a layer table: all spans of one name.
struct LayerRow {
  std::string name;
  double self_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
};

/// Layer table over `spans` whose self times, plus `uncovered_s`, add up
/// to `wall_s`: uncovered_s = wall_s - sum(self).
struct LayerTable {
  std::vector<LayerRow> rows;  ///< sorted by self time, largest first
  double wall_s = 0.0;
  double uncovered_s = 0.0;

  double self_of(std::string_view name) const;
  std::uint64_t units_of(std::string_view name) const;
  std::string format(const std::string& title) const;
};

LayerTable layer_table(const std::vector<Span>& spans, double wall_s);

/// Spans as JSON, for the span dump written at exit.
obs::json::Value spans_to_json(const std::vector<Span>& spans);

/// splitmix64 finalizer: the benchmark derives every input from the CLI
/// seed through this, one stream per purpose.
std::uint64_t mix64(std::uint64_t x);
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose);

/// fig6-stream's plaintext-and-noise stream seed for a CLI seed.
std::uint64_t fig6_flow_seed(std::uint64_t seed);

/// Plaintext of trace `t` in the reduced-AES acquisition stream seeded with
/// `flow_seed` (core::make_acquisition_source draws it this way).
std::uint8_t flow_plaintext(std::uint64_t flow_seed, std::uint64_t t);

/// Peak resident set of this process image, and of its largest waited-for
/// child, in MB.
double peak_rss_mb_self();
double peak_rss_mb_children();

/// Obs counter delta between two snapshots.
std::uint64_t counter_delta(const pgmcml::obs::Snapshot& before,
                            const pgmcml::obs::Snapshot& after,
                            std::string_view name);
/// Histogram sum delta (seconds for "time/..." span histograms).
double histogram_sum_delta(const pgmcml::obs::Snapshot& before,
                           const pgmcml::obs::Snapshot& after,
                           std::string_view name);

/// The host's speed, and the reference speed the time metrics are reported
/// at.  On a shared host the same build runs 30 to 50 % faster for minutes
/// at a time, on every workload at once, so host seconds measured minutes
/// apart do not compare.  The probe is fixed integer arithmetic that uses
/// nothing of the program.  A time metric is its host time scaled by
/// kReferenceProbeMs / (median probe time of the same phase), i.e. the time
/// it would have taken on a host that runs the probe in kReferenceProbeMs.
inline constexpr double kReferenceProbeMs = 10.0;

/// One run of the probe, in its two halves of about 5 ms each.
struct ProbeTime {
  /// One chain of dependent multiply-adds: follows the CPU's clock.
  double chain_ms = 0.0;
  /// Eight independent chains: also follows how much of the core's
  /// execution units a sibling hyperthread leaves to this one.
  double parallel_ms = 0.0;
  double total_ms() const { return chain_ms + parallel_ms; }
};
ProbeTime speed_probe();

/// Probe samples of one phase of a run (set-up or the timed phase).
class HostSpeed {
 public:
  /// Runs the probe once and keeps its time; returns the seconds the probe
  /// took, so a timed phase can leave them out.
  double sample();
  /// Host time to reference time: kReferenceProbeMs / median probe time.
  double scale() const;
  /// Sample count, median probe times and scale, for the provenance line.
  obs::json::Value to_json() const;

 private:
  std::vector<ProbeTime> probes_;
};

/// Named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run returns.
struct Outcome {
  std::uint64_t attempted = 0;  ///< units attempted (traces or requests)
  std::uint64_t failed = 0;     ///< failed units plus failed output checks
  std::vector<std::string> check_failures;
  /// Every paper verdict of the run, "holds: ..." or "DOES NOT HOLD: ...".
  std::vector<std::string> verdicts;
  std::vector<Metric> metrics;
  /// Values the run computed for the expected-values table (record mode).
  obs::json::Value record;
  /// Provenance and sample counts specific to this workload.
  obs::json::Object info;
  /// Human-readable report (tables), printed before the result line.
  std::string report;
  /// Spans of a traced run, written out when the run ends.
  std::vector<Span> spans;

  bool correct() const { return check_failures.empty(); }
  /// Records a failed output check; it counts as one failed unit.
  void fail_check(const std::string& what);
  /// A paper verdict (e.g. "PG-MCML does not disclose the key").  It is
  /// always reported; when `gated` and it does not hold, it fails the run.
  void verdict(bool holds, bool gated, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// work_per_s, latency_p50_ms and latency_p99_ms of a trace workload,
  /// whose timed phase did `units` of work in rounds of `round_ms` host
  /// milliseconds (about ten a run), described by `round`; `speed` holds
  /// the phase's probes and scales them to reference time.  work_per_s is
  /// all units over all rounds.  The median round is the p50; too few
  /// rounds lie beyond a p99, so the tail reported under latency_p99_ms is
  /// the slowest round, and the info says so.
  void round_metrics(double units, const std::vector<double>& round_ms,
                     const HostSpeed& speed, const char* round);
};

/// Settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Expected values for this workload and seed; null when unpinned.
  const obs::json::Value* expected = nullptr;
  /// Scratch directory inside the checkout (spools, caches, span dumps).
  std::string work_dir;
  /// This run makes the seed's reference record: paper verdicts that do
  /// not hold are reported, not failed.
  bool record = false;

  /// Paper verdicts gate only an unpinned run that is not recording.  On a
  /// pinned seed compare_pinned checks the ranks they are made of exactly,
  /// and the verdicts are statistical: a style that does not leak ranks the
  /// key uniformly, so on a few seeds MCML or PG-MCML lands on rank 0.
  bool gate_verdicts() const { return expected == nullptr && !record; }
};

/// Number of input sets: `--seed n` selects set n mod kInputSets, and
/// expected.json pins every set.
inline constexpr std::uint64_t kInputSets = 64;

/// Host provenance: nproc, CPU model, build type, PGMCML_THREADS.
obs::json::Object host_provenance();

/// Relative comparison used for pinned floating-point statistics.
bool close_rel(double a, double b, double rel = 1e-9);

/// Whether a timed phase that began at `t_begin` and has run `rounds`
/// rounds starts another: always the first, then only while the mean round
/// so far still fits before `seconds`, so the phase ends near `seconds`
/// instead of up to a whole round past it.
bool another_round(double t_begin, int rounds, double seconds);

/// Runs `setup(rep)` `reps` times, probing the host's speed before each
/// rep and after the last; returns the median duration in reference
/// seconds.
template <typename Fn>
double median_setup_s(int reps, HostSpeed& speed, Fn&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    speed.sample();
    const double t0 = now_s();
    setup(i);
    t.push_back(now_s() - t0);
  }
  speed.sample();
  return median(std::move(t)) * speed.scale();
}

}  // namespace repobench
