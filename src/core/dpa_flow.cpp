#include "pgmcml/core/dpa_flow.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>

#include "pgmcml/core/byte_target.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::core {

namespace {

ByteTarget make_target(const cells::CellLibrary& library,
                       const DpaFlowOptions& options) {
  return options.target == AttackTarget::kAesCore
             ? aes_core_target(library, options.key)
             : reduced_aes_target(library, options.key);
}

/// The concrete streaming acquisition: synthesis, the precharge settle (both
/// in the ByteTarget) and tracer construction happen once, then every next()
/// call produces one batch of traces into reused per-slot buffers.
///
/// With the key and the precharge state fixed, everything a simulation
/// yields -- the noiseless composed trace and its noise key, or the awake
/// and asleep quiescent currents -- is a function of the plaintext byte
/// alone.  So the source simulates each plaintext once, on first use, into
/// a 256-entry memo, and a trace is that entry plus its own noise from an
/// RNG stream derived from (seed, global trace index).  The stream is
/// bitwise identical at any thread count, any batch size, and to a fresh
/// simulation per trace.  A trace that fails (a real solver failure during
/// a fill, or the test-only fault hook) is retried once, then skipped and
/// recorded; a failed fill caches nothing.  Per-trace outcomes live in
/// index-addressed slots merged in index order, so the aggregate stays
/// deterministic too.
class ByteTargetSource final : public AcquisitionSource {
 public:
  ByteTargetSource(const cells::CellLibrary& library,
                   const DpaFlowOptions& options)
      : options_(options), target_(make_target(library, options)) {
    if (options_.batch_size == 0) {
      throw std::invalid_argument("dpa_flow: batch_size must be > 0");
    }
    if (options_.samples == 0) {
      throw std::invalid_argument("dpa_flow: samples must be > 0");
    }
    if (options_.fixed_plaintext < -1 || options_.fixed_plaintext > 255) {
      throw std::invalid_argument(
          "dpa_flow: fixed_plaintext must be -1 (random) or in [0, 255]");
    }
    power::TraceOptions topt;
    topt.t_start = 0.4e-9;
    topt.dt = options_.dt;
    topt.samples = options_.samples;
    topt.noise_sigma = options_.noise_sigma;
    topt.seed = options_.seed;
    const power::CurrentKernels kernels =
        options_.spice_kernels
            ? power::kernels_from_spice({}, baseline_diagnostics_)
            : power::default_kernels();
    tracer_ = std::make_unique<power::PowerTracer>(
        target_.design(), target_.library(), kernels, topt);

    if (library.power_gated() && options_.gate_per_operation) {
      // Wake shortly before the operand edge, sleep after evaluation: this
      // is the data-synchronous sleep toggling whose harmlessness Fig. 6
      // shows.
      schedule_.awake.push_back(
          {0.2e-9, 0.4e-9 + options_.dt * options_.samples});
    }

    stats_ = target_.design().stats(library);
    diagnostics_ = baseline_diagnostics_;
    if (options_.acquisition == AcquisitionMode::kDynamic) {
      // Left uninitialized: a row's pages are touched only when its
      // plaintext is first simulated.
      memo_rows_ = std::make_unique_for_overwrite<double[]>(
          256 * options_.samples);
    }

    size_slots();
  }

  std::size_t samples_per_trace() const override { return options_.samples; }

  bool next(sca::TraceBatch& batch) override {
    batch.clear();
    // Obs handles resolved once; batch latency lands in the
    // "time/core.acquisition.batch" histogram, alongside the counters the
    // FlowDiagnostics totals already carry per run.
    static struct Handles {
      obs::Counter batches, traces, retries, skips;
      Handles()
          : batches(obs::Registry::global().counter(
                "core.acquisition.batches")),
            traces(
                obs::Registry::global().counter("core.acquisition.traces")),
            retries(
                obs::Registry::global().counter("core.acquisition.retries")),
            skips(obs::Registry::global().counter("core.acquisition.skips")) {
      }
    } handles;
    while (batch.empty() && cursor_ < options_.num_traces) {
      obs::ScopedTimer batch_span("core.acquisition.batch");
      const std::size_t base = cursor_;
      const std::size_t n =
          std::min(options_.batch_size, options_.num_traces - base);
      for (std::size_t i = 0; i < n; ++i) {
        skipped_[i] = 0;
        trace_diag_[i] = spice::FlowDiagnostics{};
      }
      util::parallel_for(n, [&](std::size_t i) { simulate_slot(base, i); });
      // Ordered merge: accumulator order matches the serial loop exactly,
      // and skipped traces are excluded identically at any thread count.
      std::size_t batch_retries = 0;
      std::size_t batch_skips = 0;
      for (std::size_t i = 0; i < n; ++i) {
        batch_retries += trace_diag_[i].retries;
        batch_skips += trace_diag_[i].skipped;
        diagnostics_.merge(trace_diag_[i]);
        if (skipped_[i]) continue;
        current_stats_.add(util::mean(rows_[i]));
        batch.add(plaintexts_[i], std::span<const double>(rows_[i]));
      }
      cursor_ = base + n;
      handles.batches.add(1);
      handles.traces.add(n - batch_skips);
      handles.retries.add(batch_retries);
      handles.skips.add(batch_skips);
    }
    return !batch.empty();
  }

  void reset() override {
    cursor_ = 0;
    diagnostics_ = baseline_diagnostics_;
    current_stats_ = util::RunningStats{};
  }

  void seek(std::size_t first_trace, std::size_t num_traces) override {
    options_.first_trace = first_trace;
    options_.num_traces = num_traces;
    size_slots();
    reset();
  }

  const spice::FlowDiagnostics& diagnostics() const override {
    return diagnostics_;
  }
  double mean_current() const override { return current_stats_.mean(); }
  std::size_t traces_consumed() const override { return cursor_; }
  const netlist::Design::Stats& design_stats() const override {
    return stats_;
  }

 private:
  /// What one simulation of a plaintext yields: for a dynamic acquisition
  /// the noise key of its event stream (the noiseless row sits in
  /// memo_rows_), for a static one the two quiescent currents.
  struct MemoEntry {
    std::mutex fill;
    std::atomic<bool> ready{false};
    std::uint64_t noise_key = 0;
    double i_awake = 0.0;
    double i_asleep = 0.0;
  };

  /// One slot per trace of a full batch of the current range; slots only
  /// grow, since every slot is rewritten before it is read.
  void size_slots() {
    const std::size_t slots =
        std::min(options_.batch_size, options_.num_traces);
    if (slots <= rows_.size()) return;
    plaintexts_.resize(slots, 0);
    rows_.resize(slots);
    skipped_.resize(slots, 0);
    trace_diag_.resize(slots);
  }

  double* memo_row(std::uint8_t plaintext) const {
    return memo_rows_.get() + std::size_t{plaintext} * options_.samples;
  }

  void simulate_slot(std::size_t base, std::size_t i) {
    // Global campaign index: everything per-trace (Rng stream, noise nonce,
    // fault hook, diagnostics stage label) keys on it, never on the local
    // offset, so range-sharded sources reproduce the [0, N) stream exactly.
    const std::size_t t = options_.first_trace + base + i;
    trace_diag_[i].record_attempt();
    // The stage label is only built when an incident is recorded.
    const auto stage = [t] { return "trace:" + std::to_string(t); };
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        if (options_.acquisition_fault_hook) {
          options_.acquisition_fault_hook(t, attempt);
        }
        util::Rng rng = util::Rng::stream(options_.seed, t);
        const auto plaintext =
            options_.fixed_plaintext >= 0
                ? static_cast<std::uint8_t>(options_.fixed_plaintext)
                : static_cast<std::uint8_t>(rng.bounded(256));
        const MemoEntry& entry = memoized(plaintext, rows_[i]);

        plaintexts_[i] = plaintext;
        if (options_.acquisition == AcquisitionMode::kStatic) {
          compose_static_trace(entry.i_awake, entry.i_asleep, t, rows_[i]);
        } else {
          const double* row = memo_row(plaintext);
          rows_[i].assign(row, row + options_.samples);
          tracer_->add_noise(schedule_, t, entry.noise_key, rows_[i]);
        }
        if (attempt > 0) trace_diag_[i].record_recovery(stage());
        return;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          trace_diag_[i].record_retry(stage(), e.what());
        } else {
          trace_diag_[i].record_skip(stage(), e.what());
          skipped_[i] = 1;
        }
      }
    }
  }

  /// The memo entry of `plaintext`, simulated first (through `scratch`) if
  /// no trace has filled it yet.  One lock per entry, so concurrent slots
  /// wait only for the plaintext they need; a fill that throws leaves the
  /// entry empty for the retry or a later trace.
  const MemoEntry& memoized(std::uint8_t plaintext,
                            std::vector<double>& scratch) {
    static obs::Counter simulations =
        obs::Registry::global().counter("core.acquisition.simulations");
    MemoEntry& entry = memo_[plaintext];
    if (entry.ready.load(std::memory_order_acquire)) return entry;
    const std::lock_guard<std::mutex> lock(entry.fill);
    if (!entry.ready.load(std::memory_order_relaxed)) {
      simulate(plaintext, entry, scratch);
      entry.ready.store(true, std::memory_order_release);
      simulations.add(1);
    }
    return entry;
  }

  /// One logic simulation of `plaintext` from the precharge state into
  /// `entry` (and its memo row, composed through `scratch`).
  void simulate(std::uint8_t plaintext, MemoEntry& entry,
                std::vector<double>& scratch) {
    const netlist::LogicSim sim = target_.simulate(plaintext);

    if (options_.acquisition == AcquisitionMode::kStatic) {
      entry.i_awake = tracer_->quiescent_current(sim, true);
      entry.i_asleep = tracer_->quiescent_current(sim, false);
    } else {
      tracer_->compose_into(sim.events(), schedule_, scratch);
      std::copy(scratch.begin(), scratch.end(), memo_row(plaintext));
      entry.noise_key = power::PowerTracer::noise_key(sim.events());
    }
  }

  /// Quiescent acquisition: the circuit holds the evaluated state and every
  /// sample is one DC measurement of the supply leakage -- `i_awake` for the
  /// first window, `i_asleep` (gated off, where the library can gate) for
  /// the second.  Noise is drawn per sample from a stream keyed on the
  /// GLOBAL trace index, decorrelated from the plaintext stream, so static
  /// traces carry the same shard/resume determinism as dynamic ones.
  void compose_static_trace(double i_awake, double i_asleep, std::size_t t,
                            std::vector<double>& out) const {
    const std::size_t m = options_.samples;
    out.resize(m);
    const auto awake_window =
        sca::static_window_bounds(sca::StaticWindow::kAwake, m);
    const power::TraceOptions& topt = tracer_->options();
    util::Rng noise = util::Rng::stream(options_.seed ^ kStaticNoiseStream, t);
    for (std::size_t j = 0; j < m; ++j) {
      const double level = j < awake_window.second ? i_awake : i_asleep;
      if (topt.include_noise) {
        // Same front-end model as the transient tracer: scope noise plus
        // regulator noise proportional to the flowing current.
        const double sigma =
            topt.noise_sigma + topt.supply_noise_ratio * level;
        out[j] = level + noise.gaussian(0.0, sigma);
      } else {
        out[j] = level;
      }
    }
  }

  DpaFlowOptions options_;
  const ByteTarget target_;  ///< stable address: tracer_ references it
  std::unique_ptr<power::PowerTracer> tracer_;
  power::SleepSchedule schedule_;
  netlist::Design::Stats stats_;
  /// Diagnostics at construction (kernel extraction only): reset() target.
  spice::FlowDiagnostics baseline_diagnostics_;
  spice::FlowDiagnostics diagnostics_;
  util::RunningStats current_stats_;
  std::size_t cursor_ = 0;
  // Per-slot state reused across batches (index-addressed for determinism).
  std::vector<std::uint8_t> plaintexts_;
  std::vector<std::vector<double>> rows_;
  std::vector<char> skipped_;
  std::vector<spice::FlowDiagnostics> trace_diag_;
  // Per-plaintext memo; it outlives reset() and seek(), since nothing it
  // holds depends on the trace index.
  std::array<MemoEntry, 256> memo_;
  /// Dynamic only: 256 noiseless rows of `samples`, row p for plaintext p.
  std::unique_ptr<double[]> memo_rows_;
};

}  // namespace

std::unique_ptr<AcquisitionSource> make_acquisition_source(
    const cells::CellLibrary& library, const DpaFlowOptions& options) {
  return std::make_unique<ByteTargetSource>(library, options);
}

DpaFlowResult run_dpa_flow(const cells::CellLibrary& library,
                           const DpaFlowOptions& options) {
  obs::ScopedTimer span("core.dpa_flow");
  auto source = make_acquisition_source(library, options);
  DpaFlowResult result;
  result.stats = source->design_stats();

  // One streamed pass feeds one statistic (plus, for quiescent holds, the
  // static projection of its window means) and -- only when the caller
  // wants the matrix -- the materialized trace copy.  Every attack is scored
  // on the statistic afterwards; the MTD tracker checks first place at its
  // grid points.
  sca::BinnedMoments bins(options.samples);
  sca::BinnedMoments windows(sca::kStaticWindows.size());
  const sca::BinnedMoments* projection =
      options.acquisition == AcquisitionMode::kStatic ? &windows : nullptr;
  const auto fold = [&](const sca::TraceBatch& batch) {
    bins.add_batch(batch);
    if (projection != nullptr) {
      sca::add_window_means(windows, sca::kStaticWindows, options.samples,
                            batch);
    }
  };
  sca::FirstPlace first = sca::first_place(options.key, options.compute_mlpa);
  sca::MtdTracker mtd(options.num_traces, fold,
                      [&] { return first(bins, projection); });
  if (options.keep_traces) {
    result.traces = sca::TraceSet(options.samples);
    result.traces.reserve(options.num_traces);
  }
  sca::TraceBatch batch;
  while (source->next(batch)) {
    if (options.compute_mtd) {
      mtd.add_batch(batch);
    } else {
      fold(batch);
    }
    if (options.keep_traces) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        result.traces.add(batch.plaintexts[i],
                          std::vector<double>(batch.traces[i].begin(),
                                              batch.traces[i].end()));
      }
    }
  }

  result.mean_current = source->mean_current();
  result.diagnostics = source->diagnostics();
  // The grid point the stream ends on is the scored statistic: its verdicts
  // answer it, so it is not scored twice.  Without compute_mtd the tracker
  // checked nothing: every MTD is 0.
  result.score(
      bins, projection, options.key, options.compute_mlpa,
      [&](std::size_t s) {
        if (options.compute_mtd) mtd.finish(result.key_first());
        return mtd.mtd(s);
      },
      options.keep_time_curves);
  return result;
}

}  // namespace pgmcml::core
