// First-order attacks over one sufficient statistic.
//
// CPA, difference-of-means DPA, MLPA (Roche & Tavernier, arXiv:0906.0237)
// and static-power CPA (Bhandari et al., arXiv:2402.03196) all target
// sbox(p ^ k), so they depend on a trace only through its plaintext byte p.
// One statistic therefore carries every one of them: BinnedMoments keeps,
// for each of the 256 plaintext bins, a trace count plus a per-sample mean
// row and M2 row.  Folding a trace costs O(samples), once, whatever attacks
// are scored.  The attacks are pure scoring functions over a snapshot of the
// bins (BinSpectrum).  Each score is an XOR-correlation
//
//     score_k = sum_p g(p ^ k) * D_p,      D_p = n_p * (mean_p - mean),
//
// evaluated for all 256 guesses by one 256-point Walsh-Hadamard transform
// per sample column, shared by every scorer of the snapshot:
// O(256 * 8 * samples) per snapshot, not the O(256^2 * samples) of a direct
// sum.
//   * CPA: g is the leakage model, centred by its mean over the 256 values;
//     the Pearson normalisation comes from the bin counts and pooled M2.
//   * DPA is bit 0 of MLPA's 8 bit-partitions: diff = score * (1/n1 + 1/n0).
//   * MLPA: the l2 norm of the 8 partition differences.
//   * Static power: CPA over a projected statistic whose column holds each
//     trace's mean over a gating window (add_window_means).
//   * TVLA: the random class is the pooled bins (BinnedMoments::pooled).
//
// Determinism contract:
//   * add()/add_batch() fold each trace into its bin by Welford, serially in
//     trace order, so the state is bitwise identical at any thread count and
//     for any batching of the same stream.  That is why the MTD tracker's
//     grid cuts do not perturb the final statistic by one ulp.
//   * merge() combines two statistics bin by bin with Chan's update, in
//     ascending bin order.  Merging fixed shards in a fixed order is thread
//     count invariant, but a different floating-point evaluation than
//     one-pass streaming: the two agree to ~1e-12, not bitwise.
//   * save()/load() move the state bit for bit, so a loaded statistic
//     resumes the identical arithmetic (the campaign checkpoint contract).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pgmcml/obs/json.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/sca/tvla.hpp"

namespace pgmcml::sca {

/// Welford moments of one trace population: count, per-sample mean and M2.
struct Moments {
  std::size_t n = 0;
  std::vector<double> mean;
  std::vector<double> m2;

  explicit Moments(std::size_t samples = 0)
      : mean(samples, 0.0), m2(samples, 0.0) {}

  /// Welford fold of one trace.  Throws std::invalid_argument on a
  /// sample-count mismatch (ragged input).
  void add(std::span<const double> trace);
  /// Chan merge of a disjoint population; merging an empty one is the
  /// identity, bit for bit.
  void merge(const Moments& other);

  /// Bitwise serialization (count, then the two rows).  `samples` is the
  /// width the caller expects; the stream must match it.
  void save(SnapshotWriter& w) const;
  static Moments load(SnapshotReader& r, std::size_t samples);
};

/// The sufficient statistic of every first-order attack: Welford moments of
/// the traces in each of the 256 plaintext bins.
/// Memory: 2 * 256 * samples doubles, independent of the trace count.
class BinnedMoments {
 public:
  explicit BinnedMoments(std::size_t samples);

  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return n_; }
  const Moments& bin(std::uint8_t plaintext) const { return bins_[plaintext]; }

  /// Folds one trace into its plaintext bin.
  void add(std::uint8_t plaintext, std::span<const double> trace);
  /// Folds a batch in trace order: bitwise identical to add() per trace.
  void add_batch(const TraceBatch& batch);
  /// Per-bin Chan merge of a disjoint statistic over the same samples.
  void merge(const BinnedMoments& other);
  /// Moments of all traces: the bins Chan-combined in ascending order.
  Moments pooled() const;

  /// Bitwise state serialization under the "BMS1" tag.  load() throws
  /// std::runtime_error on a truncated, mismatched or oversized stream.
  void save(SnapshotWriter& w) const;
  static BinnedMoments load(SnapshotReader& r);

 private:
  std::size_t m_;
  std::size_t n_ = 0;
  std::vector<Moments> bins_;
};

/// The static projection of a quiescent acquisition in the campaign and the
/// flow: column 0 is the awake-window mean, column 1 the asleep-window mean.
inline constexpr std::array<StaticWindow, 2> kStaticWindows{
    StaticWindow::kAwake, StaticWindow::kAsleep};

/// Folds each `samples`-wide trace of `batch` into `projection` as the row
/// of its means over `windows` (the static-power observable).  Throws
/// std::invalid_argument on a ragged trace.
void add_window_means(BinnedMoments& projection,
                      std::span<const StaticWindow> windows,
                      std::size_t samples, const TraceBatch& batch);

/// A snapshot of a BinnedMoments prepared for scoring: the pooled M2, the
/// bin deviations D_p per sample column and, computed on the first full
/// scoring and shared by every later one (so one BinSpectrum is not for
/// concurrent use), their Walsh-Hadamard transform.
/// Each full scorer then costs one inverse transform per column and model
/// bit.  Columns are transformed kLanes at a time, so every butterfly runs
/// over a contiguous vector of columns.  Below 2 traces every scorer returns
/// its empty verdict (best_guess = -1), matching the batch attacks.
class BinSpectrum {
 public:
  explicit BinSpectrum(const BinnedMoments& stat);

  /// Pearson correlation of `model` with every sample column.
  CpaResult cpa(LeakageModel model, bool keep_time_curves = false) const;
  /// Difference of means on bit 0 of the S-box output.
  DpaResult dpa() const;
  /// l2 combination of the 8 bit-partition differences.
  MlpaResult mlpa() const;
  /// |corr| of `model` with column `column` of a static projection, which
  /// holds the means over `window`.
  StaticPowerResult static_power(LeakageModel model, std::size_t column,
                                 StaticWindow window) const;

  /// Whether `key` ranks first under CPA (resp. MLPA), as key_rank() == 0
  /// on cpa() (resp. mlpa()) would say: never below 2 traces.  `rival`
  /// carries the best wrong guess from one checkpoint to the next (start at
  /// -1).  While it still leads the key by more than rounding, scoring just
  /// those two guesses, summed directly over the occupied bins, settles the
  /// answer without the transform.  Otherwise every guess is scored and
  /// `rival` is renewed.
  bool cpa_first(LeakageModel model, std::uint8_t key, int& rival) const;
  bool mlpa_first(std::uint8_t key, int& rival) const;

 private:
  static constexpr std::size_t kLanes = 8;
  using Row = std::array<double, 256>;
  /// 256 rows (one per bin, guess or frequency) of kLanes columns.
  using Block = std::array<double, 256 * kLanes>;

  /// Row k of `out` = 256 * sum_p g(p ^ k) * D_p at columns blk * kLanes +
  /// l, for a model g centred over the 256 values with transform g_hat: for
  /// every k by the transform when guess < 0, else only k = guess, summed
  /// directly, in row 0.
  void correlate(const Row& g, const Row& g_hat, std::size_t blk, int guess,
                 Block& out) const;
  /// Per column, the Pearson correlation of every guess (guess < 0) or of
  /// one guess (entry 0) under `model`.
  void correlations(LeakageModel model, int guess,
                    const std::function<void(std::size_t, const Row&)>& each)
      const;
  /// max over columns of the l2 norm of the first `bits` partition
  /// differences, per guess (guess < 0) or of one guess (entry 0).
  Row partition_peaks(int bits, int guess) const;

  std::size_t m_;
  std::size_t n_;
  Row counts_{};
  std::vector<int> occupied_;       ///< bins holding traces
  std::vector<double> m2_;          ///< pooled M2 per column
  std::vector<Block> deviations_;   ///< D, kLanes columns per block
  mutable std::vector<Block> spectrum_;  ///< H D once a full scorer ran
};

/// Welch t between two populations per sample column; t_statistic stays
/// empty until both have >= 2 traces, matching the batch tvla_t_test.
TvlaResult welch_t(const Moments& fixed, const Moments& random);

// ---------------------------------------------------------------------------
// Per-attack accumulators: a statistic plus one scorer, nothing else.

/// What the binned per-attack accumulators share: the statistic itself.
class BinnedAccumulator {
 public:
  explicit BinnedAccumulator(std::size_t samples) : bins_(samples) {}

  std::size_t samples_per_trace() const { return bins_.samples_per_trace(); }
  std::size_t num_traces() const { return bins_.num_traces(); }
  const BinnedMoments& moments() const { return bins_; }

  void add(std::uint8_t plaintext, std::span<const double> trace) {
    bins_.add(plaintext, trace);
  }
  void add_batch(const TraceBatch& batch) { bins_.add_batch(batch); }

 protected:
  BinnedMoments bins_;
};

/// Streaming CPA over a BinnedMoments.
class CpaAccumulator : public BinnedAccumulator {
 public:
  CpaAccumulator(LeakageModel model, std::size_t samples)
      : BinnedAccumulator(samples), model_(model) {}

  LeakageModel model() const { return model_; }
  /// Throws std::invalid_argument on a model or sample-count mismatch.
  void merge(const CpaAccumulator& other);
  CpaResult snapshot(bool keep_time_curves = false) const {
    return BinSpectrum(bins_).cpa(model_, keep_time_curves);
  }

 private:
  LeakageModel model_;
};

/// Streaming difference-of-means DPA over a BinnedMoments.
class DpaAccumulator : public BinnedAccumulator {
 public:
  using BinnedAccumulator::BinnedAccumulator;
  void merge(const DpaAccumulator& other) { bins_.merge(other.bins_); }
  DpaResult snapshot() const { return BinSpectrum(bins_).dpa(); }
};

/// Streaming MLPA over a BinnedMoments.
class MlpaAccumulator : public BinnedAccumulator {
 public:
  using BinnedAccumulator::BinnedAccumulator;
  void merge(const MlpaAccumulator& other) { bins_.merge(other.bins_); }
  MlpaResult snapshot() const { return BinSpectrum(bins_).mlpa(); }
};

/// Streaming static-power CPA: each quiescent trace collapses to its mean
/// over one gating window (W samples of the same held state suppress the
/// measurement noise by sqrt(W)), binned by plaintext.
class StaticPowerAccumulator {
 public:
  StaticPowerAccumulator(LeakageModel model, std::size_t samples,
                         StaticWindow window = StaticWindow::kAll)
      : model_(model), window_(window), m_(samples), bins_(1) {}

  LeakageModel model() const { return model_; }
  StaticWindow window() const { return window_; }
  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return bins_.num_traces(); }
  /// The one-column projection: per-bin moments of the window mean.
  const BinnedMoments& moments() const { return bins_; }

  void add(std::uint8_t plaintext, std::span<const double> trace);
  void add_batch(const TraceBatch& batch) {
    add_window_means(bins_, {&window_, 1}, m_, batch);
  }
  /// Throws std::invalid_argument on a model/window/sample-count mismatch.
  void merge(const StaticPowerAccumulator& other);
  StaticPowerResult snapshot() const {
    return BinSpectrum(bins_).static_power(model_, 0, window_);
  }

 private:
  LeakageModel model_;
  StaticWindow window_;
  std::size_t m_;
  BinnedMoments bins_;
};

/// Streaming fixed-vs-random Welch t-test: one Moments per class.
class TvlaAccumulator {
 public:
  explicit TvlaAccumulator(std::size_t samples)
      : fixed_(samples), random_(samples) {}

  std::size_t samples_per_trace() const { return fixed_.mean.size(); }
  std::size_t fixed_traces() const { return fixed_.n; }
  std::size_t random_traces() const { return random_.n; }

  /// Folds one trace into the fixed (is_fixed) or random class.
  void add(bool is_fixed, std::span<const double> trace);
  /// Folds a batch, classifying traces by plaintext == fixed_plaintext.
  void add_batch(const TraceBatch& batch, std::uint8_t fixed_plaintext);
  void merge(const TvlaAccumulator& other);
  TvlaResult snapshot() const { return welch_t(fixed_, random_); }

  /// Bitwise state serialization under the "TVL2" tag.
  void save(SnapshotWriter& w) const;
  static TvlaAccumulator load(SnapshotReader& r);

 private:
  Moments fixed_;
  Moments random_;
};

// ---------------------------------------------------------------------------
// Measurements to disclosure.

/// MTD from checkpoints in stream order, each (traces so far, whether the
/// true key ranked first): the smallest trace count from which every later
/// checkpoint ranks the key first; 0 when the last one does not (never
/// disclosed).
std::size_t mtd_from_checkpoints(
    const std::vector<std::pair<std::size_t, bool>>& checkpoints);

/// Checkpointed measurements-to-disclosure over one trace stream.
///
/// The tracker cuts the stream at the grid max(4, g * n / grid_points) for
/// g = 1..grid_points (the grid of the prefix-rerun scan its tests use as
/// the oracle), hands every piece to `fold`, and at each grid point records
/// whether the true key ranks first under every scorer `verdicts`
/// evaluates; mtd() applies mtd_from_checkpoints.  `fold` must be invariant to batching
/// (BinnedMoments is), so the cuts leave the caller's statistic bitwise
/// equal to unsplit streaming.  Fewer than 4 expected traces or 2 grid
/// points give no grid, and every MTD is 0.
class MtdTracker {
 public:
  using Fold = std::function<void(const TraceBatch&)>;
  /// Whether the true key ranks first under each scorer, on what has been
  /// folded so far.
  using Verdicts = std::function<std::vector<bool>()>;

  MtdTracker(std::size_t expected_traces, Fold fold, Verdicts verdicts,
             std::size_t grid_points = 16);

  void add_batch(const TraceBatch& batch);
  /// Judges the grid points a (possibly short) stream never reached on the
  /// final state.  Call after the last batch.
  void finish();
  /// MTD under scorer `scorer` (an index into verdicts()); 0 = never
  /// disclosed.
  std::size_t mtd(std::size_t scorer = 0) const;

 private:
  void checkpoint();

  std::vector<std::size_t> grid_;
  std::size_t next_grid_ = 0;
  std::size_t traces_ = 0;
  Fold fold_;
  Verdicts verdicts_;
  std::vector<std::vector<std::pair<std::size_t, bool>>> checkpoints_;
  TraceBatch piece_;
};

// ---------------------------------------------------------------------------
// Verdicts: the record, scorer, MTD check and report writer that
// core::run_dpa_flow and the campaign merge share.

/// The first-order verdicts against one key: each attack's result and, per
/// reported scorer, the key's rank (0 = disclosed, -1 = not mounted or too
/// few traces), its margin over the best wrong guess and its MTD (0 = never
/// disclosed).  CPA and DPA are always mounted, MLPA and the two
/// kStaticWindows when asked for.
struct AttackVerdicts {
  /// The scorers of a first-place check (FirstPlace), in order.
  enum Scorer : std::size_t { kCpa, kMlpa, kAwake, kAsleep, kScorers };
  static constexpr LeakageModel kModel = LeakageModel::kHammingWeight;

  CpaResult cpa;
  DpaResult dpa;
  int key_rank = -1;  ///< CPA
  double margin = 0.0;
  std::size_t mtd = 0;
  bool mlpa_mounted = false;
  MlpaResult mlpa;
  int mlpa_rank = -1;
  double mlpa_margin = 0.0;
  std::size_t mlpa_mtd = 0;
  bool static_mounted = false;
  StaticPowerResult static_awake;
  int static_awake_rank = -1;
  double static_awake_margin = 0.0;
  std::size_t static_awake_mtd = 0;
  StaticPowerResult static_asleep;
  int static_asleep_rank = -1;
  double static_asleep_margin = 0.0;
  std::size_t static_asleep_mtd = 0;

  /// Scores `bins` and, when non-null, their static projection `windows`
  /// against `key` (MLPA when `with_mlpa`); mtd_of(s) is the MTD of each
  /// Scorer s.
  void score(const BinnedMoments& bins, const BinnedMoments* windows,
             std::uint8_t key, bool with_mlpa,
             const std::function<std::size_t(std::size_t)>& mtd_of,
             bool keep_time_curves = false);
  /// Adds the "static_power" array and the "mlpa" object of the mounted
  /// scorers to `report`; `static_holds`, when given, follows the array as
  /// "static_traces_accumulated".
  void add_json(obs::json::Object& report,
                std::optional<std::uint64_t> static_holds = {}) const;
};

/// The MTD check on a growing statistic and, when non-null, its static
/// projection: whether the key ranks first under each AttackVerdicts::Scorer
/// (an unmounted one never does).  A first_place() callable owns the CPA and
/// MLPA rivals it carries from one checkpoint to the next (cpa_first).
using FirstPlace = std::function<std::vector<bool>(const BinnedMoments&,
                                                   const BinnedMoments*)>;
FirstPlace first_place(std::uint8_t key, bool mlpa,
                       LeakageModel model = AttackVerdicts::kModel);

/// Shard-parallel CPA: cuts `traces` into fixed `shard_size`-trace shards,
/// accumulates each shard on the util::parallel_for pool, and merges the
/// shard statistics in ascending index order.  Thread-count invariant by
/// construction (fixed shards, fixed merge order).
CpaAccumulator cpa_accumulate_sharded(const TraceSet& traces,
                                      LeakageModel model,
                                      std::size_t shard_size = 1024);

}  // namespace pgmcml::sca
