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
#include "pgmcml/sca/traces.hpp"

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
/// of its means over `windows` (the static-power observable: W samples of
/// the same held state suppress the measurement noise by sqrt(W)).  Throws
/// std::invalid_argument on a ragged trace.
void add_window_means(BinnedMoments& projection,
                      std::span<const StaticWindow> windows,
                      std::size_t samples, const TraceBatch& batch);

/// A BinnedMoments prepared for scoring: the bin counts, the pooled mean
/// and M2 and, computed on the first full scoring and shared by every later
/// one (so one BinSpectrum is not for concurrent use), the Walsh-Hadamard
/// transform of the bin deviations D_p per sample column.  The deviations
/// themselves are read from the referenced statistic, which must outlive
/// the spectrum and stay unchanged while it is scored.
/// Each full scorer then costs one inverse transform per column and model
/// bit.  Columns are transformed kLanes at a time, so every butterfly runs
/// over a contiguous vector of columns.  Below 2 traces every scorer returns
/// its empty verdict (best_guess = -1), matching the batch attacks.
class BinSpectrum {
 public:
  explicit BinSpectrum(const BinnedMoments& stat);
  /// A spectrum reads its statistic: it cannot outlive a temporary one.
  explicit BinSpectrum(BinnedMoments&&) = delete;

  /// Pearson correlation of `model` with every sample column.
  CpaResult cpa(LeakageModel model, bool keep_time_curves = false) const;
  /// Difference of means on bit 0 of the S-box output.
  DpaResult dpa() const;
  /// l2 combination of the 8 bit-partition differences.
  MlpaResult mlpa() const;
  /// dpa() and mlpa() from one set of 8 inverse transforms: DPA is MLPA's
  /// bit 0.
  std::pair<DpaResult, MlpaResult> dpa_and_mlpa() const;
  /// |corr| of `model` with column `column` of a static projection, which
  /// holds the means over `window`.
  StaticPowerResult static_power(LeakageModel model, std::size_t column,
                                 StaticWindow window) const;

  /// The wrong guess a first-place check tries before the transform, per
  /// attack, carried from one checkpoint to the next: at first the lowest
  /// guess other than the key, after a full scoring the best wrong guess.
  /// `block` is the block of kLanes columns where its direct score last
  /// peaked (-1 until it has been scored over every column).
  struct Rival {
    int guess = -1;
    int block = -1;
  };
  struct Rivals {
    Rival cpa;
    Rival mlpa;
  };
  /// Whether `key` ranks first under CPA with `model` and, when
  /// `with_mlpa`, under MLPA: what key_rank() == 0 on cpa(model) and mlpa()
  /// would say, never below 2 traces.  One direct pass over the occupied
  /// bins scores, under every model row the check reads, the key over every
  /// column and each rival over its peak block.  An attack with a rival
  /// ahead of the key by more than rounding is settled there: the rival's
  /// full score is at least its score on that block.  Otherwise every guess
  /// is scored (one transform of the spectrum, shared by both attacks) and
  /// the attack's rival is renewed.
  struct KeyFirst {
    bool cpa = false;
    bool mlpa = false;
  };
  KeyFirst key_first(LeakageModel model, std::uint8_t key, bool with_mlpa,
                     Rivals& rivals) const;

 private:
  static constexpr std::size_t kLanes = 8;
  using Row = std::array<double, 256>;
  /// 256 rows (one per bin, guess or frequency) of kLanes columns.
  using Block = std::array<double, 256 * kLanes>;

  /// One guess of a first-place check, scored directly: the key over every
  /// column, a rival over its peak block (every column while it has none),
  /// through `bits` weight rows w(p) = g(p ^ guess), CPA's model (bits = 1)
  /// or MLPA's 8 bits.  peak is the max over the columns scored of |corr|
  /// (CPA) or of the sum of the squared partition differences (MLPA).
  struct Probe {
    int guess;
    int block;
    int bits;
    /// CPA: inv_model_norms() of the guess; MLPA: its partition_scale()s.
    std::array<double, 8> norm{};
    double peak = 0.0;
    int peak_block = -1;  ///< the block where peak was reached
  };
  /// Scores `probes` (key_first's, at most 18 weight rows) by sums over the
  /// occupied bins in ascending bin order.
  void score_directly(const Row& g, std::span<Probe> probes) const;
  /// The transform of the bin deviations, built on first use.
  const std::vector<Block>& spectrum() const;
  /// Calls each(k, j, corr) with the Pearson correlations of guess k under
  /// `model` at the column pair j, j + 1 (0 past the last column).
  template <typename Each>
  void correlations(LeakageModel model, Each&& each) const;
  /// Per guess, the max over columns of |bit-0 difference| and of the l2
  /// norm of the first `bits` partition differences.
  std::pair<Row, Row> partition_peaks(int bits) const;
  /// Per guess k, 1 / (256 sqrt(M2)) of its predictions g(p ^ k) over the
  /// traces, 0 when they do not vary.
  Row inv_model_norms(const Row& g) const;
  /// 1 / sqrt(M2) of columns j0 .. j0 + kLanes - 1; 0 for a column that
  /// does not vary or does not exist.
  std::array<double, kLanes> inv_column_norms(std::size_t j0) const;
  /// Per bit and guess, the difference-of-means factor (1/n1 + 1/n0) / 256
  /// of the bit's partition, 0 while a partition is empty.
  std::vector<Row> partition_scales() const;
  /// (1/n1 + 1/n0) / 256 of a partition with n1 = `ones` traces, 0 while a
  /// partition is empty.
  double partition_scale(double ones) const;

  std::size_t blocks() const { return (m_ + kLanes - 1) / kLanes; }
  /// D_p at column j: counts_[p] * (mean of bin p - pooled mean).
  double deviation(int p, std::size_t j) const {
    return counts_[p] * (bin_mean_[p][j] - mean_[j]);
  }

  std::size_t m_;
  std::size_t n_;
  Row counts_{};
  std::vector<int> occupied_;       ///< bins holding traces
  std::array<const double*, 256> bin_mean_{};  ///< the statistic's bin means
  std::vector<double> mean_;        ///< pooled mean per column
  std::vector<double> m2_;          ///< pooled M2 per column
  mutable std::vector<Block> spectrum_;  ///< H D once a full scorer ran
};

/// Test Vector Leakage Assessment (TVLA): the fixed-vs-random Welch t-test
/// (Goodwill et al., NIAT 2011).  It needs no leakage model: any
/// statistically significant difference between traces of a fixed input and
/// traces of random inputs flags exploitable leakage.
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

/// Welch t between two populations per sample column; t_statistic stays
/// empty until both have >= 2 traces.  Throws std::invalid_argument when the
/// two populations differ in sample count.
TvlaResult welch_t(const Moments& fixed, const Moments& random);

// ---------------------------------------------------------------------------
// Per-attack accumulators.  src/, the benches, the examples and the tests
// score attacks on the statistic above; these shells remain only for the
// repository benchmark's traced replay (repobench/), which constructs them.
// Each is a statistic plus one scorer, and each snapshot() is bit for bit
// the scorer applied to that statistic.

/// What the binned per-attack accumulators share: the statistic itself.
class BinnedAccumulator {
 public:
  explicit BinnedAccumulator(std::size_t samples) : bins_(samples) {}

  std::size_t num_traces() const { return bins_.num_traces(); }
  void add_batch(const TraceBatch& batch) { bins_.add_batch(batch); }

 protected:
  BinnedMoments bins_;
};

/// BinSpectrum::cpa over a BinnedMoments.
class CpaAccumulator : public BinnedAccumulator {
 public:
  CpaAccumulator(LeakageModel model, std::size_t samples)
      : BinnedAccumulator(samples), model_(model) {}

  CpaResult snapshot() const { return BinSpectrum(bins_).cpa(model_); }

 private:
  LeakageModel model_;
};

/// BinSpectrum::dpa over a BinnedMoments.
class DpaAccumulator : public BinnedAccumulator {
 public:
  using BinnedAccumulator::BinnedAccumulator;
  DpaResult snapshot() const { return BinSpectrum(bins_).dpa(); }
};

/// BinSpectrum::mlpa over a BinnedMoments.
class MlpaAccumulator : public BinnedAccumulator {
 public:
  using BinnedAccumulator::BinnedAccumulator;
  MlpaResult snapshot() const { return BinSpectrum(bins_).mlpa(); }
};

/// BinSpectrum::static_power over the one-column add_window_means
/// projection of `window`.
class StaticPowerAccumulator {
 public:
  StaticPowerAccumulator(LeakageModel model, std::size_t samples,
                         StaticWindow window = StaticWindow::kAll)
      : model_(model), window_(window), m_(samples), bins_(1) {}

  void add_batch(const TraceBatch& batch) {
    add_window_means(bins_, {&window_, 1}, m_, batch);
  }
  StaticPowerResult snapshot() const {
    return BinSpectrum(bins_).static_power(model_, 0, window_);
  }

 private:
  LeakageModel model_;
  StaticWindow window_;
  std::size_t m_;
  BinnedMoments bins_;
};

/// welch_t over one Moments per class.
class TvlaAccumulator {
 public:
  explicit TvlaAccumulator(std::size_t samples)
      : fixed_(samples), random_(samples) {}

  /// Folds a batch, classifying traces by plaintext == fixed_plaintext.
  void add_batch(const TraceBatch& batch, std::uint8_t fixed_plaintext);
  TvlaResult snapshot() const { return welch_t(fixed_, random_); }

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

  /// A grid point is judged once the stream reaches it, before anything
  /// past it is folded in, so the one the stream ends on waits for finish().
  void add_batch(const TraceBatch& batch);
  /// Judges the grid points left open (the one the stream ended on, and
  /// those a short stream never reached) on the final state, by verdicts()
  /// or, when the caller has already scored the final state, by its answers
  /// `final_first`.  Call after the last batch.
  void finish();
  void finish(const std::vector<bool>& final_first);
  /// MTD under scorer `scorer` (an index into verdicts()); 0 = never
  /// disclosed.
  std::size_t mtd(std::size_t scorer = 0) const;

 private:
  void checkpoint(const std::vector<bool>& first);

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
  /// Scorer s.  mtd_of is asked last, once every verdict is in place, so
  /// it may judge a checkpoint on this statistic by key_first().
  void score(const BinnedMoments& bins, const BinnedMoments* windows,
             std::uint8_t key, bool with_mlpa,
             const std::function<std::size_t(std::size_t)>& mtd_of,
             bool keep_time_curves = false);
  /// Whether the key ranks first under each Scorer: what a FirstPlace check
  /// of the scored statistic answers.
  std::vector<bool> key_first() const;
  /// Adds the "static_power" array and the "mlpa" object of the mounted
  /// scorers to `report`; `static_holds`, when given, follows the array as
  /// "static_traces_accumulated".
  void add_json(obs::json::Object& report,
                std::optional<std::uint64_t> static_holds = {}) const;
};

/// The MTD check on a growing statistic and, when non-null, its static
/// projection: whether the key ranks first under each AttackVerdicts::Scorer
/// (an unmounted one never does).  A first_place() callable owns the CPA and
/// MLPA rivals it carries from one checkpoint to the next
/// (BinSpectrum::key_first).
using FirstPlace = std::function<std::vector<bool>(const BinnedMoments&,
                                                   const BinnedMoments*)>;
FirstPlace first_place(std::uint8_t key, bool mlpa,
                       LeakageModel model = AttackVerdicts::kModel);

}  // namespace pgmcml::sca
