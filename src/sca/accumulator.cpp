#include "pgmcml/sca/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::sca {

namespace {

/// Obs counters of one kind of state (rows folded in, bytes streamed,
/// merges), resolved once and bumped per batch.
struct StateCounters {
  obs::Counter rows;
  obs::Counter bytes;
  obs::Counter merges;

  explicit StateCounters(const std::string& prefix)
      : rows(obs::Registry::global().counter(prefix + ".rows_merged")),
        bytes(obs::Registry::global().counter(prefix + ".bytes_streamed")),
        merges(obs::Registry::global().counter(prefix + ".merges")) {}

  void note_rows(std::size_t n, std::size_t samples) {
    rows.add(n);
    bytes.add(n * samples * sizeof(double));
  }
};

StateCounters& bins_obs() {
  static StateCounters c("sca.bins");
  return c;
}
StateCounters& tvla_obs() {
  static StateCounters c("sca.tvla");
  return c;
}

void check_width(std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument("sca: sample-count mismatch (ragged trace)");
  }
}

using Row = std::array<double, 256>;

/// In-place unnormalised 256-point Walsh-Hadamard transform (H H = 256 I)
/// of each of the `lanes` interleaved columns of a: entry (u, l) is at
/// a[u * lanes + l].
template <std::size_t lanes>
void wht(double* a) {
  for (std::size_t h = 1; h < 256; h <<= 1) {
    for (std::size_t i = 0; i < 256; i += 2 * h) {
      for (std::size_t r = i; r < i + h; ++r) {
        double* x = a + r * lanes;
        double* y = x + h * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
          const double s = x[l];
          const double t = y[l];
          x[l] = s + t;
          y[l] = s - t;
        }
      }
    }
  }
}

/// g(x) = model prediction for S-box input x; guess k on plaintext p reads
/// g(p ^ k).
Row model_row(LeakageModel model) {
  Row g;
  for (int x = 0; x < 256; ++x) {
    g[x] = predict_leakage(model, static_cast<std::uint8_t>(x), 0);
  }
  return g;
}

/// Bit `b` of the S-box output, as a function of the S-box input.
Row bit_row(int b) {
  Row g;
  for (int x = 0; x < 256; ++x) {
    g[x] = (aes::reduced_target(static_cast<std::uint8_t>(x), 0) >> b) & 1;
  }
  return g;
}

/// g centred by its mean over the 256 values.  Since sum_p D_p = 0,
/// centring changes no score in exact arithmetic; it zeroes the DC term of
/// the transform, so the rounding residue of sum_p D_p never enters one.
Row centred(Row g) {
  double mean = 0.0;
  for (const double v : g) mean += v;
  mean /= 256.0;
  for (double& v : g) v -= mean;
  return g;
}

Row transformed(Row g) {
  wht<1>(g.data());
  return g;
}

/// The direct single-guess sums differ from the transformed ones only by
/// rounding (~1e-15 relative), so a rival ahead by more than this is ahead
/// in a full scoring too.
constexpr double kRivalMargin = 1e-9;

/// Mean of `trace` over one gating window.
double window_mean(std::span<const double> trace, StaticWindow window) {
  const auto [lo, hi] = static_window_bounds(window, trace.size());
  double sum = 0.0;
  for (std::size_t j = lo; j < hi; ++j) sum += trace[j];
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

int argmax(const Row& scores) {
  return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                          scores.begin());
}

}  // namespace

// ---------------------------------------------------------------------------
// Moments

void Moments::add(std::span<const double> trace) {
  check_width(trace.size(), mean.size());
  const double cnt = static_cast<double>(++n);
  for (std::size_t j = 0; j < mean.size(); ++j) {
    const double d = trace[j] - mean[j];
    mean[j] += d / cnt;
    m2[j] += d * (trace[j] - mean[j]);
  }
}

void Moments::merge(const Moments& other) {
  if (other.mean.size() != mean.size()) {
    throw std::invalid_argument("sca: merge of a different sample count");
  }
  if (other.n == 0) return;
  if (n == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n);
  const double nb = static_cast<double>(other.n);
  const double nt = na + nb;
  const double w = na * nb / nt;  // Chan's cross-term weight
  for (std::size_t j = 0; j < mean.size(); ++j) {
    const double d = other.mean[j] - mean[j];
    m2[j] += other.m2[j] + d * d * w;
    mean[j] += d * nb / nt;
  }
  n += other.n;
}

void Moments::save(SnapshotWriter& w) const {
  w.u64(n);
  w.f64_span(mean);
  w.f64_span(m2);
}

Moments Moments::load(SnapshotReader& r, std::size_t samples) {
  Moments p;
  p.n = static_cast<std::size_t>(r.u64());
  r.f64_into(p.mean, samples);
  r.f64_into(p.m2, samples);
  return p;
}

// ---------------------------------------------------------------------------
// BinnedMoments

BinnedMoments::BinnedMoments(std::size_t samples)
    : m_(samples), bins_(256, Moments(samples)) {}

void BinnedMoments::add(std::uint8_t plaintext,
                        std::span<const double> trace) {
  bins_[plaintext].add(trace);
  ++n_;
  bins_obs().note_rows(1, m_);
}

void BinnedMoments::add_batch(const TraceBatch& batch) {
  for (const auto& t : batch.traces) check_width(t.size(), m_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    bins_[batch.plaintexts[i]].add(batch.traces[i]);
  }
  n_ += batch.size();
  bins_obs().note_rows(batch.size(), m_);
}

void BinnedMoments::merge(const BinnedMoments& other) {
  bins_obs().merges.add(1);
  for (std::size_t p = 0; p < bins_.size(); ++p) bins_[p].merge(other.bins_[p]);
  n_ += other.n_;
}

Moments BinnedMoments::pooled() const {
  Moments all(m_);
  for (const Moments& bin : bins_) all.merge(bin);
  return all;
}

void BinnedMoments::save(SnapshotWriter& w) const {
  w.tag("BMS1");
  w.u64(m_);
  for (const Moments& bin : bins_) bin.save(w);
}

BinnedMoments BinnedMoments::load(SnapshotReader& r) {
  r.expect_tag("BMS1");
  const std::uint64_t m = r.u64();
  // Every bin holds two rows of m doubles: a sample count the stream cannot
  // back is corrupt, and is rejected before anything is allocated.
  if (m > r.remaining() / (256 * 2 * sizeof(double))) {
    throw std::runtime_error("BinnedMoments::load: sample count exceeds stream");
  }
  BinnedMoments stat(static_cast<std::size_t>(m));
  for (Moments& bin : stat.bins_) {
    bin = Moments::load(r, stat.m_);
    stat.n_ += bin.n;
  }
  return stat;
}

// ---------------------------------------------------------------------------
// Static projection

void add_window_means(BinnedMoments& projection,
                      std::span<const StaticWindow> windows,
                      std::size_t samples, const TraceBatch& batch) {
  for (const auto& t : batch.traces) check_width(t.size(), samples);
  std::vector<double> row(windows.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      row[w] = window_mean(batch.traces[i], windows[w]);
    }
    projection.add(batch.plaintexts[i], row);
  }
}

// ---------------------------------------------------------------------------
// BinSpectrum: the scorers

BinSpectrum::BinSpectrum(const BinnedMoments& stat)
    : m_(stat.samples_per_trace()), n_(stat.num_traces()) {
  Moments pooled = stat.pooled();
  mean_ = std::move(pooled.mean);
  m2_ = std::move(pooled.m2);
  for (int p = 0; p < 256; ++p) {
    const Moments& bin = stat.bin(static_cast<std::uint8_t>(p));
    counts_[p] = static_cast<double>(bin.n);
    bin_mean_[p] = bin.mean.data();
    if (bin.n > 0) occupied_.push_back(p);
  }
}

void BinSpectrum::correlate(const Row& g, const Row& g_hat, std::size_t blk,
                            int guess, Block& out) const {
  if (guess >= 0) {
    const std::size_t j0 = blk * kLanes;
    const std::size_t lanes = std::min(kLanes, m_ - j0);
    const double* pooled = mean_.data() + j0;
    std::array<double, kLanes> sum{};
    for (const int p : occupied_) {
      const double w = g[p ^ guess];
      const double c = counts_[p];
      const double* mean = bin_mean_[p] + j0;
      for (std::size_t l = 0; l < lanes; ++l) {
        sum[l] += w * (c * (mean[l] - pooled[l]));
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) out[l] = 256.0 * sum[l];
    return;
  }
  if (spectrum_.empty()) {
    spectrum_.assign(blocks(), Block{});
    for (const int p : occupied_) {
      for (std::size_t j = 0; j < m_; ++j) {
        spectrum_[j / kLanes][p * kLanes + j % kLanes] = deviation(p, j);
      }
    }
    for (Block& b : spectrum_) wht<kLanes>(b.data());
  }
  const Block& s = spectrum_[blk];
  for (std::size_t u = 0; u < 256; ++u) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      out[u * kLanes + l] = g_hat[u] * s[u * kLanes + l];
    }
  }
  wht<kLanes>(out.data());
}

void BinSpectrum::correlations(
    LeakageModel model, int guess,
    const std::function<void(std::size_t, const Row&)>& each) const {
  const Row g = model_row(model);
  const Row g_c = centred(g);
  const Row g_hat = transformed(g_c);
  const int k_lo = guess < 0 ? 0 : guess;
  const int k_hi = guess < 0 ? 256 : guess + 1;
  // 1 / (256 sqrt(M2_h)) per guess, M2 of its predictions over the traces
  // taken two-pass over the bins; 1 / sqrt(M2) per column.  A zero M2
  // makes the correlation 0.
  Row inv_h{};
  for (int k = k_lo; k < k_hi; ++k) {
    double mean = 0.0;
    for (int p = 0; p < 256; ++p) mean += counts_[p] * g[p ^ k];
    mean /= static_cast<double>(n_);
    double m2 = 0.0;
    for (int p = 0; p < 256; ++p) {
      const double d = g[p ^ k] - mean;
      m2 += counts_[p] * d * d;
    }
    inv_h[k] = m2 > 0.0 ? 1.0 / (256.0 * std::sqrt(m2)) : 0.0;
  }
  Block out;
  Row corr{};
  for (std::size_t blk = 0; blk < blocks(); ++blk) {
    correlate(g_c, g_hat, blk, guess, out);
    for (std::size_t l = 0; l < kLanes && blk * kLanes + l < m_; ++l) {
      const std::size_t j = blk * kLanes + l;
      const double inv_s = m2_[j] > 0.0 ? 1.0 / std::sqrt(m2_[j]) : 0.0;
      for (int k = k_lo; k < k_hi; ++k) {
        corr[k - k_lo] = out[(k - k_lo) * kLanes + l] * inv_h[k] * inv_s;
      }
      each(j, corr);
    }
  }
}

BinSpectrum::Row BinSpectrum::partition_peaks(int bits, int guess) const {
  const int k_lo = guess < 0 ? 0 : guess;
  const int k_hi = guess < 0 ? 256 : guess + 1;
  // Per bit: the centred bit and its transform, and per guess the
  // difference-of-means factor (1/n1 + 1/n0) / 256 (0 while a partition is
  // empty, which drops the bit).
  std::vector<Row> g_c(bits);
  std::vector<Row> g_hat(bits);
  std::vector<Row> scale(bits);
  for (int b = 0; b < bits; ++b) {
    const Row g = bit_row(b);
    g_c[b] = centred(g);
    g_hat[b] = transformed(g_c[b]);
    for (int k = k_lo; k < k_hi; ++k) {
      double n1 = 0.0;
      for (int p = 0; p < 256; ++p) n1 += counts_[p] * g[p ^ k];
      const double n0 = static_cast<double>(n_) - n1;
      scale[b][k] =
          n1 > 0.0 && n0 > 0.0 ? (1.0 / n1 + 1.0 / n0) / 256.0 : 0.0;
    }
  }
  Row peak_sq{};
  Block sq;
  Block diff;
  for (std::size_t blk = 0; blk < blocks(); ++blk) {
    sq.fill(0.0);
    for (int b = 0; b < bits; ++b) {
      correlate(g_c[b], g_hat[b], blk, guess, diff);
      for (int k = k_lo; k < k_hi; ++k) {
        const std::size_t row = static_cast<std::size_t>(k - k_lo) * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double d = diff[row + l] * scale[b][k];
          sq[row + l] += d * d;
        }
      }
    }
    for (int k = k_lo; k < k_hi; ++k) {
      const std::size_t row = static_cast<std::size_t>(k - k_lo) * kLanes;
      for (std::size_t l = 0; l < kLanes && blk * kLanes + l < m_; ++l) {
        peak_sq[k - k_lo] = std::max(peak_sq[k - k_lo], sq[row + l]);
      }
    }
  }
  for (double& v : peak_sq) v = std::sqrt(v);
  return peak_sq;
}

CpaResult BinSpectrum::cpa(LeakageModel model, bool keep_time_curves) const {
  CpaResult result;
  if (n_ < 2 || m_ == 0) return result;
  if (keep_time_curves) result.correlation_vs_time.assign(m_, {});
  correlations(model, -1, [&](std::size_t j, const Row& corr) {
    if (keep_time_curves) result.correlation_vs_time[j] = corr;
    for (int k = 0; k < 256; ++k) {
      result.peak_correlation[k] =
          std::max(result.peak_correlation[k], std::fabs(corr[k]));
    }
  });
  result.best_guess = argmax(result.peak_correlation);
  return result;
}

DpaResult BinSpectrum::dpa() const {
  DpaResult result;
  if (n_ < 2 || m_ == 0) return result;
  result.peak_difference = partition_peaks(1, -1);
  result.best_guess = argmax(result.peak_difference);
  return result;
}

MlpaResult BinSpectrum::mlpa() const {
  MlpaResult result;
  if (n_ < 2 || m_ == 0) return result;
  result.score = partition_peaks(8, -1);
  result.best_guess = argmax(result.score);
  return result;
}

StaticPowerResult BinSpectrum::static_power(LeakageModel model,
                                            std::size_t column,
                                            StaticWindow window) const {
  StaticPowerResult result;
  result.window = window;
  result.traces = n_;
  if (n_ < 2) return result;
  correlations(model, -1, [&](std::size_t j, const Row& corr) {
    if (j != column) return;
    for (int k = 0; k < 256; ++k) result.correlation[k] = std::fabs(corr[k]);
  });
  result.best_guess = argmax(result.correlation);
  return result;
}

namespace {

/// Whether `key` ranks first, from `one(k)` (one guess's score) while the
/// rival clearly outscores the key, else from `all()` (every guess), which
/// also renews the rival: the best wrong guess.
template <typename One, typename All>
bool key_first(std::uint8_t key, int& rival, One one, All all) {
  if (rival >= 0 && one(rival) > one(key) * (1.0 + kRivalMargin)) {
    return false;
  }
  const Row scores = all();
  rival = key == 0 ? 1 : 0;
  for (int k = 0; k < 256; ++k) {
    if (k != key && scores[k] > scores[rival]) rival = k;
  }
  return !(scores[rival] > scores[key]);
}

}  // namespace

bool BinSpectrum::cpa_first(LeakageModel model, std::uint8_t key,
                            int& rival) const {
  if (n_ < 2 || m_ == 0) return false;
  return key_first(
      key, rival,
      [&](int k) {
        double peak = 0.0;
        correlations(model, k, [&](std::size_t, const Row& corr) {
          peak = std::max(peak, std::fabs(corr[0]));
        });
        return peak;
      },
      [&] { return cpa(model).peak_correlation; });
}

bool BinSpectrum::mlpa_first(std::uint8_t key, int& rival) const {
  if (n_ < 2 || m_ == 0) return false;
  return key_first(
      key, rival, [&](int k) { return partition_peaks(8, k)[0]; },
      [&] { return mlpa().score; });
}

TvlaResult welch_t(const Moments& fixed, const Moments& random) {
  TvlaResult result;
  result.fixed_traces = fixed.n;
  result.random_traces = random.n;
  if (fixed.n < 2 || random.n < 2) return result;
  const std::size_t m = fixed.mean.size();
  result.t_statistic.assign(m, 0.0);
  const double na = static_cast<double>(fixed.n);
  const double nb = static_cast<double>(random.n);
  for (std::size_t j = 0; j < m; ++j) {
    const double var_a = fixed.m2[j] / (na - 1.0);
    const double var_b = random.m2[j] / (nb - 1.0);
    const double denom = std::sqrt(var_a / na + var_b / nb);
    const double t =
        denom > 0.0 ? (fixed.mean[j] - random.mean[j]) / denom : 0.0;
    result.t_statistic[j] = t;
    result.max_abs_t = std::max(result.max_abs_t, std::fabs(t));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-attack accumulators

void CpaAccumulator::merge(const CpaAccumulator& other) {
  if (other.model_ != model_) {
    throw std::invalid_argument("CpaAccumulator::merge: model mismatch");
  }
  bins_.merge(other.bins_);
}

void StaticPowerAccumulator::add(std::uint8_t plaintext,
                                 std::span<const double> trace) {
  TraceBatch one;
  one.add(plaintext, trace);
  add_batch(one);
}

void StaticPowerAccumulator::merge(const StaticPowerAccumulator& other) {
  if (other.model_ != model_ || other.window_ != window_ || other.m_ != m_) {
    throw std::invalid_argument(
        "StaticPowerAccumulator::merge: model/window/sample-count mismatch");
  }
  bins_.merge(other.bins_);
}

void TvlaAccumulator::add(bool is_fixed, std::span<const double> trace) {
  (is_fixed ? fixed_ : random_).add(trace);
  tvla_obs().note_rows(1, samples_per_trace());
}

void TvlaAccumulator::add_batch(const TraceBatch& batch,
                                std::uint8_t fixed_plaintext) {
  for (const auto& t : batch.traces) check_width(t.size(), samples_per_trace());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (batch.plaintexts[i] == fixed_plaintext ? fixed_ : random_)
        .add(batch.traces[i]);
  }
  tvla_obs().note_rows(batch.size(), samples_per_trace());
}

void TvlaAccumulator::merge(const TvlaAccumulator& other) {
  tvla_obs().merges.add(1);
  fixed_.merge(other.fixed_);
  random_.merge(other.random_);
}

void TvlaAccumulator::save(SnapshotWriter& w) const {
  w.tag("TVL2");
  w.u64(samples_per_trace());
  fixed_.save(w);
  random_.save(w);
}

TvlaAccumulator TvlaAccumulator::load(SnapshotReader& r) {
  r.expect_tag("TVL2");
  const std::uint64_t m = r.u64();
  if (m > r.remaining() / (2 * 2 * sizeof(double))) {
    throw std::runtime_error("TvlaAccumulator::load: sample count exceeds stream");
  }
  TvlaAccumulator acc(0);
  acc.fixed_ = Moments::load(r, static_cast<std::size_t>(m));
  acc.random_ = Moments::load(r, static_cast<std::size_t>(m));
  return acc;
}

// ---------------------------------------------------------------------------
// Measurements to disclosure

std::size_t mtd_from_checkpoints(
    const std::vector<std::pair<std::size_t, bool>>& checkpoints) {
  std::size_t mtd = 0;
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend() && it->second;
       ++it) {
    mtd = it->first;
  }
  return mtd;
}

MtdTracker::MtdTracker(std::size_t expected_traces, Fold fold,
                       Verdicts verdicts, std::size_t grid_points)
    : fold_(std::move(fold)), verdicts_(std::move(verdicts)) {
  if (expected_traces < 4 || grid_points < 2) return;
  for (std::size_t g = 1; g <= grid_points; ++g) {
    grid_.push_back(std::max<std::size_t>(4, g * expected_traces / grid_points));
  }
}

void MtdTracker::checkpoint() {
  const std::vector<bool> first = verdicts_();
  if (checkpoints_.size() < first.size()) checkpoints_.resize(first.size());
  for (std::size_t s = 0; s < first.size(); ++s) {
    checkpoints_[s].emplace_back(grid_[next_grid_], first[s]);
  }
  ++next_grid_;
}

void MtdTracker::add_batch(const TraceBatch& batch) {
  std::size_t pos = 0;
  while (pos < batch.size()) {
    std::size_t take = batch.size() - pos;
    if (next_grid_ < grid_.size()) {
      take = std::min(take, grid_[next_grid_] - traces_);
    }
    if (take == batch.size()) {
      fold_(batch);
    } else {
      piece_.clear();
      for (std::size_t i = pos; i < pos + take; ++i) {
        piece_.add(batch.plaintexts[i], batch.traces[i]);
      }
      fold_(piece_);
    }
    pos += take;
    traces_ += take;
    while (next_grid_ < grid_.size() && grid_[next_grid_] <= traces_) {
      checkpoint();
    }
  }
}

void MtdTracker::finish() {
  while (next_grid_ < grid_.size()) checkpoint();
}

std::size_t MtdTracker::mtd(std::size_t scorer) const {
  return scorer < checkpoints_.size() ? mtd_from_checkpoints(checkpoints_[scorer])
                                      : 0;
}

// ---------------------------------------------------------------------------
// Verdicts

void AttackVerdicts::score(
    const BinnedMoments& bins, const BinnedMoments* windows, std::uint8_t key,
    bool with_mlpa, const std::function<std::size_t(std::size_t)>& mtd_of,
    bool keep_time_curves) {
  const BinSpectrum spectrum(bins);
  cpa = spectrum.cpa(kModel, keep_time_curves);
  dpa = spectrum.dpa();
  key_rank = cpa.key_rank(key);
  margin = cpa.margin(key);
  mtd = mtd_of(kCpa);
  mlpa_mtd = mtd_of(kMlpa);
  static_awake_mtd = mtd_of(kAwake);
  static_asleep_mtd = mtd_of(kAsleep);
  mlpa_mounted = with_mlpa;
  if (with_mlpa) {
    mlpa = spectrum.mlpa();
    mlpa_rank = mlpa.key_rank(key);
    mlpa_margin = mlpa.margin(key);
  }
  static_mounted = windows != nullptr;
  if (static_mounted) {
    const BinSpectrum held(*windows);
    static_awake = held.static_power(kModel, 0, kStaticWindows[0]);
    static_asleep = held.static_power(kModel, 1, kStaticWindows[1]);
    static_awake_rank = static_awake.key_rank(key);
    static_asleep_rank = static_asleep.key_rank(key);
    static_awake_margin = static_awake.margin(key);
    static_asleep_margin = static_asleep.margin(key);
  }
}

void AttackVerdicts::add_json(obs::json::Object& report,
                              std::optional<std::uint64_t> static_holds) const {
  // One scorer's verdict, after the members `o` already holds.
  const auto verdict = [](obs::json::Object o, int rank, double m,
                          std::size_t at) {
    o.emplace_back("key_rank", rank);
    o.emplace_back("margin", m);
    o.emplace_back("mtd", static_cast<std::uint64_t>(at));
    return o;
  };
  const auto window = [](const StaticPowerResult& w) {
    return obs::json::Object{{"window", std::string(to_string(w.window))}};
  };
  if (static_mounted) {
    obs::json::Array held;
    held.emplace_back(verdict(window(static_awake), static_awake_rank,
                              static_awake_margin, static_awake_mtd));
    held.emplace_back(verdict(window(static_asleep), static_asleep_rank,
                              static_asleep_margin, static_asleep_mtd));
    report.emplace_back("static_power", std::move(held));
    if (static_holds) {
      report.emplace_back("static_traces_accumulated", *static_holds);
    }
  }
  if (mlpa_mounted) {
    report.emplace_back("mlpa", verdict({}, mlpa_rank, mlpa_margin, mlpa_mtd));
  }
}

FirstPlace first_place(std::uint8_t key, bool mlpa, LeakageModel model) {
  using V = AttackVerdicts;
  return [=, cpa_rival = -1, mlpa_rival = -1](
             const BinnedMoments& bins, const BinnedMoments* windows) mutable {
    std::vector<bool> first(V::kScorers, false);
    const BinSpectrum spectrum(bins);
    first[V::kCpa] = spectrum.cpa_first(model, key, cpa_rival);
    if (mlpa) first[V::kMlpa] = spectrum.mlpa_first(key, mlpa_rival);
    if (windows != nullptr) {
      const BinSpectrum held(*windows);
      for (std::size_t c = 0; c < kStaticWindows.size(); ++c) {
        first[V::kAwake + c] =
            held.static_power(model, c, kStaticWindows[c]).key_rank(key) == 0;
      }
    }
    return first;
  };
}

// ---------------------------------------------------------------------------

CpaAccumulator cpa_accumulate_sharded(const TraceSet& traces,
                                      LeakageModel model,
                                      std::size_t shard_size) {
  if (shard_size == 0) {
    throw std::invalid_argument("cpa_accumulate_sharded: shard_size == 0");
  }
  const std::size_t n = traces.num_traces();
  const std::size_t shards =
      std::max<std::size_t>(1, (n + shard_size - 1) / shard_size);
  std::vector<CpaAccumulator> parts(
      shards, CpaAccumulator(model, traces.samples_per_trace()));
  util::parallel_for(
      shards,
      [&](std::size_t s) {
        TraceBatch batch;
        const std::size_t hi = std::min(n, (s + 1) * shard_size);
        for (std::size_t i = s * shard_size; i < hi; ++i) {
          batch.add(traces.plaintext(i), traces.trace(i));
        }
        parts[s].add_batch(batch);
      },
      /*grain=*/1);
  // Fixed ascending merge order: the result is invariant to thread count.
  for (std::size_t s = 1; s < shards; ++s) parts[0].merge(parts[s]);
  return std::move(parts[0]);
}

}  // namespace pgmcml::sca
