#include "pgmcml/sca/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/obs/obs.hpp"

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

void check_width(std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument("sca: sample-count mismatch (ragged trace)");
  }
}

using Row = std::array<double, 256>;

/// In-place unnormalised 256-point Walsh-Hadamard transform (H H = 256 I).
template <typename T>
void wht(std::array<T, 256>& a) {
  for (std::size_t h = 1; h < 256; h <<= 1) {
    for (std::size_t i = 0; i < 256; i += 2 * h) {
      for (std::size_t r = i; r < i + h; ++r) {
        const T s = a[r];
        const T t = a[r + h];
        a[r] = s + t;
        a[r + h] = s - t;
      }
    }
  }
}

/// Two adjacent columns of one row of a block: the unit the block
/// transform moves, one SSE2 register wide.
struct Pair {
  double lo;
  double hi;
};
Pair operator+(Pair a, Pair b) { return {a.lo + b.lo, a.hi + b.hi}; }
Pair operator-(Pair a, Pair b) { return {a.lo - b.lo, a.hi - b.hi}; }

/// Stages h and 2h of the 256-point transform of a block of `lanes`
/// interleaved columns (entry (u, l) at u * lanes + l): on the rows r,
/// r + h, r + 2h, r + 3h of every group of 4h rows, a column pair at a
/// time, load(u, l) fetches pair (u, l) and store(u, l, pair) puts it back.
/// The four rows are added and subtracted in the radix-2 order, so every
/// value is bitwise what two radix-2 stages give, in half the memory
/// traffic.  `pairs_outermost` visits one column pair of every row before
/// the next pair; otherwise every pair of a row before the next row.
template <std::size_t lanes, std::size_t h, bool pairs_outermost,
          typename Load, typename Store>
void radix4_pass(Load&& load, Store&& store) {
  const auto butterfly = [&](std::size_t r, std::size_t l) {
    const Pair a0 = load(r, l);
    const Pair a1 = load(r + h, l);
    const Pair a2 = load(r + 2 * h, l);
    const Pair a3 = load(r + 3 * h, l);
    const Pair s0 = a0 + a1;
    const Pair d0 = a0 - a1;
    const Pair s1 = a2 + a3;
    const Pair d1 = a2 - a3;
    store(r, l, s0 + s1);
    store(r + h, l, d0 + d1);
    store(r + 2 * h, l, s0 - s1);
    store(r + 3 * h, l, d0 - d1);
  };
  for (std::size_t l = 0; pairs_outermost && l < lanes; l += 2) {
    for (std::size_t i = 0; i < 256; i += 4 * h) {
      for (std::size_t r = i; r < i + h; ++r) butterfly(r, l);
    }
  }
  for (std::size_t i = 0; !pairs_outermost && i < 256; i += 4 * h) {
    for (std::size_t r = i; r < i + h; ++r) {
      for (std::size_t l = 0; l < lanes; l += 2) butterfly(r, l);
    }
  }
}

/// The transform of each of the `lanes` columns of the block `in`, every
/// row u first multiplied by scale[u] unless `scale` is null.  The first
/// pass scales as it loads, the middle ones work in `work` (which may be
/// `in`), and the last hands each output pair to emit(u, l, pair) instead
/// of storing it.
template <std::size_t lanes, typename Emit>
void wht_block(const double* in, const double* scale, double* work,
               Emit&& emit) {
  static_assert(lanes % 2 == 0);
  const auto load = [work](std::size_t u, std::size_t l) {
    return Pair{work[u * lanes + l], work[u * lanes + l + 1]};
  };
  const auto store = [work](std::size_t u, std::size_t l, Pair v) {
    work[u * lanes + l] = v.lo;
    work[u * lanes + l + 1] = v.hi;
  };
  // Column pair by column pair when unscaled (the in-place forward
  // transform), row by row when scaled (the inverse transforms that emit
  // into a scorer): under GCC 12 -O3 each order is the faster one for its
  // use.
  const auto passes = [&](auto pairs_outermost, auto&& first_load) {
    constexpr bool outer = decltype(pairs_outermost)::value;
    radix4_pass<lanes, 1, outer>(first_load, store);
    radix4_pass<lanes, 4, outer>(load, store);
    radix4_pass<lanes, 16, outer>(load, store);
    radix4_pass<lanes, 64, outer>(load, emit);
  };
  if (scale == nullptr) {
    passes(std::true_type{}, [in](std::size_t u, std::size_t l) {
      return Pair{in[u * lanes + l], in[u * lanes + l + 1]};
    });
  } else {
    passes(std::false_type{}, [in, scale](std::size_t u, std::size_t l) {
      return Pair{scale[u] * in[u * lanes + l],
                  scale[u] * in[u * lanes + l + 1]};
    });
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
  wht(g);
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

std::size_t Moments::saved_size() const {
  return 3 * sizeof(std::uint64_t) + (mean.size() + m2.size()) * sizeof(double);
}

// ---------------------------------------------------------------------------
// BinnedMoments

BinnedMoments::BinnedMoments(std::size_t samples)
    : m_(samples), bins_(256, Moments(samples)) {}

BinnedMoments::BinnedMoments(std::size_t samples, std::vector<Moments> bins)
    : m_(samples), bins_(std::move(bins)) {
  for (const Moments& bin : bins_) n_ += bin.n;
}

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
  const auto samples = static_cast<std::size_t>(m);
  std::vector<Moments> bins;
  bins.reserve(256);
  for (int p = 0; p < 256; ++p) bins.push_back(Moments::load(r, samples));
  return BinnedMoments(samples, std::move(bins));
}

std::size_t BinnedMoments::saved_size() const {
  std::size_t n = 4 + sizeof(std::uint64_t);
  for (const Moments& bin : bins_) n += bin.saved_size();
  return n;
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

namespace {

/// Obs counters of the first-place checks: one per attack asked, and the
/// ones that fell back to a full scoring.
struct FirstPlaceCounters {
  obs::Counter checks =
      obs::Registry::global().counter("sca.first_place.checks");
  obs::Counter transforms =
      obs::Registry::global().counter("sca.first_place.transforms");
};

FirstPlaceCounters& first_place_obs() {
  static FirstPlaceCounters c;
  return c;
}

using IntRow = std::array<std::int64_t, 256>;

using Rival = BinSpectrum::Rival;

/// Renews `rival` from a full scoring (the best wrong guess, the lower one
/// on a tie) and answers whether the key ranks first: no wrong guess
/// outscores it.
bool key_leads(const Row& scores, int key, Rival& rival) {
  int best = key == 0 ? 1 : 0;
  for (int k = 0; k < 256; ++k) {
    if (k != key && scores[k] > scores[best]) best = k;
  }
  rival = Rival{best, -1};
  return !(scores[best] > scores[key]);
}

}  // namespace

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

const std::vector<BinSpectrum::Block>& BinSpectrum::spectrum() const {
  if (!spectrum_.empty()) return spectrum_;
  // Bin by bin, so each bin's mean row is read front to back.
  spectrum_.assign(blocks(), Block{});
  for (const int p : occupied_) {
    for (std::size_t j = 0; j < m_; ++j) {
      spectrum_[j / kLanes][p * kLanes + j % kLanes] = deviation(p, j);
    }
  }
  for (Block& s : spectrum_) {
    wht_block<kLanes>(s.data(), nullptr, s.data(),
                      [&s](std::size_t u, std::size_t l, Pair v) {
                        s[u * kLanes + l] = v.lo;
                        s[u * kLanes + l + 1] = v.hi;
                      });
  }
  return spectrum_;
}

BinSpectrum::Row BinSpectrum::inv_model_norms(const Row& g) const {
  // M2 taken two-pass over the bins, for every guess side by side, so no
  // guess's sum waits on its previous add.
  Row mean{};
  for (int p = 0; p < 256; ++p) {
    for (int k = 0; k < 256; ++k) mean[k] += counts_[p] * g[p ^ k];
  }
  for (double& v : mean) v /= static_cast<double>(n_);
  Row m2{};
  for (int p = 0; p < 256; ++p) {
    for (int k = 0; k < 256; ++k) {
      const double d = g[p ^ k] - mean[k];
      m2[k] += counts_[p] * d * d;
    }
  }
  for (double& v : m2) v = v > 0.0 ? 1.0 / (256.0 * std::sqrt(v)) : 0.0;
  return m2;
}

std::array<double, BinSpectrum::kLanes> BinSpectrum::inv_column_norms(
    std::size_t j0) const {
  std::array<double, kLanes> inv_s{};
  for (std::size_t l = 0; l < kLanes && j0 + l < m_; ++l) {
    inv_s[l] = m2_[j0 + l] > 0.0 ? 1.0 / std::sqrt(m2_[j0 + l]) : 0.0;
  }
  return inv_s;
}

std::vector<BinSpectrum::Row> BinSpectrum::partition_scales() const {
  // n1 = sum_p n_p * bit(p ^ k), an XOR-convolution of integers taken
  // through integer transforms.  Every term and partial sum of the direct
  // double sum is an integer below 2^53, so the two agree exactly.
  IntRow counts_hat;
  for (int p = 0; p < 256; ++p) {
    counts_hat[p] = static_cast<std::int64_t>(counts_[p]);
  }
  wht(counts_hat);
  std::vector<Row> scale(8);
  for (int b = 0; b < 8; ++b) {
    IntRow n1;
    for (int x = 0; x < 256; ++x) {
      n1[x] = (aes::reduced_target(static_cast<std::uint8_t>(x), 0) >> b) & 1;
    }
    wht(n1);
    for (int u = 0; u < 256; ++u) n1[u] *= counts_hat[u];
    wht(n1);
    for (int k = 0; k < 256; ++k) {
      scale[b][k] = partition_scale(static_cast<double>(n1[k] / 256));
    }
  }
  return scale;
}

double BinSpectrum::partition_scale(double ones) const {
  const double zeros = static_cast<double>(n_) - ones;
  return ones > 0.0 && zeros > 0.0 ? (1.0 / ones + 1.0 / zeros) / 256.0
                                   : 0.0;
}

template <typename Each>
void BinSpectrum::correlations(LeakageModel model, Each&& each) const {
  const Row g = model_row(model);
  const Row g_hat = transformed(centred(g));
  const Row inv_h = inv_model_norms(g);
  Block work;
  const std::vector<Block>& spectrum = this->spectrum();
  for (std::size_t blk = 0; blk < spectrum.size(); ++blk) {
    const std::size_t j0 = blk * kLanes;
    const std::array<double, kLanes> inv_s = inv_column_norms(j0);
    wht_block<kLanes>(spectrum[blk].data(), g_hat.data(), work.data(),
                      [&](std::size_t k, std::size_t l, Pair v) {
                        each(k, j0 + l,
                             Pair{v.lo * inv_h[k] * inv_s[l],
                                  v.hi * inv_h[k] * inv_s[l + 1]});
                      });
  }
}

std::pair<BinSpectrum::Row, BinSpectrum::Row> BinSpectrum::partition_peaks(
    int bits) const {
  // Per bit: the transform of the centred bit and, per guess, the
  // difference-of-means factor (1/n1 + 1/n0) / 256 (0 while a partition is
  // empty, which drops the bit).
  std::vector<Row> g_hat(bits);
  for (int b = 0; b < bits; ++b) g_hat[b] = transformed(centred(bit_row(b)));
  const std::vector<Row> scale = partition_scales();
  // Squares of the bit-0 difference and running sums of squares over the
  // bits, per guess and column; lanes past the last column hold 0.
  Row bit0_sq{};
  Row peak_sq{};
  Block sq;
  Block work;
  // One bit's inverse transform, scaled and squared as it leaves the last
  // pass: the first bit starts the sums (and gives DPA), the last one ends
  // them in the peaks.
  const auto bit_pass = [&](const Block& s, int b, auto first, auto last) {
    const double* f = scale[b].data();
    double* sums = sq.data();
    double* bit0 = bit0_sq.data();
    double* peak = peak_sq.data();
    wht_block<kLanes>(
        s.data(), g_hat[b].data(), work.data(),
        [f, sums, bit0, peak](std::size_t k, std::size_t l, Pair v) {
          const Pair d{v.lo * f[k], v.hi * f[k]};
          Pair e{d.lo * d.lo, d.hi * d.hi};
          double* acc = sums + k * kLanes + l;
          if constexpr (decltype(first)::value) {
            bit0[k] = std::max(std::max(bit0[k], e.lo), e.hi);
          } else {
            e = Pair{acc[0], acc[1]} + e;
          }
          if constexpr (decltype(last)::value) {
            peak[k] = std::max(std::max(peak[k], e.lo), e.hi);
          } else {
            acc[0] = e.lo;
            acc[1] = e.hi;
          }
        });
  };
  for (const Block& s : spectrum()) {
    if (bits == 1) {
      bit_pass(s, 0, std::true_type{}, std::true_type{});
      continue;
    }
    bit_pass(s, 0, std::true_type{}, std::false_type{});
    for (int b = 1; b + 1 < bits; ++b) {
      bit_pass(s, b, std::false_type{}, std::false_type{});
    }
    bit_pass(s, bits - 1, std::false_type{}, std::true_type{});
  }
  for (double& v : bit0_sq) v = std::sqrt(v);
  for (double& v : peak_sq) v = std::sqrt(v);
  return {bit0_sq, peak_sq};
}

CpaResult BinSpectrum::cpa(LeakageModel model, bool keep_time_curves) const {
  CpaResult result;
  if (n_ < 2 || m_ == 0) return result;
  if (keep_time_curves) result.correlation_vs_time.assign(m_, {});
  correlations(model, [&](std::size_t k, std::size_t j, Pair corr) {
    double& peak = result.peak_correlation[k];
    peak = std::max(std::max(peak, std::fabs(corr.lo)), std::fabs(corr.hi));
    if (keep_time_curves && j < m_) {
      result.correlation_vs_time[j][k] = corr.lo;
      if (j + 1 < m_) result.correlation_vs_time[j + 1][k] = corr.hi;
    }
  });
  result.best_guess = argmax(result.peak_correlation);
  return result;
}

DpaResult BinSpectrum::dpa() const {
  DpaResult result;
  if (n_ < 2 || m_ == 0) return result;
  result.peak_difference = partition_peaks(1).first;
  result.best_guess = argmax(result.peak_difference);
  return result;
}

MlpaResult BinSpectrum::mlpa() const { return dpa_and_mlpa().second; }

std::pair<DpaResult, MlpaResult> BinSpectrum::dpa_and_mlpa() const {
  std::pair<DpaResult, MlpaResult> result;
  if (n_ < 2 || m_ == 0) return result;
  auto& [dpa, mlpa] = result;
  std::tie(dpa.peak_difference, mlpa.score) = partition_peaks(8);
  dpa.best_guess = argmax(dpa.peak_difference);
  mlpa.best_guess = argmax(mlpa.score);
  return result;
}

StaticPowerResult BinSpectrum::static_power(LeakageModel model,
                                            std::size_t column,
                                            StaticWindow window) const {
  StaticPowerResult result;
  result.window = window;
  result.traces = n_;
  if (n_ < 2) return result;
  correlations(model, [&](std::size_t k, std::size_t j, Pair corr) {
    if (column == j) result.correlation[k] = std::fabs(corr.lo);
    if (column == j + 1) result.correlation[k] = std::fabs(corr.hi);
  });
  result.best_guess = argmax(result.correlation);
  return result;
}

void BinSpectrum::score_directly(const Row& g,
                                 std::span<Probe> probes) const {
  // Weight rows w(p) = row(p ^ guess): the model for CPA, the 8 bits for
  // MLPA, each centred.
  const Row g_c = centred(g);
  std::array<Row, 8> bit_c;
  for (int b = 0; b < 8; ++b) bit_c[b] = centred(bit_row(b));
  // Tile by tile of columns: 256 * sum_p w(p) * D_p per weight row and
  // column, bin by bin in ascending order, kept on the stack.  Probe q's
  // rows start at row first_row[q] of acc, kTile columns each; key_first's
  // four probes read 1 + 1 + 8 + 8 rows.
  constexpr std::size_t kTile = 192;
  std::array<double, 18 * kTile> acc;
  std::array<double, kTile> dev;
  std::array<std::size_t, 4> first_row{};
  for (std::size_t q = 1; q < probes.size(); ++q) {
    first_row[q] = first_row[q - 1] + probes[q - 1].bits;
  }
  // The probe's columns within the tile from t0.
  const auto columns_of = [&](const Probe& probe, std::size_t t0) {
    const std::size_t lo = probe.block < 0 ? 0 : probe.block * kLanes;
    const std::size_t hi =
        probe.block < 0 ? m_ : std::min(m_, lo + kLanes);
    return std::pair{std::max(lo, t0), std::min(hi, t0 + kTile)};
  };
  for (std::size_t t0 = 0; t0 < m_; t0 += kTile) {
    acc.fill(0.0);
    for (const int p : occupied_) {
      for (std::size_t t = 0; t0 + t < std::min(m_, t0 + kTile); ++t) {
        dev[t] = deviation(p, t0 + t);
      }
      for (std::size_t q = 0; q < probes.size(); ++q) {
        const auto [lo, hi] = columns_of(probes[q], t0);
        for (int b = 0; b < probes[q].bits; ++b) {
          const Row& row = probes[q].bits == 1 ? g_c : bit_c[b];
          const double w = row[p ^ probes[q].guess];
          double* a = acc.data() + (first_row[q] + b) * kTile;
          for (std::size_t j = lo; j < hi; ++j) {
            a[j - t0] += w * dev[j - t0];
          }
        }
      }
    }
    for (std::size_t q = 0; q < probes.size(); ++q) {
      Probe& probe = probes[q];
      const auto [lo, hi] = columns_of(probe, t0);
      for (std::size_t j = lo; j < hi; ++j) {
        const double* a = acc.data() + first_row[q] * kTile + (j - t0);
        double v = 0.0;
        if (probe.bits == 1) {
          const double inv_s = m2_[j] > 0.0 ? 1.0 / std::sqrt(m2_[j]) : 0.0;
          v = std::fabs(256.0 * a[0] * probe.norm[0] * inv_s);
        } else {
          for (int b = 0; b < 8; ++b) {
            const double d = 256.0 * a[b * kTile] * probe.norm[b];
            v += d * d;
          }
        }
        if (probe.peak < v) {
          probe.peak = v;
          probe.peak_block = static_cast<int>(j / kLanes);
        }
      }
    }
  }
}

BinSpectrum::KeyFirst BinSpectrum::key_first(LeakageModel model,
                                             std::uint8_t key, bool with_mlpa,
                                             Rivals& rivals) const {
  first_place_obs().checks.add(with_mlpa ? 2 : 1);
  KeyFirst first;
  if (n_ < 2 || m_ == 0) return first;
  // Never scored yet, a rival is the lowest guess other than the key.  A
  // block past the last column (rivals carried over a wider statistic)
  // reads as none.
  for (Rival* r : {&rivals.cpa, &rivals.mlpa}) {
    if (r->guess < 0) *r = Rival{key == 0 ? 1 : 0, -1};
    if (r->block >= 0 && static_cast<std::size_t>(r->block) >= blocks()) {
      r->block = -1;
    }
  }

  const Row g = model_row(model);
  const Row inv_h = inv_model_norms(g);
  std::array<Probe, 4> probes{{{key, -1, 1},
                               {rivals.cpa.guess, rivals.cpa.block, 1},
                               {key, -1, 8},
                               {rivals.mlpa.guess, rivals.mlpa.block, 8}}};
  const std::span<Probe> used = std::span(probes).first(with_mlpa ? 4 : 2);
  for (Probe& probe : used) {
    if (probe.bits == 1) {
      probe.norm[0] = inv_h[probe.guess];
      continue;
    }
    for (int b = 0; b < 8; ++b) {
      const Row bit = bit_row(b);
      double ones = 0.0;
      for (int p = 0; p < 256; ++p) ones += counts_[p] * bit[p ^ probe.guess];
      probe.norm[b] = partition_scale(ones);
    }
  }
  score_directly(g, used);

  // The direct sums differ from the transformed ones only by rounding, so a
  // rival ahead of the key by more than kRivalMargin is ahead in a full
  // scoring too.  A rival scored over every column keeps its peak block.
  const auto settled = [](const Probe& key_probe, const Probe& rival_probe,
                          Rival& rival) {
    if (rival.block < 0) rival.block = rival_probe.peak_block;
    const auto score = [](const Probe& p) {
      return p.bits == 1 ? p.peak : std::sqrt(p.peak);
    };
    return score(rival_probe) > score(key_probe) * (1.0 + kRivalMargin);
  };
  if (!settled(probes[0], probes[1], rivals.cpa)) {
    first_place_obs().transforms.add(1);
    first.cpa = key_leads(cpa(model).peak_correlation, key, rivals.cpa);
  }
  if (with_mlpa && !settled(probes[2], probes[3], rivals.mlpa)) {
    first_place_obs().transforms.add(1);
    first.mlpa = key_leads(mlpa().score, key, rivals.mlpa);
  }
  return first;
}

TvlaResult welch_t(const Moments& fixed, const Moments& random) {
  if (random.mean.size() != fixed.mean.size()) {
    throw std::invalid_argument("sca: welch_t of a different sample count");
  }
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

void TvlaAccumulator::add_batch(const TraceBatch& batch,
                                std::uint8_t fixed_plaintext) {
  for (const auto& t : batch.traces) check_width(t.size(), fixed_.mean.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (batch.plaintexts[i] == fixed_plaintext ? fixed_ : random_)
        .add(batch.traces[i]);
  }
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

void MtdTracker::checkpoint(const std::vector<bool>& first) {
  if (checkpoints_.size() < first.size()) checkpoints_.resize(first.size());
  for (std::size_t s = 0; s < first.size(); ++s) {
    checkpoints_[s].emplace_back(grid_[next_grid_], first[s]);
  }
  ++next_grid_;
}

void MtdTracker::add_batch(const TraceBatch& batch) {
  std::size_t pos = 0;
  while (pos < batch.size()) {
    while (next_grid_ < grid_.size() && grid_[next_grid_] <= traces_) {
      checkpoint(verdicts_());
    }
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
  }
}

void MtdTracker::finish() {
  while (next_grid_ < grid_.size()) checkpoint(verdicts_());
}

void MtdTracker::finish(const std::vector<bool>& final_first) {
  while (next_grid_ < grid_.size()) checkpoint(final_first);
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
  obs::ScopedTimer span("sca.score");
  const BinSpectrum spectrum(bins);
  cpa = spectrum.cpa(kModel, keep_time_curves);
  key_rank = cpa.key_rank(key);
  margin = cpa.margin(key);
  mlpa_mounted = with_mlpa;
  if (with_mlpa) {
    std::tie(dpa, mlpa) = spectrum.dpa_and_mlpa();
    mlpa_rank = mlpa.key_rank(key);
    mlpa_margin = mlpa.margin(key);
  } else {
    dpa = spectrum.dpa();
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
  mtd = mtd_of(kCpa);
  mlpa_mtd = mtd_of(kMlpa);
  static_awake_mtd = mtd_of(kAwake);
  static_asleep_mtd = mtd_of(kAsleep);
}

std::vector<bool> AttackVerdicts::key_first() const {
  return {key_rank == 0, mlpa_rank == 0, static_awake_rank == 0,
          static_asleep_rank == 0};
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
  return [=, rivals = BinSpectrum::Rivals{}](
             const BinnedMoments& bins, const BinnedMoments* windows) mutable {
    obs::ScopedTimer span("sca.first_place");
    std::vector<bool> first(V::kScorers, false);
    const BinSpectrum spectrum(bins);
    const BinSpectrum::KeyFirst key_first =
        spectrum.key_first(model, key, mlpa, rivals);
    first[V::kCpa] = key_first.cpa;
    first[V::kMlpa] = key_first.mlpa;
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

}  // namespace pgmcml::sca
