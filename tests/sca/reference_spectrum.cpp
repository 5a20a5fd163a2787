#include "reference_spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "pgmcml/aes/aes.hpp"

namespace pgmcml::sca::reference {

namespace {

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

int argmax(const Row& scores) {
  return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                          scores.begin());
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

}  // namespace pgmcml::sca::reference
