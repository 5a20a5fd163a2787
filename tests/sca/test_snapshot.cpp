// Attack-state serialization: the campaign checkpoint contract.
// load(save(x)) must restore the IDENTICAL arithmetic state -- continuing a
// loaded statistic produces scores bitwise equal to never having paused --
// and the reader must reject truncated, mismatched or oversized streams
// loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {
namespace {

TraceSet synthetic_traces(std::uint8_t key, std::size_t n,
                          std::size_t samples = 24, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, 0.3);
    tr[7] += 0.5 * util::hamming_weight(aes::reduced_target(p, key));
    ts.add(p, tr);
  }
  return ts;
}

/// Serialized form of a state -- byte equality of two saves is the strongest
/// "identical state" check available without friend access.
template <typename Acc>
std::string serialized(const Acc& acc) {
  SnapshotWriter w;
  acc.save(w);
  return w.take();
}

TEST(Snapshot, ScalarsAndSpansRoundTrip) {
  SnapshotWriter w;
  w.tag("TST1");
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  const std::vector<double> v{1.5, -2.25, 1e-300};
  w.f64_span(v);
  w.bytes("payload");

  SnapshotReader r(w.buffer());
  r.expect_tag("TST1");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  const double neg_zero = r.f64();
  EXPECT_EQ(std::memcmp(&neg_zero, "\0\0\0\0\0\0\0\x80", 8), 0);
  EXPECT_EQ(r.f64_vector(), v);
  EXPECT_EQ(r.bytes(), "payload");
  EXPECT_TRUE(r.exhausted());
}

TEST(Snapshot, ReaderRejectsTruncationAndBadTags) {
  SnapshotWriter w;
  w.tag("TST1");
  w.u64(99);
  const std::string full = w.buffer();

  SnapshotReader bad_tag(full);
  EXPECT_THROW(bad_tag.expect_tag("NOPE"), std::runtime_error);

  SnapshotReader truncated(std::string_view(full.data(), full.size() - 3));
  truncated.expect_tag("TST1");
  EXPECT_THROW(truncated.u64(), std::runtime_error);

  // A corrupt vector length must not trigger a huge allocation.
  SnapshotWriter wl;
  wl.u64(UINT64_MAX);
  SnapshotReader huge(wl.buffer());
  EXPECT_THROW(huge.f64_vector(), std::runtime_error);
}

/// Streams traces [lo, hi) of `ts` into `stat`.
void feed(BinnedMoments& stat, const TraceSet& ts, std::size_t lo,
          std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) stat.add(ts.plaintext(i), ts.trace(i));
}

/// Saves `stat`, loads it back (the whole stream must be consumed), and
/// checks the loaded state is byte-identical.
BinnedMoments round_trip(const BinnedMoments& stat) {
  const std::string bytes = serialized(stat);
  SnapshotReader r(bytes);
  BinnedMoments loaded = BinnedMoments::load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(serialized(loaded), bytes);
  EXPECT_EQ(loaded.num_traces(), stat.num_traces());
  return loaded;
}

TEST(Snapshot, CpaResumesBitwise) {
  const std::uint8_t key = 0x2b;
  const TraceSet ts = synthetic_traces(key, 120);
  BinnedMoments live(ts.samples_per_trace());
  feed(live, ts, 0, 60);
  BinnedMoments resumed = round_trip(live);

  // The loaded statistic continues the identical arithmetic sequence.
  feed(live, ts, 60, ts.num_traces());
  feed(resumed, ts, 60, ts.num_traces());
  const CpaResult a = BinSpectrum(live).cpa(LeakageModel::kHammingWeight);
  const CpaResult b = BinSpectrum(resumed).cpa(LeakageModel::kHammingWeight);
  EXPECT_EQ(std::memcmp(a.peak_correlation.data(), b.peak_correlation.data(),
                        sizeof(a.peak_correlation)),
            0);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(Snapshot, DpaAndTvlaResumeBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 100);
  BinnedMoments bins(ts.samples_per_trace());
  TvlaAccumulator tvla(ts.samples_per_trace());
  feed(bins, ts, 0, 50);
  for (std::size_t i = 0; i < 50; ++i) tvla.add(i % 2 == 0, ts.trace(i));
  SnapshotWriter w;
  bins.save(w);
  tvla.save(w);
  SnapshotReader r(w.buffer());
  BinnedMoments bins2 = BinnedMoments::load(r);
  TvlaAccumulator tvla2 = TvlaAccumulator::load(r);
  EXPECT_TRUE(r.exhausted());
  feed(bins, ts, 50, ts.num_traces());
  feed(bins2, ts, 50, ts.num_traces());
  for (std::size_t i = 50; i < ts.num_traces(); ++i) {
    tvla.add(i % 2 == 0, ts.trace(i));
    tvla2.add(i % 2 == 0, ts.trace(i));
  }
  EXPECT_EQ(serialized(bins2), serialized(bins));
  EXPECT_EQ(serialized(tvla2), serialized(tvla));
  const auto da = BinSpectrum(bins).dpa().peak_difference;
  const auto db = BinSpectrum(bins2).dpa().peak_difference;
  EXPECT_EQ(std::memcmp(da.data(), db.data(), sizeof(da)), 0);
  const double ta = tvla.snapshot().max_abs_t;
  const double tb = tvla2.snapshot().max_abs_t;
  EXPECT_EQ(std::memcmp(&ta, &tb, sizeof(ta)), 0);
}

TEST(Snapshot, StaticPowerResumesBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 120);
  const auto feed_windows = [&](BinnedMoments& windows, std::size_t lo,
                                std::size_t hi) {
    TraceBatch batch;
    for (std::size_t i = lo; i < hi; ++i) batch.add(ts.plaintext(i), ts.trace(i));
    add_window_means(windows, kStaticWindows, ts.samples_per_trace(), batch);
  };
  BinnedMoments live(kStaticWindows.size());
  feed_windows(live, 0, 60);
  BinnedMoments resumed = round_trip(live);

  feed_windows(live, 60, ts.num_traces());
  feed_windows(resumed, 60, ts.num_traces());
  EXPECT_EQ(serialized(resumed), serialized(live));
  const auto a = BinSpectrum(live).static_power(LeakageModel::kHammingWeight,
                                                0, StaticWindow::kAwake);
  const auto b = BinSpectrum(resumed).static_power(
      LeakageModel::kHammingWeight, 0, StaticWindow::kAwake);
  EXPECT_EQ(std::memcmp(a.correlation.data(), b.correlation.data(),
                        sizeof(a.correlation)),
            0);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(Snapshot, MlpaResumesBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 100);
  BinnedMoments live(ts.samples_per_trace());
  feed(live, ts, 0, 50);
  BinnedMoments resumed = round_trip(live);

  feed(live, ts, 50, ts.num_traces());
  feed(resumed, ts, 50, ts.num_traces());
  EXPECT_EQ(serialized(resumed), serialized(live));
  const auto sa = BinSpectrum(live).mlpa().score;
  const auto sb = BinSpectrum(resumed).mlpa().score;
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sizeof(sa)), 0);
}

TEST(Snapshot, LoadRejectsCorruptStaticAndMlpaStreams) {
  // The static projection and the TVLA classes are the two other shapes of
  // attack state a checkpoint carries.
  BinnedMoments windows(kStaticWindows.size());
  windows.add(0x10, std::vector<double>(2, 1.0));
  const std::string bins_bytes = serialized(windows);
  TvlaAccumulator tvla(8);
  tvla.add(true, std::vector<double>(8, 1.0));
  const std::string tvla_bytes = serialized(tvla);

  // Truncated mid-state.
  SnapshotReader bins_short(
      std::string_view(bins_bytes.data(), bins_bytes.size() / 2));
  EXPECT_THROW(BinnedMoments::load(bins_short), std::runtime_error);
  SnapshotReader tvla_short(
      std::string_view(tvla_bytes.data(), tvla_bytes.size() - 5));
  EXPECT_THROW(TvlaAccumulator::load(tvla_short), std::runtime_error);

  // Wrong leading tag in both directions: the streams are not confusable.
  SnapshotReader bins_as_tvla(bins_bytes);
  EXPECT_THROW(TvlaAccumulator::load(bins_as_tvla), std::runtime_error);
  SnapshotReader tvla_as_bins(tvla_bytes);
  EXPECT_THROW(BinnedMoments::load(tvla_as_bins), std::runtime_error);

  // A corrupted row length must be rejected, not trusted.
  std::string bad_row = bins_bytes;
  bad_row[4 + 8 + 8] = 0x7f;  // bin 0's mean length follows tag, m, count
  SnapshotReader bad_r(bad_row);
  EXPECT_THROW(BinnedMoments::load(bad_r), std::runtime_error);
}

TEST(Snapshot, LoadRejectsCorruptAccumulatorStreams) {
  BinnedMoments stat(8);
  const std::string bytes = serialized(stat);

  // Truncated mid-state.
  SnapshotReader short_r(std::string_view(bytes.data(), bytes.size() / 2));
  EXPECT_THROW(BinnedMoments::load(short_r), std::runtime_error);

  // Wrong leading tag.
  SnapshotWriter wt;
  wt.tag("CPA1");
  wt.u64(8);
  SnapshotReader wrong(wt.buffer());
  EXPECT_THROW(BinnedMoments::load(wrong), std::runtime_error);
}

TEST(Snapshot, OversizedSampleCountThrowsBeforeAllocating) {
  // A tag plus a sample count of 2^40 and no payload: the loaders must
  // report a corrupt stream, not try to allocate terabytes.
  const auto header = [](const char(&tag)[5]) {
    SnapshotWriter w;
    w.tag(tag);
    w.u64(std::uint64_t{1} << 40);
    return w.take();
  };
  const std::string bins = header("BMS1");
  SnapshotReader bins_r(bins);
  EXPECT_THROW(BinnedMoments::load(bins_r), std::runtime_error);
  const std::string tvla = header("TVL2");
  SnapshotReader tvla_r(tvla);
  EXPECT_THROW(TvlaAccumulator::load(tvla_r), std::runtime_error);
}

}  // namespace
}  // namespace pgmcml::sca
