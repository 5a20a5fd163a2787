// Cold-vs-warm equivalence: every flow that consults the result cache must
// return results bitwise identical to an uncached run, and a warm pass must
// not touch the SPICE engine at all (spice.newton_iterations delta == 0).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/mcml/montecarlo.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"

namespace pgmcml {
namespace {

namespace fs = std::filesystem;

/// Bitwise double comparison (EXPECT_EQ would also pass -0.0 == 0.0 and
/// fail NaN == NaN; the cache contract is exact bit patterns).
::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof a) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in their bit patterns";
}

void expect_diag_equal(const spice::FlowDiagnostics& a,
                       const spice::FlowDiagnostics& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.incidents.size(), b.incidents.size());
  EXPECT_EQ(a.engine.newton_iterations, b.engine.newton_iterations);
  EXPECT_EQ(a.engine.steps_accepted, b.engine.steps_accepted);
}

/// Points the process-wide cache at a fresh temp directory for one test and
/// restores the disabled default (tests must not leak cache state into each
/// other or into unrelated suites).
class ScopedGlobalCache {
 public:
  explicit ScopedGlobalCache(const std::string& tag) {
    dir_ = fs::temp_directory_path() / ("pgmcml_equiv_" + tag);
    fs::remove_all(dir_);
    cache::CacheOptions o;
    o.enabled = true;
    o.dir = dir_.string();
    cache::ResultCache::global().configure(std::move(o));
  }
  ~ScopedGlobalCache() {
    cache::ResultCache::global().configure(cache::CacheOptions{});
    fs::remove_all(dir_);
  }

 private:
  fs::path dir_;
};

std::uint64_t newton_count() {
  return obs::Registry::global().snapshot().counter("spice.newton_iterations");
}

TEST(CacheEquivalence, CharacterizeCellWarmRunIsBitwiseIdenticalAndSolveFree) {
  // Reference: the raw engine, cache disabled.
  const auto reference =
      mcml::characterize_cell(mcml::CellKind::kXor2, mcml::McmlDesign{}, 1);
  ASSERT_TRUE(reference.ok) << reference.error;

  ScopedGlobalCache scoped("characterize");
  const auto cold =
      mcml::characterize_cell(mcml::CellKind::kXor2, mcml::McmlDesign{}, 1);

  // Warm pass must not run a single Newton iteration.
  const std::uint64_t newton_before = newton_count();
  const auto warm =
      mcml::characterize_cell(mcml::CellKind::kXor2, mcml::McmlDesign{}, 1);
  EXPECT_EQ(newton_count() - newton_before, 0u);

  for (const auto* ch : {&cold, &warm}) {
    EXPECT_EQ(ch->ok, reference.ok);
    EXPECT_EQ(ch->kind, reference.kind);
    EXPECT_EQ(ch->error, reference.error);
    EXPECT_TRUE(BitsEqual(ch->delay, reference.delay));
    EXPECT_TRUE(BitsEqual(ch->swing, reference.swing));
    EXPECT_TRUE(BitsEqual(ch->static_current, reference.static_current));
    EXPECT_TRUE(BitsEqual(ch->static_power, reference.static_power));
    EXPECT_TRUE(BitsEqual(ch->sleep_current, reference.sleep_current));
    EXPECT_TRUE(BitsEqual(ch->wake_time, reference.wake_time));
    EXPECT_EQ(ch->transistors, reference.transistors);
    expect_diag_equal(ch->diagnostics, reference.diagnostics);
  }
}

TEST(CacheEquivalence, WarmHitSurvivesProcessMemoryLoss) {
  // Simulates a second process: the entry must be served from disk alone.
  ScopedGlobalCache scoped("diskonly");
  const auto cold =
      mcml::characterize_cell(mcml::CellKind::kBuf, mcml::McmlDesign{}, 1);
  ASSERT_TRUE(cold.ok) << cold.error;

  cache::ResultCache::global().clear_memory();
  const std::uint64_t newton_before = newton_count();
  const auto warm =
      mcml::characterize_cell(mcml::CellKind::kBuf, mcml::McmlDesign{}, 1);
  EXPECT_EQ(newton_count() - newton_before, 0u);
  EXPECT_TRUE(BitsEqual(warm.delay, cold.delay));
  EXPECT_TRUE(BitsEqual(warm.sleep_current, cold.sleep_current));
  expect_diag_equal(warm.diagnostics, cold.diagnostics);
}

TEST(CacheEquivalence, BufferSweepPointRoundTrips) {
  const mcml::McmlDesign base;
  const auto reference = mcml::characterize_buffer_at(base, 60e-6);
  ASSERT_TRUE(reference.ok) << reference.error;

  ScopedGlobalCache scoped("sweep");
  const auto cold = mcml::characterize_buffer_at(base, 60e-6);
  const std::uint64_t newton_before = newton_count();
  const auto warm = mcml::characterize_buffer_at(base, 60e-6);
  EXPECT_EQ(newton_count() - newton_before, 0u);

  for (const auto* pt : {&cold, &warm}) {
    EXPECT_EQ(pt->ok, reference.ok);
    EXPECT_TRUE(BitsEqual(pt->iss, reference.iss));
    EXPECT_TRUE(BitsEqual(pt->vn, reference.vn));
    EXPECT_TRUE(BitsEqual(pt->vp, reference.vp));
    EXPECT_TRUE(BitsEqual(pt->delay_fo1, reference.delay_fo1));
    EXPECT_TRUE(BitsEqual(pt->delay_fo4, reference.delay_fo4));
    EXPECT_TRUE(BitsEqual(pt->power, reference.power));
    EXPECT_TRUE(BitsEqual(pt->area, reference.area));
    expect_diag_equal(pt->diagnostics, reference.diagnostics);
  }
}

TEST(CacheEquivalence, KernelsFromSpiceRoundTripsWaveformsAndDiagnostics) {
  const mcml::McmlDesign design;
  spice::FlowDiagnostics ref_diag;
  const auto reference = power::kernels_from_spice(design, ref_diag);

  ScopedGlobalCache scoped("kernels");
  spice::FlowDiagnostics cold_diag;
  const auto cold = power::kernels_from_spice(design, cold_diag);

  const std::uint64_t newton_before = newton_count();
  spice::FlowDiagnostics warm_diag;
  const auto warm = power::kernels_from_spice(design, warm_diag);
  EXPECT_EQ(newton_count() - newton_before, 0u);

  const auto expect_waveform_equal = [](const util::Waveform& a,
                                        const util::Waveform& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(BitsEqual(a[i].t, b[i].t));
      EXPECT_TRUE(BitsEqual(a[i].v, b[i].v));
    }
  };
  for (const auto* k : {&cold, &warm}) {
    expect_waveform_equal(k->cmos_toggle, reference.cmos_toggle);
    expect_waveform_equal(k->mcml_switch, reference.mcml_switch);
    expect_waveform_equal(k->pg_wake, reference.pg_wake);
    expect_waveform_equal(k->pg_sleep, reference.pg_sleep);
  }
  // The warm call replays the cold call's diagnostics delta into the
  // caller-provided object.
  expect_diag_equal(cold_diag, ref_diag);
  expect_diag_equal(warm_diag, ref_diag);
}

TEST(CacheEquivalence, MonteCarloPerSampleCacheReproducesStatistics) {
  constexpr int kSamples = 6;
  constexpr std::uint64_t kSeed = 2026;
  const auto reference = mcml::monte_carlo_characterize(
      mcml::CellKind::kBuf, mcml::McmlDesign{}, kSamples, kSeed);

  ScopedGlobalCache scoped("montecarlo");
  const auto cold = mcml::monte_carlo_characterize(
      mcml::CellKind::kBuf, mcml::McmlDesign{}, kSamples, kSeed);

  const std::uint64_t newton_before = newton_count();
  const auto warm = mcml::monte_carlo_characterize(
      mcml::CellKind::kBuf, mcml::McmlDesign{}, kSamples, kSeed);
  // The warm pass re-solves only the shared bias point (the samples
  // themselves are all cache hits), so the engine effort must be far below
  // one transient's worth; the exact bias cost is asserted by equality of
  // the aggregate statistics below.
  const std::uint64_t warm_newton = newton_count() - newton_before;

  for (const auto* mc : {&cold, &warm}) {
    EXPECT_EQ(mc->samples, reference.samples);
    EXPECT_EQ(mc->failures, reference.failures);
    EXPECT_TRUE(BitsEqual(mc->delay.mean(), reference.delay.mean()));
    EXPECT_TRUE(BitsEqual(mc->delay.stddev(), reference.delay.stddev()));
    EXPECT_TRUE(BitsEqual(mc->swing.mean(), reference.swing.mean()));
    EXPECT_TRUE(
        BitsEqual(mc->static_current.mean(), reference.static_current.mean()));
  }
  // All transient work was served from the cache: the warm pass costs at
  // most the deterministic bias solve, which is DC-only and small.
  const std::uint64_t cold_newton = reference.diagnostics.engine.newton_iterations;
  EXPECT_LT(warm_newton, cold_newton / 2 + 1);

  // A different seed must not hit the same entries.
  const auto other = mcml::monte_carlo_characterize(
      mcml::CellKind::kBuf, mcml::McmlDesign{}, kSamples, kSeed + 1);
  EXPECT_EQ(other.samples, reference.samples);
}

TEST(CacheEquivalence, MismatchDesignsBypassTheCache) {
  ScopedGlobalCache scoped("mismatch");
  util::Rng rng(7);
  mcml::McmlDesign design;
  design.mismatch_rng = &rng;
  const auto before = cache::ResultCache::global().stats();
  (void)mcml::characterize_cell(mcml::CellKind::kBuf, design, 1);
  const auto after = cache::ResultCache::global().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.stores, before.stores);
}

}  // namespace
}  // namespace pgmcml
