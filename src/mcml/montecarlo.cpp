#include "pgmcml/mcml/montecarlo.hpp"

#include <optional>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/cache/key.hpp"
#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::mcml {

namespace {

/// Per-sample outcome, collected in index order so the RunningStats
/// accumulators see the same sequence as the original serial loop.
struct SampleOutcome {
  bool failed = false;
  double delay = 0.0;
  double swing = 0.0;
  double static_current = 0.0;
  bool has_sleep = false;
  double sleep_current = 0.0;
  spice::FlowDiagnostics diagnostics;
};

obs::json::Value outcome_to_json(const SampleOutcome& out) {
  obs::json::Object o;
  o.emplace_back("failed", out.failed);
  o.emplace_back("delay", out.delay);
  o.emplace_back("swing", out.swing);
  o.emplace_back("static_current", out.static_current);
  o.emplace_back("has_sleep", out.has_sleep);
  o.emplace_back("sleep_current", out.sleep_current);
  o.emplace_back("diagnostics", out.diagnostics.to_json_value());
  return obs::json::Value(std::move(o));
}

std::optional<SampleOutcome> outcome_from_json(const obs::json::Value& v) {
  if (!v.is_object() || v.find("delay") == nullptr ||
      v.find("diagnostics") == nullptr) {
    return std::nullopt;
  }
  try {
    SampleOutcome out;
    out.failed = v.at("failed").as_bool();
    out.delay = v.number_or("delay", 0.0);
    out.swing = v.number_or("swing", 0.0);
    out.static_current = v.number_or("static_current", 0.0);
    out.has_sleep = v.at("has_sleep").as_bool();
    out.sleep_current = v.number_or("sleep_current", 0.0);
    out.diagnostics =
        spice::FlowDiagnostics::from_json_value(v.at("diagnostics"));
    return out;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Cache key for one Monte-Carlo sample.  The mismatch draw itself is not
/// hashed; it is fully determined by (seed, sample index) because the
/// per-sample streams are pre-forked in index order from master(seed), so
/// keying the fork inputs keys the draw.
cache::CacheKey sample_key(CellKind kind, const McmlDesign& nominal,
                           std::uint64_t seed, std::size_t index) {
  cache::KeyBuilder kb("mcml.monte_carlo_sample");
  kb.add("kind", static_cast<std::int64_t>(kind));
  add_design_to_key(kb, nominal);
  kb.add("seed", seed);
  kb.add("index", static_cast<std::uint64_t>(index));
  return kb.key();
}

/// Runs one mismatch sample end to end: transient characterization with the
/// two-attempt retry flow, plus the gated-off leakage DC when applicable.
SampleOutcome run_sample(CellKind kind, const McmlDesign& nominal,
                         const util::Rng& stream, std::size_t i) {
  SampleOutcome out;
  util::Rng sample_rng = stream;
  McmlDesign sample = nominal;

  // Each attempt rebuilds the bench from a fresh copy of the sample's
  // pre-forked stream, so the retry sees the identical mismatch draw and
  // differs only in the tightened solver options.
  std::optional<McmlTestbench> bench;
  const spice::TranResult tr = run_with_retry(
      [&](bool tightened) {
        sample_rng = stream;
        sample = nominal;
        sample.mismatch_rng = &sample_rng;
        bench.emplace(kind, sample, TestbenchOptions{});
        return bench->run(tightened);
      },
      "montecarlo:" + std::to_string(i), out.diagnostics);
  const std::optional<AwakeFigures> awake =
      tr.ok ? bench->awake_figures(tr) : std::nullopt;
  if (!awake.has_value()) {
    out.failed = true;
    return out;
  }
  out.delay = awake->delay;
  out.swing = awake->swing;
  out.static_current = awake->static_current;

  if (sample.power_gated()) {
    util::Rng sleep_rng = sample_rng;  // same devices would need the same
    // draw; a DC leakage estimate with a fresh draw is statistically
    // equivalent for the distribution.
    McmlDesign sleep_sample = nominal;
    sleep_sample.mismatch_rng = &sleep_rng;
    TestbenchOptions sopt;
    sopt.asleep = true;
    McmlTestbench sleeping(kind, sleep_sample, sopt);
    const spice::DcResult dc = sleeping.run_dc();
    if (dc.converged) {
      out.has_sleep = true;
      out.sleep_current = sleeping.supply_current(dc);
    }
  }
  return out;
}

}  // namespace

MonteCarloResult monte_carlo_characterize(CellKind kind,
                                          const McmlDesign& design, int n,
                                          std::uint64_t seed) {
  MonteCarloResult result;
  result.samples = n;

  // One global bias point (the chip's shared bias generator), solved on the
  // nominal design; each sample then varies the cell's own devices.
  McmlDesign nominal = design;
  nominal.mismatch_rng = nullptr;
  const BiasResult bias = solve_bias(nominal);
  if (!bias.ok) {
    result.failures = n;
    return result;
  }

  // Fork all sample streams up front from the master, in order: the draw
  // sequence (and therefore every sample's mismatch) is identical to the
  // serial loop, independent of how the samples are later scheduled.
  const std::size_t count = n > 0 ? static_cast<std::size_t>(n) : 0;
  util::Rng master(seed);
  std::vector<util::Rng> streams;
  streams.reserve(count);
  for (std::size_t i = 0; i < count; ++i) streams.push_back(master.fork());

  std::vector<SampleOutcome> outcomes(count);
  util::parallel_for(count, [&](std::size_t i) {
    outcomes[i] = cache::ResultCache::global().get_or_compute(
        sample_key(kind, nominal, seed, i),
        [&] { return run_sample(kind, nominal, streams[i], i); },
        outcome_to_json, outcome_from_json);
  });

  for (const SampleOutcome& out : outcomes) {
    result.diagnostics.merge(out.diagnostics);
    if (out.failed) {
      ++result.failures;
      continue;
    }
    result.delay.add(out.delay);
    result.swing.add(out.swing);
    result.static_current.add(out.static_current);
    if (out.has_sleep) result.sleep_current.add(out.sleep_current);
  }
  return result;
}

}  // namespace pgmcml::mcml
