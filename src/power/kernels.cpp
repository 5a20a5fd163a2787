#include "pgmcml/power/kernels.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/cache/key.hpp"
#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::power {

using util::ps;
using util::Waveform;

CurrentKernels default_kernels() {
  CurrentKernels k;
  // CMOS toggle: triangular pulse, 80 ps base, unit charge (area = 1).
  // peak = 2 * Q / width with Q = 1.
  const double width = 80 * ps;
  k.cmos_toggle = Waveform({{0.0, 0.0},
                            {0.5 * width, 2.0 / width},
                            {width, 0.0}});
  // MCML steering transient: small dip then overshoot, net area ~zero,
  // ~2 % of Iss peak over ~60 ps.  The tail current source's high output
  // impedance keeps the supply disturbance this small -- the property that
  // makes MCML DPA-resistant.
  k.mcml_switch = Waveform({{0.0, 0.0},
                            {10 * ps, -0.02},
                            {30 * ps, 0.02},
                            {60 * ps, 0.0}});
  // Wake: tail current ramps up in ~200 ps with a 15 % inrush overshoot
  // (recharging the output nodes through the loads).
  k.pg_wake = Waveform({{0.0, 0.0},
                        {80 * ps, 0.7},
                        {150 * ps, 1.15},
                        {300 * ps, 1.0}});
  // Sleep: decay to (almost) zero in ~150 ps.
  k.pg_sleep = Waveform({{0.0, 1.0}, {60 * ps, 0.25}, {150 * ps, 0.0}});
  return k;
}

namespace {

obs::json::Value waveform_to_json(const util::Waveform& w) {
  obs::json::Array pts;
  pts.reserve(w.size() * 2);
  for (const util::Waveform::Point& p : w.points()) {
    pts.emplace_back(p.t);
    pts.emplace_back(p.v);
  }
  return obs::json::Value(std::move(pts));
}

util::Waveform waveform_from_json(const obs::json::Value& v) {
  const obs::json::Array& pts = v.as_array();
  if (pts.size() % 2 != 0) {
    throw std::runtime_error("waveform array has odd length");
  }
  util::Waveform w;
  for (std::size_t i = 0; i < pts.size(); i += 2) {
    w.append(pts[i].as_number(), pts[i + 1].as_number());
  }
  return w;
}

/// What one extraction yields: the kernels plus the diagnostics it recorded,
/// so a warm cache hit replays the same record into the caller's.
struct Extraction {
  CurrentKernels kernels;
  spice::FlowDiagnostics diagnostics;
};

obs::json::Value extraction_to_json(const Extraction& x) {
  obs::json::Object o;
  o.emplace_back("cmos_toggle", waveform_to_json(x.kernels.cmos_toggle));
  o.emplace_back("mcml_switch", waveform_to_json(x.kernels.mcml_switch));
  o.emplace_back("pg_wake", waveform_to_json(x.kernels.pg_wake));
  o.emplace_back("pg_sleep", waveform_to_json(x.kernels.pg_sleep));
  o.emplace_back("diagnostics", x.diagnostics.to_json_value());
  return obs::json::Value(std::move(o));
}

std::optional<Extraction> extraction_from_json(const obs::json::Value& v) {
  if (!v.is_object() || v.find("mcml_switch") == nullptr) return std::nullopt;
  try {
    Extraction x;
    x.kernels.cmos_toggle = waveform_from_json(v.at("cmos_toggle"));
    x.kernels.mcml_switch = waveform_from_json(v.at("mcml_switch"));
    x.kernels.pg_wake = waveform_from_json(v.at("pg_wake"));
    x.kernels.pg_sleep = waveform_from_json(v.at("pg_sleep"));
    x.diagnostics =
        spice::FlowDiagnostics::from_json_value(v.at("diagnostics"));
    return x;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

Extraction extract_kernels(const mcml::McmlDesign& base) {
  Extraction x;
  x.kernels = default_kernels();  // fallback shapes
  spice::FlowDiagnostics& diag = x.diagnostics;

  mcml::McmlDesign design = base;
  const mcml::BiasResult bias = mcml::solve_bias(design);
  if (!bias.ok) {
    // Degrade to the analytic defaults but leave a record: the flow keeps
    // running on the fallback shapes instead of aborting.
    diag.record_attempt();
    diag.record_skip("kernels:bias", "bias failed: " + bias.error);
    return x;
  }
  const double iss = design.eff_iss();

  // --- switching transient: supply current around an input edge ------------
  {
    mcml::McmlTestbench bench(mcml::CellKind::kBuf, design);
    const spice::TranResult tr = mcml::run_with_retry(
        [&bench](bool tightened) { return bench.run(tightened); },
        "kernels:switch", diag);
    if (tr.ok) {
      const util::Waveform supply = bench.supply_current(tr);
      // DC level just before the 4 ns edge; transient window after it.
      const double dc = supply.average(3.0e-9, 3.9e-9);
      Waveform blip;
      const double t_edge = 4.0e-9;
      for (double t = 0.0; t <= 300 * ps; t += 5 * ps) {
        blip.append(t, (supply.value_at(t_edge + t) - dc) / iss);
      }
      x.kernels.mcml_switch = blip;
    }
  }

  // --- wake / sleep transients ----------------------------------------------
  if (design.power_gated()) {
    mcml::TestbenchOptions opt;
    opt.sleep_pulse = true;
    opt.sleep_rise_time = 1e-9;
    mcml::McmlTestbench bench(mcml::CellKind::kBuf, design, opt);
    const spice::TranResult tr = mcml::run_with_retry(
        [&bench](bool tightened) { return bench.run(tightened); },
        "kernels:wake", diag);
    if (tr.ok) {
      const util::Waveform supply = bench.supply_current(tr);
      Waveform wake;
      for (double t = 0.0; t <= 600 * ps; t += 10 * ps) {
        wake.append(t, supply.value_at(1e-9 + t) / iss);
      }
      x.kernels.pg_wake = wake;
    }
  }
  return x;
}

}  // namespace

CurrentKernels kernels_from_spice(const mcml::McmlDesign& base,
                                  spice::FlowDiagnostics& diag) {
  const auto compute = [&base] { return extract_kernels(base); };
  Extraction x;
  if (base.mismatch_rng != nullptr) {
    x = compute();
  } else {
    cache::KeyBuilder kb("power.kernels_from_spice");
    mcml::add_design_to_key(kb, base);
    x = cache::ResultCache::global().get_or_compute(
        kb.key(), compute, extraction_to_json, extraction_from_json);
  }
  diag.merge(x.diagnostics);
  return std::move(x.kernels);
}

}  // namespace pgmcml::power
