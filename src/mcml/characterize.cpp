#include "pgmcml/mcml/characterize.hpp"

#include "pgmcml/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/mcml/area.hpp"
#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::mcml {

using spice::NodeId;
using spice::SourceSpec;
using util::ns;
using util::ps;

namespace {

/// Per-cell stimulus plan: which input toggles and how the others are held
/// so the toggling input is sensitized to the measured output.
struct StimPlan {
  int toggle = 0;                ///< index into the data-input list
  std::vector<int> statics;      ///< values of the data inputs (toggle: don't care)
  int ctrl_value = 0;            ///< reset = 0 / enable = 1
  int measure_output = 0;
  bool clk_static_high = false;  ///< latch: keep transparent
};

StimPlan stim_plan(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf:
    case CellKind::kDiff2Single: return {0, {0}, 0, 0, false};
    case CellKind::kAnd2: return {0, {0, 1}, 0, 0, false};
    case CellKind::kAnd3: return {0, {0, 1, 1}, 0, 0, false};
    case CellKind::kAnd4: return {0, {0, 1, 1, 1}, 0, 0, false};
    case CellKind::kMux2: return {1, {0, 0, 0}, 0, 0, false};
    case CellKind::kMux4: return {2, {0, 0, 0, 0, 0, 0}, 0, 0, false};
    case CellKind::kMaj3: return {0, {0, 1, 0}, 0, 0, false};
    case CellKind::kXor2: return {0, {0, 0}, 0, 0, false};
    case CellKind::kXor3: return {0, {0, 0, 0}, 0, 0, false};
    case CellKind::kXor4: return {0, {0, 0, 0, 0}, 0, 0, false};
    case CellKind::kDLatch: return {0, {0}, 0, 0, true};
    case CellKind::kDff:
    case CellKind::kDffR: return {0, {0}, 0, 0, false};
    case CellKind::kEDff: return {0, {0}, 1, 0, false};
    case CellKind::kFullAdder: return {0, {0, 1, 0}, 0, 0, false};
  }
  return {};
}

}  // namespace

spice::TranResult run_with_retry(
    const std::function<spice::TranResult(bool tightened)>& attempt,
    const std::string& stage, spice::FlowDiagnostics& diag) {
  diag.record_attempt();
  spice::TranResult tr = attempt(false);
  diag.engine.merge(tr.stats);
  if (tr.ok) return tr;
  diag.record_retry(stage, tr.failure.describe());
  tr = attempt(true);
  diag.engine.merge(tr.stats);
  if (tr.ok) {
    diag.record_recovery(stage);
  } else {
    diag.record_skip(stage, tr.failure.describe());
  }
  return tr;
}

void add_technology_to_key(cache::KeyBuilder& kb,
                           const spice::Technology& tech) {
  const spice::TechnologyParams& p = tech.params();
  kb.add("tech.name", p.name);
  kb.add("tech.corner", p.corner_label);
  kb.add("tech.vdd", p.vdd);
  kb.add("tech.lmin", p.lmin);
  kb.add("tech.avt", p.avt);
  kb.add("tech.akp", p.akp);
  const auto add_model = [&kb](const char* which,
                               const spice::DeviceModel& m) {
    const std::string prefix = std::string("tech.") + which + ".";
    kb.add(prefix + "vth0", m.vth0);
    kb.add(prefix + "kp", m.kp);
    kb.add(prefix + "lambda", m.lambda);
    kb.add(prefix + "n_sub", m.n_sub);
    kb.add(prefix + "gamma", m.gamma);
    kb.add(prefix + "phi", m.phi);
    kb.add(prefix + "cox_area", m.cox_area);
    kb.add(prefix + "cov_width", m.cov_width);
    kb.add(prefix + "cj_width", m.cj_width);
  };
  add_model("nmos_lvt", p.nmos_lvt);
  add_model("nmos_hvt", p.nmos_hvt);
  add_model("pmos_lvt", p.pmos_lvt);
  add_model("pmos_hvt", p.pmos_hvt);
}

void add_design_to_key(cache::KeyBuilder& kb, const McmlDesign& design) {
  add_technology_to_key(kb, design.tech);
  kb.add("iss", design.iss);
  kb.add("vsw", design.vsw);
  kb.add("vn", design.vn);
  kb.add("vp", design.vp);
  kb.add("w_pair", design.w_pair);
  kb.add("w_tail", design.w_tail);
  kb.add("w_load", design.w_load);
  kb.add("l_tail", design.l_tail);
  kb.add("drive", design.drive);
  kb.add("gating", to_string(design.gating));
  kb.add("network_vt", spice::to_string(design.network_vt));
  kb.add("load_vt", spice::to_string(design.load_vt));
  kb.add("parasitics", design.include_parasitics);
}

obs::json::Value to_json(const CellCharacterization& ch) {
  obs::json::Object o;
  o.emplace_back("kind", static_cast<std::int64_t>(ch.kind));
  o.emplace_back("ok", ch.ok);
  o.emplace_back("error", ch.error);
  o.emplace_back("delay", ch.delay);
  o.emplace_back("swing", ch.swing);
  o.emplace_back("static_current", ch.static_current);
  o.emplace_back("static_power", ch.static_power);
  o.emplace_back("sleep_current", ch.sleep_current);
  o.emplace_back("wake_time", ch.wake_time);
  o.emplace_back("transistors", ch.transistors);
  o.emplace_back("diagnostics", ch.diagnostics.to_json_value());
  return obs::json::Value(std::move(o));
}

std::optional<CellCharacterization> characterization_from_json(
    const obs::json::Value& v) {
  if (!v.is_object() || v.find("delay") == nullptr ||
      v.find("diagnostics") == nullptr) {
    return std::nullopt;
  }
  try {
    CellCharacterization ch;
    ch.kind = static_cast<CellKind>(
        static_cast<int>(v.number_or("kind", 0.0)));
    ch.ok = v.at("ok").as_bool();
    ch.error = v.string_or("error", "");
    ch.delay = v.number_or("delay", 0.0);
    ch.swing = v.number_or("swing", 0.0);
    ch.static_current = v.number_or("static_current", 0.0);
    ch.static_power = v.number_or("static_power", 0.0);
    ch.sleep_current = v.number_or("sleep_current", 0.0);
    ch.wake_time = v.number_or("wake_time", 0.0);
    ch.transistors = static_cast<int>(v.number_or("transistors", 0.0));
    ch.diagnostics = spice::FlowDiagnostics::from_json_value(
        v.at("diagnostics"));
    return ch;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

obs::json::Value to_json(const BufferSweepPoint& pt) {
  obs::json::Object o;
  o.emplace_back("ok", pt.ok);
  o.emplace_back("error", pt.error);
  o.emplace_back("iss", pt.iss);
  o.emplace_back("vn", pt.vn);
  o.emplace_back("vp", pt.vp);
  o.emplace_back("delay_fo1", pt.delay_fo1);
  o.emplace_back("delay_fo4", pt.delay_fo4);
  o.emplace_back("power", pt.power);
  o.emplace_back("area", pt.area);
  o.emplace_back("diagnostics", pt.diagnostics.to_json_value());
  return obs::json::Value(std::move(o));
}

std::optional<BufferSweepPoint> sweep_point_from_json(
    const obs::json::Value& v) {
  if (!v.is_object() || v.find("iss") == nullptr ||
      v.find("diagnostics") == nullptr) {
    return std::nullopt;
  }
  try {
    BufferSweepPoint pt;
    pt.ok = v.at("ok").as_bool();
    pt.error = v.string_or("error", "");
    pt.iss = v.number_or("iss", 0.0);
    pt.vn = v.number_or("vn", 0.0);
    pt.vp = v.number_or("vp", 0.0);
    pt.delay_fo1 = v.number_or("delay_fo1", 0.0);
    pt.delay_fo4 = v.number_or("delay_fo4", 0.0);
    pt.power = v.number_or("power", 0.0);
    pt.area = v.number_or("area", 0.0);
    pt.diagnostics = spice::FlowDiagnostics::from_json_value(
        v.at("diagnostics"));
    return pt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

McmlTestbench::McmlTestbench(CellKind kind, const McmlDesign& design,
                             TestbenchOptions options)
    : design_(design) {
  build(kind, design, options);
}

void McmlTestbench::build(CellKind kind, const McmlDesign& design,
                          const TestbenchOptions& options) {
  const CellInfo& info = cell_info(kind);
  const StimPlan plan = stim_plan(kind);
  sequential_ = info.sequential && !plan.clk_static_high;
  single_ended_out_ = (kind == CellKind::kDiff2Single);
  t_stop_ = sequential_ ? 10 * ns : 8 * ns;

  McmlRails rails;
  rails.vdd = circuit_.node("vdd");
  rails.vp = circuit_.node("vp");
  rails.vn = circuit_.node("vn");
  rails.sleep_on = circuit_.node("slp");
  rails.sleep_off = circuit_.node("slpb");
  const double vdd = design.tech.vdd();
  circuit_.add_vsource("VDD", rails.vdd, circuit_.gnd(), SourceSpec::dc(vdd));
  circuit_.add_vsource("VP", rails.vp, circuit_.gnd(), SourceSpec::dc(design.vp));
  circuit_.add_vsource("VN", rails.vn, circuit_.gnd(), SourceSpec::dc(design.vn));
  if (options.asleep) {
    circuit_.add_vsource("VSLP", rails.sleep_on, circuit_.gnd(),
                         SourceSpec::dc(0.0));
    circuit_.add_vsource("VSLPB", rails.sleep_off, circuit_.gnd(),
                         SourceSpec::dc(vdd));
  } else if (options.sleep_pulse) {
    circuit_.add_vsource(
        "VSLP", rails.sleep_on, circuit_.gnd(),
        SourceSpec::pulse(0.0, vdd, options.sleep_rise_time, 50 * ps, 50 * ps,
                          1.0));
    circuit_.add_vsource(
        "VSLPB", rails.sleep_off, circuit_.gnd(),
        SourceSpec::pulse(vdd, 0.0, options.sleep_rise_time, 50 * ps, 50 * ps,
                          1.0));
  } else {
    circuit_.add_vsource("VSLP", rails.sleep_on, circuit_.gnd(),
                         SourceSpec::dc(vdd));
    circuit_.add_vsource("VSLPB", rails.sleep_off, circuit_.gnd(),
                         SourceSpec::dc(0.0));
  }

  McmlCellBuilder builder(circuit_, design, rails, "dut.");

  const double vh = design.v_high();
  const double vl = design.v_low();
  auto add_diff_dc = [&](const std::string& name, int value) {
    DiffNet net = builder.make_diff(name);
    circuit_.add_vsource("V" + name + "P", net.p, circuit_.gnd(),
                         SourceSpec::dc(value ? vh : vl));
    circuit_.add_vsource("V" + name + "N", net.n, circuit_.gnd(),
                         SourceSpec::dc(value ? vl : vh));
    return net;
  };
  auto add_diff_pulse = [&](const std::string& name, double delay,
                            double width, double period) {
    DiffNet net = builder.make_diff(name);
    circuit_.add_vsource(
        "V" + name + "P", net.p, circuit_.gnd(),
        SourceSpec::pulse(vl, vh, delay, 20 * ps, 20 * ps, width, period));
    circuit_.add_vsource(
        "V" + name + "N", net.n, circuit_.gnd(),
        SourceSpec::pulse(vh, vl, delay, 20 * ps, 20 * ps, width, period));
    return net;
  };

  // Data inputs.
  std::vector<DiffNet> data;
  const bool freeze_toggle = options.asleep || options.sleep_pulse;
  for (int i = 0; i < info.num_inputs; ++i) {
    const std::string name = "in" + std::to_string(i);
    if (options.hold_state >= 0) {
      // State-held bench: every input pinned DC, no transient stimulus.
      data.push_back(add_diff_dc(name, (options.hold_state >> i) & 1));
    } else if (i == plan.toggle && !freeze_toggle) {
      if (sequential_) {
        // Slow data pulse; the clock samples it.
        data.push_back(add_diff_pulse(name, 3 * ns, 4 * ns, 0.0));
      } else {
        data.push_back(add_diff_pulse(name, 2 * ns, 2 * ns, 4 * ns));
      }
    } else if (i == plan.toggle) {
      data.push_back(add_diff_dc(name, 1));  // frozen high for sleep tests
    } else {
      data.push_back(add_diff_dc(name, plan.statics[i]));
    }
  }

  DiffNet clk;
  if (info.num_clocks > 0) {
    if (plan.clk_static_high || freeze_toggle || options.hold_state >= 0) {
      clk = add_diff_dc("clk", 1);
    } else {
      clk = add_diff_pulse("clk", 0.5 * ns, 0.96 * ns, 2 * ns);
    }
  }
  DiffNet ctrl;
  if (info.num_controls > 0) ctrl = add_diff_dc("ctl", plan.ctrl_value);

  const CellPorts ports = builder.emit_cell(kind, data, clk, ctrl);
  outputs_ = ports.outputs;
  stages_ = builder.stages_emitted();
  mosfets_ = builder.mosfets_emitted();

  // Fan-out loading on the measured output: `fanout` buffer-input gate
  // capacitances per phase plus a fixed wire allowance.
  const double cin =
      design.tech.nmos(design.network_vt, design.eff_w_pair()).cgs();
  const double cload = options.fanout * cin + 1e-15;
  const DiffNet out = outputs_.at(plan.measure_output);
  circuit_.add_capacitor("CLP", out.p, circuit_.gnd(), cload);
  if (out.n >= 0) circuit_.add_capacitor("CLN", out.n, circuit_.gnd(), cload);

  // Reference stimulus edges (50% points of the input/clock transitions).
  if (sequential_) {
    // Data changes at 3 ns (rise) and 7 ns (fall); the sampling clock edges
    // are the next rising edges at 4.51 ns and 8.51 ns.
    stimulus_edges_ = {4.5 * ns + 10 * ps, 8.5 * ns + 10 * ps};
  } else {
    stimulus_edges_ = {2 * ns + 10 * ps, 4 * ns + 10 * ps, 6 * ns + 10 * ps};
  }
}

spice::TranResult McmlTestbench::run(bool tightened) {
  spice::TranOptions opt;
  opt.dt_max = 10 * ps;
  if (tightened) {
    opt.dt_max *= 0.5;
    opt.max_newton *= 2;
  }
  return spice::transient(circuit_, t_stop_, opt, workspace_);
}

spice::DcResult McmlTestbench::run_dc() {
  return spice::dc_operating_point(circuit_, {}, workspace_);
}

util::Waveform McmlTestbench::supply_current(
    const spice::TranResult& tr) const {
  return spice::supply_current(circuit_, tr, "VDD");
}

double McmlTestbench::supply_current(const spice::DcResult& dc) const {
  const spice::Solution sol(dc.x, circuit_.num_nodes());
  return -circuit_.device(circuit_.find_device("VDD")).probe_current(sol);
}

util::Waveform McmlTestbench::diff_output(const spice::TranResult& tr,
                                          int index) const {
  const DiffNet out = outputs_.at(index);
  if (out.n < 0) {
    // Single-ended (CMOS-level) output: reference to mid-rail.
    util::Waveform w = tr.node_waveform(out.p);
    util::Waveform shifted;
    for (const auto& pt : w.points()) {
      shifted.append(pt.t, pt.v - 0.5 * design_.tech.vdd());
    }
    return shifted;
  }
  const util::Waveform p = tr.node_waveform(out.p);
  const util::Waveform n = tr.node_waveform(out.n);
  return p.plus(n.scaled(-1.0));
}

std::optional<AwakeFigures> McmlTestbench::awake_figures(
    const spice::TranResult& tr) const {
  const util::Waveform vout = diff_output(tr);
  std::vector<double> delays;
  // Skip the first combinational edge (startup transients).
  for (std::size_t i = sequential_ ? 0 : 1; i < stimulus_edges_.size(); ++i) {
    const auto cross = vout.crossing(0.0, 0, stimulus_edges_[i]);
    if (!cross.has_value()) continue;
    const double dt = *cross - stimulus_edges_[i];
    if (dt > 0.0 && dt < 1.8e-9) delays.push_back(dt);
  }
  if (delays.empty()) return std::nullopt;
  AwakeFigures out;
  out.delay = util::mean(delays);
  out.swing = 0.5 * (vout.max_value() - vout.min_value());
  const double quiet_lo = sequential_ ? 3.6e-9 : 1.0e-9;
  const double quiet_hi = sequential_ ? 4.4e-9 : 1.9e-9;
  out.static_current = supply_current(tr).average(quiet_lo, quiet_hi);
  return out;
}

namespace {

CellCharacterization characterize_cell_uncached(CellKind kind,
                                                const McmlDesign& design,
                                                int fanout) {
  CellCharacterization out;
  out.kind = kind;

  McmlDesign d = design;
  const BiasResult bias = solve_bias(d);
  if (!bias.ok) {
    out.error = "bias: " + bias.error;
    return out;
  }

  // --- awake transient: delay, swing, static current -----------------------
  TestbenchOptions opt;
  opt.fanout = fanout;
  McmlTestbench bench(kind, d, opt);
  out.transistors = bench.mosfets();
  const spice::TranResult tr =
      run_with_retry([&bench](bool tightened) { return bench.run(tightened); },
                     "characterize:awake", out.diagnostics);
  if (!tr.ok) {
    out.error = "transient: " + tr.error;
    return out;
  }
  const std::optional<AwakeFigures> awake = bench.awake_figures(tr);
  if (!awake.has_value()) {
    out.error = "no output transition found";
    return out;
  }
  out.delay = awake->delay;
  out.swing = awake->swing;
  out.static_current = awake->static_current;
  out.static_power = out.static_current * d.tech.vdd();

  // --- gated-off leakage ----------------------------------------------------
  if (d.power_gated()) {
    TestbenchOptions sleep_opt;
    sleep_opt.fanout = fanout;
    sleep_opt.asleep = true;
    McmlTestbench sleeping(kind, d, sleep_opt);
    out.diagnostics.record_attempt();
    const spice::DcResult dc = sleeping.run_dc();
    out.diagnostics.engine.merge(dc.stats);
    if (dc.converged) {
      out.sleep_current = sleeping.supply_current(dc);
    } else {
      // Leakage is reported as 0 but the miss is recorded, not silent.
      out.diagnostics.record_skip("characterize:sleep-dc",
                                  dc.error.describe());
    }

    // --- wake-up time --------------------------------------------------------
    TestbenchOptions wake_opt;
    wake_opt.fanout = fanout;
    wake_opt.sleep_pulse = true;
    wake_opt.sleep_rise_time = 1e-9;
    McmlTestbench waking(kind, d, wake_opt);
    const spice::TranResult wr = run_with_retry(
        [&waking](bool tightened) { return waking.run(tightened); },
        "characterize:wake", out.diagnostics);
    if (wr.ok) {
      const util::Waveform w = waking.diff_output(wr);
      const double final_v = w.value_at(waking.t_stop());
      const double target = 0.9 * final_v;
      // Search from the sleep edge for the 90% settling point.
      const auto t90 =
          final_v >= 0 ? w.crossing(target, +1, 1e-9) : w.crossing(target, -1, 1e-9);
      if (t90.has_value()) out.wake_time = *t90 - 1e-9;
    }
  } else {
    out.sleep_current = out.static_current;
  }

  out.ok = true;
  return out;
}

}  // namespace

CellCharacterization characterize_cell(CellKind kind, const McmlDesign& design,
                                       int fanout) {
  const auto compute = [&] {
    return characterize_cell_uncached(kind, design, fanout);
  };
  // Mismatch draws come from the caller's Rng stream and are not part of the
  // key, so perturbed designs always solve fresh (Monte-Carlo keys the draw
  // by (seed, sample) instead; see montecarlo.cpp).
  if (design.mismatch_rng != nullptr) return compute();
  cache::KeyBuilder kb("mcml.characterize_cell");
  kb.add("kind", static_cast<std::int64_t>(kind));
  kb.add("fanout", fanout);
  add_design_to_key(kb, design);
  return cache::ResultCache::global().get_or_compute(
      kb.key(), compute,
      [](const CellCharacterization& ch) { return to_json(ch); },
      characterization_from_json);
}

namespace {

BufferSweepPoint characterize_buffer_at_uncached(const McmlDesign& base,
                                                 double iss) {
  BufferSweepPoint pt;
  pt.iss = iss;

  McmlDesign d = base;
  const double scale = iss / base.iss;
  d.iss = iss;
  // Resize for constant current density / overdrive, as a designer would.
  d.w_tail = base.w_tail * scale;
  d.w_pair = base.w_pair * std::max(scale, 0.25);
  d.w_load = base.w_load * std::max(scale, 0.25);
  const BiasResult bias = solve_bias(d);
  if (!bias.ok) {
    pt.error = "bias: " + bias.error;
    return pt;
  }
  pt.vn = d.vn;
  pt.vp = d.vp;

  // No -1.0 sentinel: a failed measurement yields nullopt plus a structured
  // error and an incident in pt.diagnostics.
  auto delay_at = [&](int fanout) -> std::optional<double> {
    TestbenchOptions opt;
    opt.fanout = fanout;
    McmlTestbench bench(CellKind::kBuf, d, opt);
    const spice::TranResult tr = run_with_retry(
        [&bench](bool tightened) { return bench.run(tightened); },
        "sweep:fo" + std::to_string(fanout), pt.diagnostics);
    if (!tr.ok) {
      pt.error = "transient: " + tr.error;
      return std::nullopt;
    }
    const std::optional<AwakeFigures> awake = bench.awake_figures(tr);
    if (!awake.has_value()) {
      pt.error = "no output transition found at fan-out " +
                 std::to_string(fanout);
      return std::nullopt;
    }
    return awake->delay;
  };

  const std::optional<double> fo1 = delay_at(1);
  const std::optional<double> fo4 = delay_at(4);
  if (!fo1.has_value() || !fo4.has_value()) return pt;
  pt.delay_fo1 = *fo1;
  pt.delay_fo4 = *fo4;

  pt.power = d.tech.vdd() * iss;
  // Area grows with the Iss-proportional device widths.  Wiring and
  // diffusion sharing dominate the footprint, so only about half a pitch of
  // the nominal 5-pitch buffer scales with the tail stack's current.
  AreaModel area;
  const double pitches = 4.5 + 0.5 * (iss / 50e-6);
  pt.area = pitches * area.pg_pitch() * area.cell_height();
  pt.ok = true;
  return pt;
}

}  // namespace

BufferSweepPoint characterize_buffer_at(const McmlDesign& base, double iss) {
  const auto compute = [&] {
    return characterize_buffer_at_uncached(base, iss);
  };
  if (base.mismatch_rng != nullptr) return compute();
  cache::KeyBuilder kb("mcml.characterize_buffer_at");
  add_design_to_key(kb, base);
  kb.add("point_iss", iss);
  return cache::ResultCache::global().get_or_compute(
      kb.key(), compute, [](const BufferSweepPoint& pt) { return to_json(pt); },
      sweep_point_from_json);
}

std::vector<BufferSweepPoint> sweep_buffer_bias(
    const McmlDesign& base, const std::vector<double>& currents) {
  return util::parallel_map(currents.size(), [&](std::size_t i) {
    return characterize_buffer_at(base, currents[i]);
  });
}

namespace {

/// DC supply current of a state-held testbench; nullopt when the operating
/// point does not converge (recorded as a skip on `diag`).  A nonzero
/// mismatch_seed re-draws the SAME process variation before every build, so
/// each held state measures one frozen die instance (the montecarlo idiom:
/// identical re-seeding makes every construction see identical draws).
std::optional<double> held_state_current(CellKind kind, const McmlDesign& d,
                                         int state, bool asleep,
                                         std::uint64_t mismatch_seed,
                                         spice::FlowDiagnostics& diag) {
  TestbenchOptions opt;
  opt.hold_state = state;
  opt.asleep = asleep;
  McmlDesign held = d;
  util::Rng draw(mismatch_seed);
  if (mismatch_seed != 0) held.mismatch_rng = &draw;
  McmlTestbench bench(kind, held, opt);
  diag.record_attempt();
  const spice::DcResult dc = bench.run_dc();
  diag.engine.merge(dc.stats);
  if (!dc.converged) {
    diag.record_skip("state:" + std::to_string(state),
                     asleep ? "asleep DC solve diverged"
                            : "awake DC solve diverged");
    return std::nullopt;
  }
  return bench.supply_current(dc);
}

}  // namespace

StateLeakageResult measure_state_leakage(CellKind kind,
                                         const McmlDesign& design,
                                         std::uint64_t mismatch_seed) {
  StateLeakageResult out;
  out.kind = kind;
  const CellInfo& info = cell_info(kind);
  const int states = 1 << info.num_inputs;
  double awake_lo = 0.0, awake_hi = 0.0;
  double asleep_lo = 0.0, asleep_hi = 0.0;
  bool any = false;
  for (int s = 0; s < states; ++s) {
    StateLeakagePoint pt;
    pt.state = s;
    const std::optional<double> awake = held_state_current(
        kind, design, s, /*asleep=*/false, mismatch_seed, out.diagnostics);
    if (!awake.has_value()) {
      pt.error = "awake DC solve diverged";
      out.points.push_back(std::move(pt));
      continue;
    }
    pt.awake_current = *awake;
    if (design.power_gated()) {
      const std::optional<double> asleep = held_state_current(
          kind, design, s, /*asleep=*/true, mismatch_seed, out.diagnostics);
      if (!asleep.has_value()) {
        pt.error = "asleep DC solve diverged";
        out.points.push_back(std::move(pt));
        continue;
      }
      pt.asleep_current = *asleep;
    } else {
      pt.asleep_current = pt.awake_current;
    }
    pt.ok = true;
    if (!any) {
      awake_lo = awake_hi = pt.awake_current;
      asleep_lo = asleep_hi = pt.asleep_current;
      any = true;
    } else {
      awake_lo = std::min(awake_lo, pt.awake_current);
      awake_hi = std::max(awake_hi, pt.awake_current);
      asleep_lo = std::min(asleep_lo, pt.asleep_current);
      asleep_hi = std::max(asleep_hi, pt.asleep_current);
    }
    out.points.push_back(std::move(pt));
  }
  if (any) {
    out.awake_spread = awake_hi - awake_lo;
    out.asleep_spread = asleep_hi - asleep_lo;
  }
  return out;
}

}  // namespace pgmcml::mcml
