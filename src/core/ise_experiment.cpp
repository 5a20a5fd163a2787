#include "pgmcml/core/ise_experiment.hpp"

#include <algorithm>

#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/synth/sleep_tree.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::core {

using cells::CellLibrary;
using cells::LogicStyle;
using netlist::NetId;

namespace {

/// Input/output net lookup for the mapped S-box ISE.
struct IsePorts {
  std::array<NetId, 32> in{};
  NetId clk = netlist::kNoNet;
  NetId const0 = netlist::kNoNet;
};

IsePorts find_ports(const netlist::Design& d) {
  IsePorts ports;
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    const std::string& name = d.port_name(i, true);
    if (name == "clk") {
      ports.clk = d.inputs()[i];
    } else if (name == "const0") {
      ports.const0 = d.inputs()[i];
    }
  }
  // "inL[B]": lane L, bit B.
  for (int lane = 0; lane < 4; ++lane) {
    const std::vector<NetId> bus = d.input_bus("in" + std::to_string(lane), 8);
    std::copy(bus.begin(), bus.end(), ports.in.begin() + 8 * lane);
  }
  return ports;
}

/// Replays a sequence of operand words through the mapped unit, one clocked
/// operation per `period`, and returns the event stream.
std::vector<netlist::SimEvent> replay_operands(
    const netlist::Design& design, const CellLibrary& lib,
    const std::vector<std::uint32_t>& operands, double t_first, double period) {
  const IsePorts ports = find_ports(design);
  netlist::LogicSim sim(design, &lib);
  if (ports.const0 != netlist::kNoNet) {
    sim.set_input(ports.const0, false, 0.0);
  }
  double t = t_first;
  for (std::uint32_t word : operands) {
    // Operands arrive shortly before the sampling clock edge.
    for (int b = 0; b < 32; ++b) {
      sim.set_input(ports.in[b], (word >> b) & 1, t - 0.3 * period);
    }
    if (ports.clk != netlist::kNoNet) {
      sim.set_input(ports.clk, true, t);
      sim.set_input(ports.clk, false, t + 0.5 * period);
    }
    t += period;
  }
  sim.run_until(t + period);
  sim.flush_work_counters();
  return sim.events();
}

}  // namespace

std::vector<IseStyleResult> run_ise_experiment(
    const IseExperimentOptions& options) {
  // --- software run on the CPU model ----------------------------------------
  util::Rng rng(options.seed);
  aes::Key key;
  aes::Block pt;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.bounded(256));
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.bounded(256));
  or1k::AesProgramOptions popt;
  popt.use_ise = true;
  popt.blocks = options.blocks;
  popt.idle_spin = options.idle_spin;
  const or1k::AesRun run = or1k::run_aes_program(key, pt, popt);

  const double period = 1.0 / options.clock_hz;
  const double total_time = static_cast<double>(run.cycles) * period;

  // PG awake windows: merge per-ISE-cycle windows with the sleep margin.
  std::vector<std::pair<double, double>> windows;
  for (std::uint64_t c : run.ise_cycle_indices) {
    const double t = static_cast<double>(c) * period;
    windows.emplace_back(t - options.sleep_margin,
                         t + period + options.sleep_margin);
  }
  std::vector<std::pair<double, double>> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  double awake_time = 0.0;
  for (const auto& w : merged) awake_time += w.second - w.first;
  awake_time = std::min(awake_time, total_time);

  std::vector<IseStyleResult> results;
  const power::CurrentKernels kernels = power::default_kernels();
  for (const CellLibrary& lib :
       {CellLibrary::cmos90(), CellLibrary::mcml90(), CellLibrary::pgmcml90()}) {
    const synth::MapResult mapped = map_sbox_ise(lib, /*registered=*/true);
    const netlist::Design::Stats stats = mapped.design.stats(lib);

    power::TraceOptions topt;
    topt.seed = options.seed;
    topt.include_noise = false;
    const power::PowerTracer tracer(mapped.design, lib, kernels, topt);

    IseStyleResult r;
    r.style = to_string(lib.style());
    r.cells = stats.cells;
    r.inverters = mapped.inverters;
    r.area = stats.area;
    r.critical_path = stats.critical_path;
    r.duty = run.ise_duty;

    // Automatic sleep insertion (the paper's future work, implemented in
    // synth::insert_sleep_tree): the buffers it adds are why the paper's
    // PG-MCML unit counts more cells than the MCML one (3076 vs 2911).
    if (lib.power_gated()) {
      const synth::SleepTreeResult tree =
          synth::insert_sleep_tree(mapped.design, lib);
      r.cells += tree.buffers;
      r.area += tree.buffer_area;
    }

    switch (lib.style()) {
      case LogicStyle::kCmos: {
        // Leakage floor plus the switched energy of the actual operations.
        const auto events = replay_operands(mapped.design, lib,
                                            run.ise_operand_words, period,
                                            period);
        const double energy = tracer.switched_charge(events) * lib.vdd();
        r.idle_power = tracer.leakage_power();
        r.active_power =
            r.idle_power +
            (run.ise_executions > 0
                 ? energy / (static_cast<double>(run.ise_executions) * period)
                 : 0.0);
        r.avg_power = r.idle_power + energy / total_time;
        break;
      }
      case LogicStyle::kMcml: {
        r.active_power = lib.vdd() * tracer.awake_current();
        r.idle_power = r.active_power;  // cannot sleep
        r.avg_power = r.active_power;
        break;
      }
      case LogicStyle::kPgMcml: {
        r.active_power = lib.vdd() * tracer.awake_current();
        r.idle_power = lib.vdd() * tracer.sleep_current();
        const double sleep_time = total_time - awake_time;
        r.avg_power = (r.active_power * awake_time +
                       r.idle_power * sleep_time) /
                      total_time;
        break;
      }
    }
    results.push_back(r);
  }
  return results;
}

Fig5Waveforms compose_fig5_waveforms(const IseExperimentOptions& options) {
  Fig5Waveforms out;
  out.window = 20e-9;
  const double period = 1.0 / options.clock_hz;
  // One custom-instruction execution at 14.4 ns, as in the paper's plot.
  const double t_exec = 14.4e-9;

  util::Rng rng(options.seed);
  const std::vector<std::uint32_t> operand = {
      static_cast<std::uint32_t>(rng.next_u64())};

  const power::CurrentKernels kernels = power::default_kernels();
  power::TraceOptions topt;
  topt.t_start = 0.0;
  topt.dt = 10e-12;
  topt.samples = static_cast<std::size_t>(out.window / topt.dt) + 1;
  topt.include_noise = false;
  topt.seed = options.seed;

  for (const LogicStyle style : {LogicStyle::kMcml, LogicStyle::kPgMcml}) {
    const CellLibrary lib = style == LogicStyle::kMcml
                                ? CellLibrary::mcml90()
                                : CellLibrary::pgmcml90();
    const synth::MapResult mapped = map_sbox_ise(lib, true);
    const power::PowerTracer tracer(mapped.design, lib, kernels, topt);
    const auto events =
        replay_operands(mapped.design, lib, operand, t_exec, period);

    power::SleepSchedule schedule;
    if (style == LogicStyle::kPgMcml) {
      schedule.awake.push_back(
          {t_exec - options.sleep_margin, t_exec + period});
    }
    const std::vector<double> samples = tracer.trace(events, schedule);
    util::Waveform w;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      w.append(topt.dt * static_cast<double>(i), samples[i]);
    }
    (style == LogicStyle::kMcml ? out.mcml : out.pgmcml) = w;
  }

  out.sleep = util::Waveform({{0.0, 0.0},
                              {t_exec - options.sleep_margin, 0.0},
                              {t_exec - options.sleep_margin + 0.1e-9, 1.0},
                              {t_exec + period, 1.0},
                              {t_exec + period + 0.1e-9, 0.0},
                              {out.window, 0.0}});
  return out;
}

}  // namespace pgmcml::core
