// Oracle for the trace composer: PowerTracer::compose_into against the
// reference copy of the event-by-event composer it replaced
// (reference_tracer.hpp).  Every sample of every composed row must match bit
// for bit: on the reduced AES for every plaintext in all three styles, with
// and without the per-operation sleep window; on two blocks through the
// clocked full AES core; and on random time-sorted streams with many equal
// times, events before the grid, past its end and outside every awake
// window, two awake windows (one opening and closing inside the grid),
// SPICE-shaped 61-point kernels, 1-, 7- and 600-sample grids, and zero
// leg-imbalance levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/units.hpp"
#include "reference_tracer.hpp"

namespace pgmcml::power {
namespace {

using cells::CellLibrary;
using netlist::Design;
using netlist::LogicSim;
using netlist::NetId;
using netlist::SimEvent;
using util::ps;
using Assignment = std::vector<std::pair<NetId, bool>>;

const std::vector<CellLibrary>& libraries() {
  static const std::vector<CellLibrary> kLibs = {
      CellLibrary::cmos90(), CellLibrary::mcml90(), CellLibrary::pgmcml90()};
  return kLibs;
}

/// Fails (fatally, at the first differing sample) unless both composers
/// give `events` the same row, bit for bit.  The production composer
/// recycles a stale buffer of the wrong size, as streaming slots do.
void expect_identical(const PowerTracer& tracer,
                      const reference::PowerTracer& ref,
                      const std::vector<SimEvent>& events,
                      const SleepSchedule& schedule, const std::string& where) {
  std::vector<double> got(3, -1.0);
  std::vector<double> want;
  tracer.compose_into(events, schedule, got);
  ref.compose_into(events, schedule, want);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << where << " sample " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// The per-operation window of the Fig. 6 flow: awake from before the grid
/// to past its end.
SleepSchedule per_operation(const TraceOptions& o) {
  SleepSchedule s;
  s.awake.push_back(
      {0.2e-9, o.t_start + o.dt * static_cast<double>(o.samples)});
  return s;
}

// --------------------------------------------------------------------------
// Reduced AES: every plaintext, every style, with and without the window.
// --------------------------------------------------------------------------

TEST(ComposeOracle, ReducedAesEveryPlaintextEveryStyle) {
  const std::uint8_t key = 0x2b;
  for (const CellLibrary& lib : libraries()) {
    const synth::MapResult mapped = core::map_reduced_aes(lib);
    const Design& d = mapped.design;
    const std::vector<NetId> p = d.input_bus("p", 8);
    const std::vector<NetId> k = d.input_bus("k", 8);
    // The acquisition's precharge: key applied, p = 0, constants low.
    Assignment init;
    for (int b = 0; b < 8; ++b) {
      init.emplace_back(k[b], (key >> b) & 1);
      init.emplace_back(p[b], false);
    }
    for (const NetId n : d.inputs()) {
      if (std::find(p.begin(), p.end(), n) == p.end() &&
          std::find(k.begin(), k.end(), n) == k.end()) {
        init.emplace_back(n, false);
      }
    }
    LogicSim precharged(d, &lib);
    precharged.apply_and_settle(init);
    precharged.clear_events();
    precharged.run_until(0.5e-9);

    TraceOptions o;
    o.t_start = 0.4e-9;
    o.dt = 2e-12;
    o.samples = 600;
    const PowerTracer tracer(d, lib, default_kernels(), o);
    const reference::PowerTracer ref(d, lib, default_kernels(), o);
    const SleepSchedule window = per_operation(o);

    for (int plaintext = 0; plaintext < 256; ++plaintext) {
      Assignment stimulus;
      for (int b = 0; b < 8; ++b) {
        stimulus.emplace_back(p[b], (plaintext >> b) & 1);
      }
      LogicSim sim = precharged;
      sim.apply_and_settle(stimulus);
      const std::string where =
          lib.name() + " plaintext " + std::to_string(plaintext);
      ASSERT_NO_FATAL_FAILURE(
          expect_identical(tracer, ref, sim.events(), {}, where));
      ASSERT_NO_FATAL_FAILURE(expect_identical(tracer, ref, sim.events(),
                                               window, where + " window"));
    }
  }
}

// --------------------------------------------------------------------------
// Full AES core: two blocks through the clocked state register, one row per
// round on the grid of the full-core CPA.
// --------------------------------------------------------------------------

TEST(ComposeOracle, FullAesCoreTwoBlocks) {
  const CellLibrary lib = CellLibrary::cmos90();
  const synth::MapResult mapped = core::map_aes_core(lib);
  const Design& d = mapped.design;
  const std::vector<NetId> pt = d.input_bus("pt", 128);
  const std::vector<NetId> rk = d.input_bus("rk", 128);
  const std::vector<NetId> st = d.input_bus("st", 128);
  NetId load = netlist::kNoNet, final_round = netlist::kNoNet,
        clk = netlist::kNoNet;
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    const std::string& name = d.port_name(i, true);
    if (name == "load") load = d.inputs()[i];
    if (name == "final") final_round = d.inputs()[i];
    if (name == "clk") clk = d.inputs()[i];
  }
  ASSERT_NE(clk, netlist::kNoNet);
  std::vector<NetId> state(128, netlist::kNoNet);
  std::vector<bool> state_inverted(128, false);
  for (std::size_t i = 0; i < d.outputs().size(); ++i) {
    const std::string& name = d.port_name(i, false);
    if (name.rfind("state[", 0) == 0) {
      const int bit = std::stoi(name.substr(6));
      state[bit] = d.outputs()[i];
      state_inverted[bit] = d.output_inverted(i);
    }
  }
  const auto bus = [](const std::vector<NetId>& nets,
                      const std::array<std::uint8_t, 16>& bytes,
                      Assignment& out) {
    for (int b = 0; b < 128; ++b) {
      out.emplace_back(nets[b], (bytes[b / 8] >> (b % 8)) & 1);
    }
  };

  TraceOptions o;
  o.dt = 4e-12;
  o.samples = 700;
  LogicSim sim(d, &lib);
  util::Rng rng(29);
  for (int block = 0; block < 2; ++block) {
    aes::Block plaintext{};
    aes::Key key{};
    for (auto& byte : plaintext) {
      byte = static_cast<std::uint8_t>(rng.bounded(256));
    }
    for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.bounded(256));
    const aes::KeySchedule ks = aes::expand_key(key);
    aes::Block current{};
    for (int round = 0; round <= 10; ++round) {
      sim.clear_events();
      // The round's grid starts a little before its first edge, so early
      // kernels clip at the grid start and late ones at its end.
      o.t_start = sim.now() - 20 * ps;
      o.seed = static_cast<std::uint64_t>(round + 1);
      Assignment in;
      bus(pt, plaintext, in);
      bus(rk, ks.round_keys[static_cast<std::size_t>(round)], in);
      bus(st, current, in);
      in.emplace_back(load, round == 0);
      in.emplace_back(final_round, round == 10);
      sim.apply_and_settle(in);
      sim.apply_and_settle({{clk, true}});  // the state register samples
      sim.apply_and_settle({{clk, false}});
      for (int b = 0; b < 128; ++b) {
        const bool v = sim.value(state[b]) != state_inverted[b];
        current[b / 8] = static_cast<std::uint8_t>(
            (current[b / 8] & ~(1u << (b % 8))) | (unsigned{v} << (b % 8)));
      }
      const PowerTracer tracer(d, lib, default_kernels(), o);
      const reference::PowerTracer ref(d, lib, default_kernels(), o);
      ASSERT_NO_FATAL_FAILURE(expect_identical(
          tracer, ref, sim.events(), {},
          "block " + std::to_string(block) + " round " +
              std::to_string(round)));
    }
    EXPECT_EQ(current, aes::encrypt(plaintext, key)) << "block " << block;
  }
}

// --------------------------------------------------------------------------
// Random streams on the reduced AES's instances.
// --------------------------------------------------------------------------

/// A 61-point kernel over `span` shaped like a SPICE extraction: sampled
/// with the extraction's accumulating time step, values random around
/// `base` (the grid's exact-arithmetic shortcuts get no help).
util::Waveform spice_shaped(util::Rng& rng, double span, double base,
                            double swing) {
  util::Waveform w;
  const double step = span / 60.0;
  int points = 0;
  for (double t = 0.0; points < 61; t += step, ++points) {
    w.append(t, base * t / span + rng.gaussian(0.0, swing));
  }
  return w;
}

/// `count` events with times drawn from a few distinct values around the
/// grid (so many events share a time): far before it, inside its first
/// kernel length, on and between grid points, at its last sample and past
/// its end.  Drivers include primary inputs (-1).
std::vector<SimEvent> random_stream(util::Rng& rng, const Design& d,
                                    const TraceOptions& o, std::size_t count) {
  const double grid_end = o.t_start + o.dt * static_cast<double>(o.samples - 1);
  std::vector<double> times = {o.t_start - 1e-9, o.t_start - 30 * ps,
                               o.t_start, grid_end, grid_end + 0.5 * o.dt,
                               grid_end + 200 * ps};
  const std::size_t distinct = 4 + rng.bounded(20);
  for (std::size_t i = 0; i < distinct; ++i) {
    const double on_grid =
        o.t_start + o.dt * static_cast<double>(rng.bounded(o.samples));
    times.push_back(rng.bounded(2) == 0
                        ? on_grid
                        : on_grid + o.dt * rng.uniform(-1.0, 1.0));
  }
  std::vector<SimEvent> events;
  for (std::size_t e = 0; e < count; ++e) {
    SimEvent ev;
    ev.time = times[rng.bounded(times.size())];
    ev.value = rng.bounded(2) == 0;
    ev.driver = static_cast<netlist::InstId>(
        static_cast<std::int64_t>(rng.bounded(d.num_instances() + 1)) - 1);
    ev.net = 0;
    events.push_back(ev);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const SimEvent& a, const SimEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

/// One grid of the random-stream oracle.
struct Grid {
  double t_start;
  double dt;
  std::size_t samples;
};

/// 1-, 7- and 600-sample grids at three steps, near time zero and far from
/// it, where a grid's own index arithmetic rounds so that a level can stop
/// one sample short of the grid end.
std::vector<Grid> oracle_grids() {
  std::vector<Grid> grids;
  for (const double t_start : {0.4e-9, 1.3e-3}) {
    for (const std::size_t samples : {1, 7, 600}) {
      for (const double dt : {1e-12, 4e-12, 0.7e-12}) {
        grids.push_back({t_start, dt, samples});
      }
    }
  }
  return grids;
}

TEST(ComposeOracle, RandomStreamsGridsKernelsAndWindows) {
  util::Rng rng(101);
  for (const CellLibrary& lib : libraries()) {
    const synth::MapResult mapped = core::map_reduced_aes(lib);
    const Design& d = mapped.design;
    for (const Grid& grid : oracle_grids()) {
      for (const bool spice : {false, true}) {
        for (const double residual : {0.002, 0.0}) {
          TraceOptions o;
          o.t_start = grid.t_start;
          o.dt = grid.dt;
          o.samples = grid.samples;
          o.residual_sigma = residual;
          o.seed = rng.next_u64();
          CurrentKernels kernels = default_kernels();
          if (spice) {
            kernels.cmos_toggle = spice_shaped(rng, 300 * ps, 0.0, 1e9);
            kernels.mcml_switch = spice_shaped(rng, 300 * ps, 0.0, 0.02);
            kernels.pg_wake = spice_shaped(rng, 600 * ps, 1.0, 0.1);
          }
          const PowerTracer tracer(d, lib, kernels, o);
          const reference::PowerTracer ref(d, lib, kernels, o);

          // Two awake windows, the second opening and closing on the grid.
          const double span = o.dt * static_cast<double>(o.samples - 1);
          SleepSchedule two_windows;
          two_windows.awake.push_back(
              {o.t_start - 50 * ps, o.t_start + 0.3 * span});
          two_windows.awake.push_back(
              {o.t_start + 0.45 * span, o.t_start + 0.8 * span});
          const std::vector<SleepSchedule> schedules = {
              {}, per_operation(o), two_windows};

          const std::string config =
              lib.name() + " t_start " + std::to_string(o.t_start) +
              " samples " + std::to_string(o.samples) + " dt " +
              std::to_string(o.dt) + (spice ? " spice" : " default") +
              " residual " + std::to_string(residual);
          for (int trial = 0; trial < 4; ++trial) {
            const std::vector<SimEvent> events =
                random_stream(rng, d, o, 1 + rng.bounded(400));
            for (std::size_t s = 0; s < schedules.size(); ++s) {
              ASSERT_NO_FATAL_FAILURE(expect_identical(
                  tracer, ref, events, schedules[s],
                  config + " trial " + std::to_string(trial) +
                      " schedule " + std::to_string(s)));
            }
          }
          ASSERT_NO_FATAL_FAILURE(expect_identical(
              tracer, ref, {}, two_windows, config + " no events"));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pgmcml::power
