// Oracle for the gate-level simulator: netlist::LogicSim against the
// reference copy of the simulator it replaced (reference_logicsim.hpp).
// Every recorded event -- time, net, value, driver, in order -- every toggle
// count, every net value and the simulation time must match bit for bit, on
// random mapped designs under overlapping multi-step stimulus, on the
// reduced AES for every plaintext in all three styles (fresh and as a copy
// of one settled precharge state), and on two blocks through the clocked
// full AES core.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/synth/map.hpp"
#include "pgmcml/util/rng.hpp"
#include "property/random_module.hpp"
#include "reference_logicsim.hpp"

namespace pgmcml::netlist {
namespace {

using cells::CellLibrary;
using Assignment = std::vector<std::pair<NetId, bool>>;

const std::vector<CellLibrary>& libraries() {
  static const std::vector<CellLibrary> kLibs = {
      CellLibrary::cmos90(), CellLibrary::mcml90(), CellLibrary::pgmcml90()};
  return kLibs;
}

/// Fails (fatally, at the first difference) unless `sim` and `ref` recorded
/// the same events and stand in the same state.
void expect_identical(const Design& d, const LogicSim& sim,
                      const reference::LogicSim& ref,
                      const std::string& where) {
  const auto& got = sim.events();
  const auto& want = ref.events();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e].time, want[e].time) << where << " event " << e;
    ASSERT_EQ(got[e].net, want[e].net) << where << " event " << e;
    ASSERT_EQ(got[e].value, want[e].value) << where << " event " << e;
    ASSERT_EQ(got[e].driver, want[e].driver) << where << " event " << e;
  }
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const auto inst = static_cast<InstId>(i);
    ASSERT_EQ(sim.toggle_count(inst), ref.toggle_count(inst))
        << where << " instance " << i;
  }
  for (std::size_t n = 0; n < d.num_nets(); ++n) {
    const auto net = static_cast<NetId>(n);
    ASSERT_EQ(sim.value(net), ref.value(net)) << where << " net " << n;
  }
  ASSERT_EQ(sim.now(), ref.now()) << where;
}

// --------------------------------------------------------------------------
// Random mapped designs, multi-step stimulus.
// --------------------------------------------------------------------------

/// One step of stimulus, applied identically to every simulator.
struct Step {
  /// Input changes, change c scheduled at now + offsets[c].
  Assignment changes;
  std::vector<double> offsets;
  /// Then apply_and_settle({}) when set, else run_until(now + advance).
  bool settle = false;
  double advance = 0.0;
};

Step random_step(util::Rng& rng, const Design& d) {
  Step step;
  const std::size_t changes = 1 + rng.bounded(3);
  for (std::size_t c = 0; c < changes; ++c) {
    step.changes.emplace_back(d.inputs()[rng.bounded(d.inputs().size())],
                              rng.bounded(2) != 0);
    // Offsets shorter than a gate delay put new edges on top of events
    // still in flight: glitches, swallowed transitions, same-time ties.
    step.offsets.push_back(1e-12 * static_cast<double>(rng.bounded(60)));
  }
  step.settle = rng.bounded(4) == 0;
  step.advance = 1e-12 * static_cast<double>(rng.bounded(150));
  return step;
}

template <typename Sim>
void apply(Sim& sim, const Step& step) {
  const double now = sim.now();
  for (std::size_t c = 0; c < step.changes.size(); ++c) {
    sim.set_input(step.changes[c].first, step.changes[c].second,
                  now + step.offsets[c]);
  }
  if (step.settle) {
    sim.apply_and_settle({});
  } else {
    sim.run_until(now + step.advance);
  }
}

class RandomDesignOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomDesignOracle, EventsMatchReferenceUnderOverlappingStimulus) {
  util::Rng rng(7000 + GetParam());
  const RandomModule rm = make_random_module(rng, 6, 40);
  for (const CellLibrary& lib : libraries()) {
    const synth::MapResult mapped = synth::map_module(rm.module, lib);
    const Design& d = mapped.design;
    LogicSim sim(d, &lib);
    reference::LogicSim ref(d, &lib);
    // A copy taken mid-run, with events still pending, must continue
    // exactly as the original does.
    std::vector<LogicSim> copies;
    for (int s = 0; s < 24; ++s) {
      const Step step = random_step(rng, d);
      apply(sim, step);
      apply(ref, step);
      for (LogicSim& copy : copies) apply(copy, step);
      const std::string where =
          lib.name() + " seed " + std::to_string(GetParam()) + " step " +
          std::to_string(s);
      ASSERT_NO_FATAL_FAILURE(expect_identical(d, sim, ref, where));
      for (const LogicSim& copy : copies) {
        ASSERT_NO_FATAL_FAILURE(
            expect_identical(d, copy, ref, where + " (copy)"));
      }
      if (s == 5 || s == 13) copies.push_back(sim);
    }
    apply(sim, Step{{}, {}, true, 0.0});
    apply(ref, Step{{}, {}, true, 0.0});
    expect_identical(d, sim, ref, lib.name() + " final settle");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignOracle, ::testing::Range(0, 8));

// --------------------------------------------------------------------------
// Reduced AES: every plaintext, every style, fresh and from a copy.
// --------------------------------------------------------------------------

TEST(LogicSimOracle, ReducedAesEveryPlaintextFreshAndPrechargedCopy) {
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
    const auto precharge = [&](auto& sim) {
      sim.apply_and_settle(init);
      sim.clear_events();
      sim.run_until(0.5e-9);
    };
    LogicSim precharged(d, &lib);
    precharge(precharged);

    for (int plaintext = 0; plaintext < 256; ++plaintext) {
      Assignment stimulus;
      for (int b = 0; b < 8; ++b) {
        stimulus.emplace_back(p[b], (plaintext >> b) & 1);
      }
      reference::LogicSim ref(d, &lib);
      precharge(ref);
      ref.apply_and_settle(stimulus);

      LogicSim fresh(d, &lib);
      precharge(fresh);
      fresh.apply_and_settle(stimulus);
      LogicSim copy = precharged;
      copy.apply_and_settle(stimulus);

      const std::string where =
          lib.name() + " plaintext " + std::to_string(plaintext);
      ASSERT_NO_FATAL_FAILURE(
          expect_identical(d, fresh, ref, where + " (fresh)"));
      ASSERT_NO_FATAL_FAILURE(
          expect_identical(d, copy, ref, where + " (copy)"));
    }
  }
}

// --------------------------------------------------------------------------
// Full AES core: two blocks through the clocked state register.
// --------------------------------------------------------------------------

TEST(LogicSimOracle, FullAesCoreTwoBlocks) {
  const CellLibrary lib = CellLibrary::cmos90();
  const synth::MapResult mapped = core::map_aes_core(lib);
  const Design& d = mapped.design;
  const std::vector<NetId> pt = d.input_bus("pt", 128);
  const std::vector<NetId> rk = d.input_bus("rk", 128);
  const std::vector<NetId> st = d.input_bus("st", 128);
  NetId load = kNoNet, final_round = kNoNet, clk = kNoNet;
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    const std::string& name = d.port_name(i, true);
    if (name == "load") load = d.inputs()[i];
    if (name == "final") final_round = d.inputs()[i];
    if (name == "clk") clk = d.inputs()[i];
  }
  ASSERT_NE(clk, kNoNet);
  // The registered state outputs, bit i at state[i].
  std::vector<NetId> state(128, kNoNet);
  std::vector<bool> state_inverted(128, false);
  for (std::size_t i = 0; i < d.outputs().size(); ++i) {
    const std::string& name = d.port_name(i, false);
    if (name.rfind("state[", 0) == 0) {
      const int bit = std::stoi(name.substr(6));
      state[bit] = d.outputs()[i];
      state_inverted[bit] = d.output_inverted(i);
    }
  }

  LogicSim sim(d, &lib);
  reference::LogicSim ref(d, &lib);
  const auto both = [&](const Assignment& a) {
    sim.apply_and_settle(a);
    ref.apply_and_settle(a);
  };
  const auto bus = [](const std::vector<NetId>& nets,
                      const std::array<std::uint8_t, 16>& bytes,
                      Assignment& out) {
    for (int b = 0; b < 128; ++b) {
      out.emplace_back(nets[b], (bytes[b / 8] >> (b % 8)) & 1);
    }
  };

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
      Assignment in;
      bus(pt, plaintext, in);
      bus(rk, ks.round_keys[static_cast<std::size_t>(round)], in);
      bus(st, current, in);
      in.emplace_back(load, round == 0);
      in.emplace_back(final_round, round == 10);
      both(in);
      both({{clk, true}});  // rising edge: the state register samples
      both({{clk, false}});
      for (int b = 0; b < 128; ++b) {
        const bool v = sim.value(state[b]) != state_inverted[b];
        current[b / 8] = static_cast<std::uint8_t>(
            (current[b / 8] & ~(1u << (b % 8))) | (unsigned{v} << (b % 8)));
      }
      ASSERT_NO_FATAL_FAILURE(expect_identical(
          d, sim, ref,
          "block " + std::to_string(block) + " round " +
              std::to_string(round)));
    }
    EXPECT_EQ(current, aes::encrypt(plaintext, key)) << "block " << block;
  }
}

}  // namespace
}  // namespace pgmcml::netlist
