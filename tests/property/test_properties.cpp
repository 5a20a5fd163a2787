// Property-based tests: randomized invariants across the stack.
//
//  * synth fuzz: random IR DAGs mapped to every library must be logically
//    equivalent to the IR reference evaluation on random vectors;
//  * SPICE: the solved operating point of random resistive networks must
//    satisfy KCL at every node;
//  * waveform algebra: integral additivity, crossing/value consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/synth/map.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/waveform.hpp"
#include "random_module.hpp"

namespace pgmcml {
namespace {

using cells::CellLibrary;

// --------------------------------------------------------------------------
// Random-module mapping equivalence.
// --------------------------------------------------------------------------

std::vector<bool> run_mapped(const netlist::Design& d,
                             const std::vector<bool>& inputs) {
  netlist::LogicSim sim(d, nullptr);
  std::vector<std::pair<netlist::NetId, bool>> assign;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    if (d.port_name(i, true) == "const0") {
      assign.emplace_back(d.inputs()[i], false);
    } else {
      assign.emplace_back(d.inputs()[i], inputs.at(idx++));
    }
  }
  sim.apply_and_settle(assign);
  std::vector<bool> out;
  for (std::size_t i = 0; i < d.outputs().size(); ++i) {
    out.push_back(sim.value(d.outputs()[i]) != d.output_inverted(i));
  }
  return out;
}

class MapperFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MapperFuzz, MappedNetlistEquivalentToIr) {
  util::Rng rng(1000 + GetParam());
  const RandomModule rm = make_random_module(rng, 6, 40);
  for (const CellLibrary& lib :
       {CellLibrary::cmos90(), CellLibrary::mcml90(), CellLibrary::pgmcml90()}) {
    const auto mapped = synth::map_module(rm.module, lib);
    for (int vec = 0; vec < 16; ++vec) {
      std::vector<bool> in(rm.num_inputs);
      for (auto&& b : in) b = rng.bounded(2) != 0;
      const auto golden = rm.module.evaluate(in);
      const auto actual = run_mapped(mapped.design, in);
      ASSERT_EQ(actual, golden)
          << lib.name() << " seed=" << GetParam() << " vec=" << vec;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperFuzz, ::testing::Range(0, 12));

class MapperFuzzNoCollapse : public ::testing::TestWithParam<int> {};

TEST_P(MapperFuzzNoCollapse, CollapseDisabledStillEquivalent) {
  util::Rng rng(5000 + GetParam());
  const RandomModule rm = make_random_module(rng, 5, 30);
  synth::MapOptions opt;
  opt.collapse = false;
  const auto mapped =
      synth::map_module(rm.module, CellLibrary::pgmcml90(), opt);
  for (int vec = 0; vec < 8; ++vec) {
    std::vector<bool> in(rm.num_inputs);
    for (auto&& b : in) b = rng.bounded(2) != 0;
    ASSERT_EQ(run_mapped(mapped.design, in), rm.module.evaluate(in))
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperFuzzNoCollapse, ::testing::Range(0, 6));

// --------------------------------------------------------------------------
// SPICE: KCL residual on random resistive networks.
// --------------------------------------------------------------------------

class ResistiveNetworkKcl : public ::testing::TestWithParam<int> {};

TEST_P(ResistiveNetworkKcl, OperatingPointSatisfiesKcl) {
  util::Rng rng(200 + GetParam());
  spice::Circuit c;
  const int n_nodes = 4 + static_cast<int>(rng.bounded(6));
  std::vector<spice::NodeId> nodes;
  for (int i = 0; i < n_nodes; ++i) {
    nodes.push_back(c.node("n" + std::to_string(i)));
  }
  // Supply to node 0; random resistor mesh guaranteeing connectivity.
  c.add_vsource("V1", nodes[0], c.gnd(), spice::SourceSpec::dc(1.2));
  struct Edge {
    spice::NodeId a, b;
    double r;
  };
  std::vector<Edge> edges;
  for (int i = 1; i < n_nodes; ++i) {
    const auto j = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(i)));
    const double r = rng.uniform(100.0, 100e3);
    edges.push_back({nodes[i], nodes[j], r});
  }
  for (int extra = 0; extra < n_nodes; ++extra) {
    const auto a = rng.bounded(static_cast<std::uint64_t>(n_nodes));
    const auto b = rng.bounded(static_cast<std::uint64_t>(n_nodes));
    if (a == b) continue;
    edges.push_back({nodes[a], nodes[b], rng.uniform(100.0, 100e3)});
  }
  // Ground leg so the network has a DC path.
  edges.push_back({nodes[n_nodes - 1], c.gnd(), rng.uniform(1e3, 50e3)});
  for (std::size_t e = 0; e < edges.size(); ++e) {
    c.add_resistor("R" + std::to_string(e), edges[e].a, edges[e].b,
                   edges[e].r);
  }

  const spice::DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  // KCL: net resistor current into each internal node is ~0.
  spice::Solution sol(dc.x, c.num_nodes());
  for (int i = 1; i < n_nodes; ++i) {
    double sum = 0.0;
    for (const Edge& e : edges) {
      const double current = (sol.v(e.a) - sol.v(e.b)) / e.r;
      if (e.a == nodes[i]) sum -= current;
      if (e.b == nodes[i]) sum += current;
    }
    EXPECT_NEAR(sum, 0.0, 1e-7) << "node " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResistiveNetworkKcl, ::testing::Range(0, 10));

// --------------------------------------------------------------------------
// Waveform algebra.
// --------------------------------------------------------------------------

class WaveformProps : public ::testing::TestWithParam<int> {};

util::Waveform random_waveform(util::Rng& rng, int points) {
  util::Waveform w;
  double t = 0.0;
  for (int i = 0; i < points; ++i) {
    t += rng.uniform(0.01, 1.0);
    w.append(t, rng.uniform(-2.0, 2.0));
  }
  return w;
}

TEST_P(WaveformProps, IntegralIsAdditiveOverSubintervals) {
  util::Rng rng(300 + GetParam());
  const util::Waveform w = random_waveform(rng, 20);
  const double t0 = w.t_begin();
  const double t2 = w.t_end();
  const double t1 = t0 + rng.uniform(0.1, 0.9) * (t2 - t0);
  EXPECT_NEAR(w.integral(t0, t1) + w.integral(t1, t2), w.integral(t0, t2),
              1e-9);
}

TEST_P(WaveformProps, ScalingScalesIntegral) {
  util::Rng rng(400 + GetParam());
  const util::Waveform w = random_waveform(rng, 15);
  const double k = rng.uniform(-3.0, 3.0);
  EXPECT_NEAR(w.scaled(k).integral(w.t_begin(), w.t_end()),
              k * w.integral(w.t_begin(), w.t_end()), 1e-9);
}

TEST_P(WaveformProps, PlusIsPointwise) {
  util::Rng rng(500 + GetParam());
  const util::Waveform a = random_waveform(rng, 12);
  const util::Waveform b = random_waveform(rng, 9);
  const util::Waveform sum = a.plus(b);
  for (int i = 0; i < 20; ++i) {
    const double t = rng.uniform(sum.t_begin(), sum.t_end());
    EXPECT_NEAR(sum.value_at(t), a.value_at(t) + b.value_at(t), 1e-9);
  }
}

TEST_P(WaveformProps, CrossingsLieOnTheLevel) {
  util::Rng rng(600 + GetParam());
  const util::Waveform w = random_waveform(rng, 25);
  const double level = rng.uniform(-1.0, 1.0);
  // crossing() is what characterization calls: walk t_from past each hit.
  double t_from = w.t_begin();
  while (const std::optional<double> t = w.crossing(level, 0, t_from)) {
    EXPECT_NEAR(w.value_at(*t), level, 1e-6);
    t_from = std::nextafter(*t, std::numeric_limits<double>::infinity());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaveformProps, ::testing::Range(0, 8));

}  // namespace
}  // namespace pgmcml
