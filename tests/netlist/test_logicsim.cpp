#include "pgmcml/netlist/logicsim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace pgmcml::netlist {
namespace {

using mcml::CellKind;

TEST(EvalCell, CombinationalFunctions) {
  EXPECT_EQ(eval_cell(CellKind::kBuf, {true}, false, false, false),
            std::vector<bool>{true});
  EXPECT_EQ(eval_cell(CellKind::kAnd2, {true, false}, false, false, false),
            std::vector<bool>{false});
  EXPECT_EQ(eval_cell(CellKind::kAnd4, {true, true, true, true}, false, false,
                      false),
            std::vector<bool>{true});
  EXPECT_EQ(eval_cell(CellKind::kXor3, {true, true, true}, false, false, false),
            std::vector<bool>{true});
  // MUX2: {sel, in0, in1}.
  EXPECT_EQ(eval_cell(CellKind::kMux2, {false, true, false}, false, false,
                      false),
            std::vector<bool>{true});
  EXPECT_EQ(eval_cell(CellKind::kMux2, {true, true, false}, false, false,
                      false),
            std::vector<bool>{false});
  // MUX4 selects lane sel1*2+sel0 from in2..in5.
  EXPECT_EQ(eval_cell(CellKind::kMux4, {true, true, false, false, false, true},
                      false, false, false),
            std::vector<bool>{true});
  EXPECT_EQ(eval_cell(CellKind::kMaj3, {true, true, false}, false, false,
                      false),
            std::vector<bool>{true});
  const auto fa = eval_cell(CellKind::kFullAdder, {true, true, false}, false,
                            false, false);
  EXPECT_EQ(fa, (std::vector<bool>{false, true}));
}

Design buf_chain(int n) {
  Design d("chain");
  NetId prev = d.add_net("in");
  d.mark_input(prev, "in");
  for (int i = 0; i < n; ++i) {
    const NetId next = d.add_net("w");
    d.add_instance({"u" + std::to_string(i), CellKind::kBuf, {prev}, kNoNet,
                    kNoNet, {next}});
    prev = next;
  }
  d.mark_output(prev, "out");
  return d;
}

TEST(LogicSim, PropagatesThroughChainWithDelay) {
  const Design d = buf_chain(5);
  LogicSim sim(d, nullptr);  // 10 ps unit delay
  sim.set_input(d.inputs()[0], true, 1e-9);
  sim.run_until(2e-9);
  EXPECT_TRUE(sim.value(d.outputs()[0]));
  // Output event must land 5 gate delays after the input event.
  const auto& evs = sim.events();
  ASSERT_FALSE(evs.empty());
  EXPECT_NEAR(evs.back().time, 1e-9 + 5 * 10e-12, 1e-15);
}

TEST(LogicSim, NoEventsForNonChangingInput) {
  const Design d = buf_chain(2);
  LogicSim sim(d, nullptr);
  sim.set_input(d.inputs()[0], false, 1e-9);  // already false
  sim.run_until(2e-9);
  EXPECT_TRUE(sim.events().empty());
  EXPECT_EQ(sim.total_toggles(), 0u);
}

TEST(LogicSim, ToggleCountsPerInstance) {
  const Design d = buf_chain(3);
  LogicSim sim(d, nullptr);
  sim.set_input(d.inputs()[0], true, 1e-9);
  sim.set_input(d.inputs()[0], false, 2e-9);
  sim.run_until(3e-9);
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    EXPECT_EQ(sim.toggle_count(static_cast<InstId>(i)), 2u);
  }
  EXPECT_EQ(sim.total_toggles(), 6u);
}

TEST(LogicSim, InputInversionRespected) {
  Design d("inv_in");
  const NetId a = d.add_net("a");
  const NetId out = d.add_net("o");
  d.mark_input(a, "a");
  Instance inst{"u", CellKind::kBuf, {a}, kNoNet, kNoNet, {out}};
  inst.input_inverted = {true};
  d.add_instance(std::move(inst));
  d.mark_output(out, "o");
  LogicSim sim(d, nullptr);
  sim.apply_and_settle({{a, false}});
  EXPECT_TRUE(sim.value(out));  // ~false = true after settling
  sim.apply_and_settle({{a, true}});
  EXPECT_FALSE(sim.value(out));
}

TEST(LogicSim, DffSamplesOnRisingEdgeOnly) {
  Design d("ff");
  const NetId din = d.add_net("d");
  const NetId clk = d.add_net("clk");
  const NetId q = d.add_net("q");
  d.mark_input(din, "d");
  d.mark_input(clk, "clk");
  d.add_instance({"u_ff", CellKind::kDff, {din}, clk, kNoNet, {q}});
  d.mark_output(q, "q");
  LogicSim sim(d, nullptr);
  sim.set_input(din, true, 1e-9);
  sim.run_until(2e-9);
  EXPECT_FALSE(sim.value(q));  // no clock edge yet
  sim.set_input(clk, true, 3e-9);  // rising edge samples d = 1
  sim.run_until(4e-9);
  EXPECT_TRUE(sim.value(q));
  sim.set_input(din, false, 5e-9);
  sim.set_input(clk, false, 6e-9);  // falling edge: no sampling
  sim.run_until(7e-9);
  EXPECT_TRUE(sim.value(q));
  sim.set_input(clk, true, 8e-9);  // next rising edge samples d = 0
  sim.run_until(9e-9);
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, DffrResetsSynchronously) {
  Design d("ffr");
  const NetId din = d.add_net("d");
  const NetId clk = d.add_net("clk");
  const NetId rst = d.add_net("rst");
  const NetId q = d.add_net("q");
  d.mark_input(din, "d");
  d.mark_input(clk, "clk");
  d.mark_input(rst, "rst");
  d.add_instance({"u_ff", CellKind::kDffR, {din}, clk, rst, {q}});
  d.mark_output(q, "q");
  LogicSim sim(d, nullptr);
  sim.set_input(din, true, 1e-9);
  sim.set_input(clk, true, 2e-9);
  sim.run_until(3e-9);
  EXPECT_TRUE(sim.value(q));
  sim.set_input(clk, false, 4e-9);
  sim.set_input(rst, true, 5e-9);
  sim.set_input(clk, true, 6e-9);  // edge with reset asserted
  sim.run_until(7e-9);
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, EDffHoldsWhenDisabled) {
  Design d("ffe");
  const NetId din = d.add_net("d");
  const NetId clk = d.add_net("clk");
  const NetId en = d.add_net("en");
  const NetId q = d.add_net("q");
  d.mark_input(din, "d");
  d.mark_input(clk, "clk");
  d.mark_input(en, "en");
  d.add_instance({"u_ff", CellKind::kEDff, {din}, clk, en, {q}});
  d.mark_output(q, "q");
  LogicSim sim(d, nullptr);
  sim.set_input(en, true, 0.5e-9);
  sim.set_input(din, true, 1e-9);
  sim.set_input(clk, true, 2e-9);
  sim.run_until(3e-9);
  EXPECT_TRUE(sim.value(q));
  // Disable, change d, clock again: q holds.
  sim.set_input(en, false, 4e-9);
  sim.set_input(din, false, 4.5e-9);
  sim.set_input(clk, false, 5e-9);
  sim.set_input(clk, true, 6e-9);
  sim.run_until(7e-9);
  EXPECT_TRUE(sim.value(q));
}

TEST(LogicSim, LatchTransparency) {
  Design d("lat");
  const NetId din = d.add_net("d");
  const NetId clk = d.add_net("clk");
  const NetId q = d.add_net("q");
  d.mark_input(din, "d");
  d.mark_input(clk, "clk");
  d.add_instance({"u_lat", CellKind::kDLatch, {din}, clk, kNoNet, {q}});
  d.mark_output(q, "q");
  LogicSim sim(d, nullptr);
  sim.set_input(clk, true, 1e-9);  // transparent
  sim.set_input(din, true, 2e-9);
  sim.run_until(3e-9);
  EXPECT_TRUE(sim.value(q));
  sim.set_input(clk, false, 4e-9);  // opaque
  sim.set_input(din, false, 5e-9);
  sim.run_until(6e-9);
  EXPECT_TRUE(sim.value(q));  // held
}

TEST(LogicSim, LibraryDelaysUsedWhenProvided) {
  const Design d = buf_chain(1);
  const auto lib = cells::CellLibrary::pgmcml90();
  LogicSim sim(d, &lib);
  sim.set_input(d.inputs()[0], true, 0.0);
  sim.run_until(1e-9);
  ASSERT_EQ(sim.events().size(), 2u);  // input + output
  EXPECT_NEAR(sim.events()[1].time,
              lib.cell(CellKind::kBuf).delay, 1e-15);
}

TEST(LogicSim, RejectsPastTimestamps) {
  const Design d = buf_chain(1);
  LogicSim sim(d, nullptr);
  sim.run_until(5e-9);
  EXPECT_THROW(sim.set_input(d.inputs()[0], true, 1e-9),
               std::invalid_argument);
}

TEST(LogicSim, RejectsNanTimestamps) {
  const Design d = buf_chain(1);
  LogicSim sim(d, nullptr);
  EXPECT_THROW(sim.set_input(d.inputs()[0], true, std::nan("")),
               std::invalid_argument);
  sim.apply_and_settle({});  // nothing pending: returns
  EXPECT_TRUE(sim.events().empty());
}

TEST(LogicSim, RejectsNetsOutsideTheDesign) {
  const Design d = buf_chain(1);
  LogicSim sim(d, nullptr);
  const auto past_end = static_cast<NetId>(d.num_nets());
  EXPECT_THROW(sim.set_input(kNoNet, true, 1e-9), std::out_of_range);
  EXPECT_THROW(sim.set_input(past_end, true, 1e-9), std::out_of_range);
  EXPECT_THROW(sim.apply_and_settle({{past_end, true}}), std::out_of_range);
  // Nothing was scheduled: the simulator is still usable.
  sim.run_until(2e-9);
  EXPECT_TRUE(sim.events().empty());
  sim.apply_and_settle({{d.inputs()[0], true}});
  EXPECT_TRUE(sim.value(d.outputs()[0]));
}

TEST(LogicSim, RejectsInstancesWiredOutsideTheDesign) {
  Design d("stray");
  const NetId out = d.add_net("o");
  d.add_instance({"u", CellKind::kBuf, {kNoNet}, kNoNet, kNoNet, {out}});
  EXPECT_THROW(LogicSim(d, nullptr), std::invalid_argument);
}

TEST(LogicSim, CopyContinuesFromTheSameStateAndCountsItsOwnWork) {
  const Design d = buf_chain(4);
  LogicSim sim(d, nullptr);
  sim.set_input(d.inputs()[0], true, 1e-9);
  sim.run_until(1e-9 + 15e-12);  // two buffers switched, two in flight
  LogicSim copy = sim;
  sim.run_until(2e-9);
  copy.run_until(2e-9);
  ASSERT_EQ(copy.events().size(), sim.events().size());
  for (std::size_t e = 0; e < sim.events().size(); ++e) {
    EXPECT_EQ(copy.events()[e].time, sim.events()[e].time);
    EXPECT_EQ(copy.events()[e].net, sim.events()[e].net);
  }
  EXPECT_EQ(copy.events_fired(), sim.events_fired());
  EXPECT_EQ(copy.evaluations(), sim.evaluations());
  EXPECT_EQ(sim.events_fired(), 5u);  // input + four buffers
  EXPECT_EQ(sim.evaluations(), 4u);
  // A copy is independent: advancing it leaves the original alone.
  copy.apply_and_settle({{d.inputs()[0], false}});
  EXPECT_FALSE(copy.value(d.outputs()[0]));
  EXPECT_TRUE(sim.value(d.outputs()[0]));
}

}  // namespace
}  // namespace pgmcml::netlist
