#include "pgmcml/netlist/design.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "pgmcml/cells/library.hpp"

namespace pgmcml::netlist {
namespace {

using mcml::CellKind;

Design small_design() {
  // in0, in1 -> AND2 -> XOR2 with in2 -> out.
  Design d("small");
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const NetId c = d.add_net("c");
  const NetId w1 = d.add_net("w1");
  const NetId out = d.add_net("out");
  d.mark_input(a, "a");
  d.mark_input(b, "b");
  d.mark_input(c, "c");
  d.add_instance({"u_and", CellKind::kAnd2, {a, b}, kNoNet, kNoNet, {w1}});
  d.add_instance({"u_xor", CellKind::kXor2, {w1, c}, kNoNet, kNoNet, {out}});
  d.mark_output(out, "out");
  return d;
}

TEST(Design, BasicConstruction) {
  const Design d = small_design();
  EXPECT_EQ(d.num_instances(), 2u);
  EXPECT_EQ(d.num_nets(), 5u);
  EXPECT_EQ(d.inputs().size(), 3u);
  EXPECT_EQ(d.outputs().size(), 1u);
  EXPECT_EQ(d.port_name(0, true), "a");
  EXPECT_EQ(d.port_name(0, false), "out");
}

/// A design whose only inputs are the ports `names`, in order.
Design ports_only(const std::vector<std::string>& names) {
  Design d("ports");
  for (const std::string& name : names) d.mark_input(d.add_net(name), name);
  return d;
}

TEST(Design, InputBusResolvesBitsByIndex) {
  const Design d = ports_only({"k[0]", "p[1]", "const0", "p[0]", "k[1]"});
  EXPECT_EQ(d.input_bus("p", 2), (std::vector<NetId>{d.inputs()[3],
                                                     d.inputs()[1]}));
  EXPECT_EQ(d.input_bus("k", 2), (std::vector<NetId>{d.inputs()[0],
                                                     d.inputs()[4]}));
}

TEST(Design, InputBusRejectsMalformedPortName) {
  EXPECT_THROW(ports_only({"p[0]", "p[x]"}).input_bus("p", 2),
               std::invalid_argument);
  EXPECT_THROW(ports_only({"p[0]", "p[]"}).input_bus("p", 2),
               std::invalid_argument);
  EXPECT_THROW(ports_only({"p[0]", "p[1"}).input_bus("p", 2),
               std::invalid_argument);
}

TEST(Design, InputBusRejectsOutOfRangeDuplicateAndMissingBits) {
  EXPECT_THROW(ports_only({"p[0]", "p[2]"}).input_bus("p", 2),
               std::out_of_range);
  EXPECT_THROW(ports_only({"p[0]", "p[99999999999]"}).input_bus("p", 2),
               std::out_of_range);
  EXPECT_THROW(ports_only({"p[0]", "p[0]"}).input_bus("p", 2),
               std::invalid_argument);
  EXPECT_THROW(ports_only({"p[0]"}).input_bus("p", 2), std::invalid_argument);
}

TEST(Design, InstanceValidation) {
  Design d;
  const NetId a = d.add_net("a");
  const NetId out = d.add_net("o");
  // Wrong input count.
  EXPECT_THROW(
      d.add_instance({"u", CellKind::kAnd2, {a}, kNoNet, kNoNet, {out}}),
      std::invalid_argument);
  // Missing clock on a flop.
  EXPECT_THROW(
      d.add_instance({"u", CellKind::kDff, {a}, kNoNet, kNoNet, {out}}),
      std::invalid_argument);
  // Full adder needs two outputs.
  EXPECT_THROW(
      d.add_instance(
          {"u", CellKind::kFullAdder, {a, a, a}, kNoNet, kNoNet, {out}}),
      std::invalid_argument);
}

TEST(Design, DriverMapDetectsDoubleDrive) {
  Design d;
  const NetId a = d.add_net("a");
  const NetId out = d.add_net("o");
  d.add_instance({"u1", CellKind::kBuf, {a}, kNoNet, kNoNet, {out}});
  d.add_instance({"u2", CellKind::kBuf, {a}, kNoNet, kNoNet, {out}});
  EXPECT_THROW(d.driver_map(), std::logic_error);
}

TEST(Design, TopologicalOrderRespectsDependencies) {
  const Design d = small_design();
  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(d.instance(order[0]).name, "u_and");
  EXPECT_EQ(d.instance(order[1]).name, "u_xor");
}

TEST(Design, SequentialCellsBreakCycles) {
  // DFF feeding combinational logic feeding back into the DFF is legal.
  Design d("loop");
  const NetId clk = d.add_net("clk");
  const NetId q = d.add_net("q");
  const NetId nq = d.add_net("nq");
  d.mark_input(clk, "clk");
  d.add_instance({"u_inv", CellKind::kBuf, {q}, kNoNet, kNoNet, {nq}, true});
  d.add_instance({"u_ff", CellKind::kDff, {nq}, clk, kNoNet, {q}});
  EXPECT_NO_THROW(d.topological_order());
}

TEST(Design, CombinationalCycleDetected) {
  Design d("bad");
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  d.add_instance({"u1", CellKind::kBuf, {a}, kNoNet, kNoNet, {b}});
  d.add_instance({"u2", CellKind::kBuf, {b}, kNoNet, kNoNet, {a}});
  EXPECT_THROW(d.topological_order(), std::logic_error);
}

TEST(Design, StatsAccumulateAreaAndCriticalPath) {
  const Design d = small_design();
  const auto lib = cells::CellLibrary::pgmcml90();
  const auto s = d.stats(lib);
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.inverters, 0u);
  EXPECT_NEAR(s.area,
              lib.cell(CellKind::kAnd2).area + lib.cell(CellKind::kXor2).area,
              1e-18);
  EXPECT_NEAR(s.critical_path,
              lib.cell(CellKind::kAnd2).delay + lib.cell(CellKind::kXor2).delay,
              1e-15);
}

TEST(Design, StatsCountExplicitInverters) {
  Design d("inv");
  const NetId a = d.add_net("a");
  const NetId out = d.add_net("o");
  d.mark_input(a, "a");
  Instance inst{"u", CellKind::kBuf, {a}, kNoNet, kNoNet, {out}};
  inst.inverted_output = true;
  d.add_instance(std::move(inst));
  d.mark_output(out, "o");
  const auto cmos = d.stats(cells::CellLibrary::cmos90());
  EXPECT_EQ(cmos.inverters, 1u);
  EXPECT_EQ(cmos.cells, 1u);
  EXPECT_NEAR(cmos.area, cells::CellLibrary::cmos90().inverter_area(), 1e-18);
}

}  // namespace
}  // namespace pgmcml::netlist
