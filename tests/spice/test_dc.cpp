#include <gtest/gtest.h>

#include <cmath>

#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/technology.hpp"

namespace pgmcml::spice {
namespace {

TEST(Dc, ResistorDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("V1", in, c.gnd(), SourceSpec::dc(3.0));
  c.add_resistor("R1", in, mid, 1e3);
  c.add_resistor("R2", mid, c.gnd(), 2e3);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v(c, mid), 2.0, 1e-6);
  EXPECT_NEAR(dc.v(c, in), 3.0, 1e-9);
}

TEST(Dc, SeriesResistorCurrentThroughSource) {
  Circuit c;
  const NodeId a = c.node("a");
  const DeviceId vs = c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R1", a, c.gnd(), 100.0);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  Solution sol(dc.x, c.num_nodes());
  // Branch current flows + to - through the source; a delivering supply
  // therefore reads -10 mA.
  EXPECT_NEAR(c.device(vs).probe_current(sol), -0.01, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId a = c.node("a");
  // 1 mA pulled from ground into node a (SPICE convention: from pos to neg
  // through the source), so stamping (gnd, a) pushes current INTO a.
  c.add_isource("I1", c.gnd(), a, SourceSpec::dc(1e-3));
  c.add_resistor("R1", a, c.gnd(), 1e3);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v(c, a), 1.0, 1e-6);
}

TEST(Dc, FloatingNodeThroughCapacitorStillSolvable) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_capacitor("C1", a, b, 1e-12);
  c.add_resistor("R1", b, c.gnd(), 1e6);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  // In DC the cap is (nearly) open: node b pulled to ground by R1.
  EXPECT_NEAR(dc.v(c, b), 0.0, 1e-3);
}

TEST(Dc, DiodeConnectedNmosSettlesAboveThreshold) {
  Technology tech;
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId d = c.node("d");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  c.add_resistor("R1", vdd, d, 10e3);
  const MosParams nm = tech.nmos(VtFlavor::kHighVt, 2e-6);
  c.add_mosfet("M1", d, d, c.gnd(), c.gnd(), nm);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  const double v = dc.v(c, d);
  EXPECT_GT(v, nm.vth0);  // diode-connected: settles above Vth
  EXPECT_LT(v, tech.vdd());
}

TEST(Dc, NmosCurrentMirrorCopiesCurrent) {
  Technology tech;
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId ref = c.node("ref");
  const NodeId out = c.node("out");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  // Reference branch: 50 uA pushed into the diode-connected device.
  c.add_isource("IREF", vdd, ref, SourceSpec::dc(50e-6));
  const MosParams nm = tech.nmos(VtFlavor::kHighVt, 4e-6);
  c.add_mosfet("M1", ref, ref, c.gnd(), c.gnd(), nm);
  c.add_mosfet("M2", out, ref, c.gnd(), c.gnd(), nm);
  const DeviceId rload = c.add_resistor("RL", vdd, out, 5e3);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  Solution sol(dc.x, c.num_nodes());
  const double i_out = c.device(rload).probe_current(sol);
  EXPECT_NEAR(i_out, 50e-6, 10e-6);  // mirror ratio 1 with lambda error
}

TEST(Dc, CmosInverterTransferEndpoints) {
  Technology tech;
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  c.add_vsource("VIN", in, c.gnd(), SourceSpec::dc(0.0));
  c.add_mosfet("MN", out, in, c.gnd(), c.gnd(),
               tech.nmos(VtFlavor::kLowVt, 1e-6));
  c.add_mosfet("MP", out, in, vdd, vdd, tech.pmos(VtFlavor::kLowVt, 2e-6));
  const DcResult dc0 = dc_operating_point(c);
  ASSERT_TRUE(dc0.converged);
  EXPECT_GT(dc0.v(c, out), tech.vdd() - 0.05);  // input low -> output high

  // Rebuild with input high.
  Circuit c2;
  const NodeId vdd2 = c2.node("vdd");
  const NodeId in2 = c2.node("in");
  const NodeId out2 = c2.node("out");
  c2.add_vsource("VDD", vdd2, c2.gnd(), SourceSpec::dc(tech.vdd()));
  c2.add_vsource("VIN", in2, c2.gnd(), SourceSpec::dc(tech.vdd()));
  c2.add_mosfet("MN", out2, in2, c2.gnd(), c2.gnd(),
                tech.nmos(VtFlavor::kLowVt, 1e-6));
  c2.add_mosfet("MP", out2, in2, vdd2, vdd2, tech.pmos(VtFlavor::kLowVt, 2e-6));
  const DcResult dc1 = dc_operating_point(c2);
  ASSERT_TRUE(dc1.converged);
  EXPECT_LT(dc1.v(c2, out2), 0.05);  // input high -> output low
}

TEST(Dc, DifferentialPairSteersTailCurrent) {
  Technology tech;
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId op = c.node("outp");
  const NodeId on = c.node("outn");
  const NodeId tail = c.node("tail");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  c.add_resistor("RP", vdd, op, 8e3);
  c.add_resistor("RN", vdd, on, 8e3);
  const NodeId inp = c.node("inp");
  const NodeId inn = c.node("inn");
  // Differential input: +0.4 V / 0.8 V -> full steering.
  c.add_vsource("VIP", inp, c.gnd(), SourceSpec::dc(1.2));
  c.add_vsource("VIN", inn, c.gnd(), SourceSpec::dc(0.8));
  const MosParams nm = tech.nmos(VtFlavor::kHighVt, 2e-6);
  c.add_mosfet("M1", op, inp, tail, c.gnd(), nm);
  c.add_mosfet("M2", on, inn, tail, c.gnd(), nm);
  c.add_isource("ITAIL", tail, c.gnd(), SourceSpec::dc(50e-6));
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  // Side with the high input carries the current -> its output is LOW.
  const double v_op = dc.v(c, op);
  const double v_on = dc.v(c, on);
  EXPECT_LT(v_op, v_on);
  EXPECT_NEAR(v_on, tech.vdd(), 0.02);          // no current in that leg
  EXPECT_NEAR(tech.vdd() - v_op, 0.4, 0.05);    // Iss * R = 50u * 8k = 0.4 V
}

TEST(Dc, ReportsNonConvergenceInsteadOfGarbage) {
  // A current source into an open node has no DC solution.
  Circuit c;
  const NodeId a = c.node("a");
  c.add_isource("I1", c.gnd(), a, SourceSpec::dc(1e-3));
  c.add_capacitor("C1", a, c.gnd(), 1e-15);
  DcOptions opt;
  opt.gmin = 0.0;
  const DcResult dc = dc_operating_point(c, opt);
  // Either it fails outright or the gmin path keeps it solvable; both are
  // acceptable, but a "converged" result must be finite.
  if (dc.converged) {
    EXPECT_TRUE(std::isfinite(dc.v(c, a)));
  }
}

}  // namespace
}  // namespace pgmcml::spice
