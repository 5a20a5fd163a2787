#include "pgmcml/synth/module.hpp"

#include <gtest/gtest.h>

namespace pgmcml::synth {
namespace {

TEST(Module, ConstantFolding) {
  Module m;
  const Lit a = m.input("a");
  EXPECT_EQ(m.land(a, kLitFalse), kLitFalse);
  EXPECT_EQ(m.land(a, kLitTrue), a);
  EXPECT_EQ(m.land(a, a), a);
  EXPECT_EQ(m.land(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(m.lxor(a, kLitFalse), a);
  EXPECT_EQ(m.lxor(a, a), kLitFalse);
  EXPECT_EQ(m.lxor(a, kLitTrue), lit_not(a));
  EXPECT_GT(m.folded(), 0u);
}

TEST(Module, StructuralHashingDeduplicates) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const std::size_t before = m.num_nodes();
  const Lit x1 = m.land(a, b);
  const Lit x2 = m.land(b, a);  // commuted
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(m.num_nodes(), before + 1);
}

TEST(Module, XorComplementNormalization) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit x = m.lxor(a, b);
  EXPECT_EQ(m.lxor(lit_not(a), b), lit_not(x));
  EXPECT_EQ(m.lxor(lit_not(a), lit_not(b)), x);
}

TEST(Module, MuxIdentities) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit s = m.input("s");
  EXPECT_EQ(m.lmux(kLitFalse, a, b), a);
  EXPECT_EQ(m.lmux(kLitTrue, a, b), b);
  EXPECT_EQ(m.lmux(s, a, a), a);
  EXPECT_EQ(m.lmux(s, kLitFalse, kLitTrue), s);
  // Complemented select swaps the legs.
  EXPECT_EQ(m.lmux(lit_not(s), a, b), m.lmux(s, b, a));
}

TEST(Module, MajIdentities) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  EXPECT_EQ(m.lmaj(a, a, b), a);
  EXPECT_EQ(m.lmaj(a, lit_not(a), b), b);
}

TEST(Module, EvaluateCombinational) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit c = m.input("c");
  m.output("and", m.land(a, b));
  m.output("xor3", m.lxor(m.lxor(a, b), c));
  m.output("maj", m.lmaj(a, b, c));
  m.output("mux", m.lmux(a, b, c));
  for (unsigned p = 0; p < 8; ++p) {
    const bool va = p & 1, vb = p & 2, vc = p & 4;
    const auto out = m.evaluate({va, vb, vc});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], va && vb) << p;
    EXPECT_EQ(out[1], va != vb ? !vc : vc) << p;
    EXPECT_EQ(out[2], (int(va) + int(vb) + int(vc)) >= 2) << p;
    EXPECT_EQ(out[3], va ? vc : vb) << p;
  }
}

TEST(Module, EvaluateSequential) {
  // q' = d on each tick; output reads q.
  Module m;
  const Lit d = m.input("d");
  const Lit q = m.dff(d);
  m.output("q", q);
  std::vector<bool> state;
  auto out = m.evaluate({true}, true, &state);
  EXPECT_FALSE(out[0]);  // reads pre-tick state
  out = m.evaluate({false}, true, &state);
  EXPECT_TRUE(out[0]);  // captured the 1
  out = m.evaluate({false}, false, &state);
  EXPECT_FALSE(out[0]);  // captured the 0
}

TEST(Module, DffResetAndEnableSemantics) {
  Module m;
  const Lit d = m.input("d");
  const Lit rst = m.input("rst");
  const Lit en = m.input("en");
  m.output("qr", m.dff_reset(d, rst));
  m.output("qe", m.dff_enable(d, en));
  std::vector<bool> state;
  // Load ones.
  m.evaluate({true, false, true}, true, &state);
  auto out = m.evaluate({true, true, false}, true, &state);
  EXPECT_TRUE(out[0]);
  EXPECT_TRUE(out[1]);
  // After that tick: reset flop cleared, enable flop held.
  out = m.evaluate({false, false, false}, false, &state);
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);
}

TEST(Module, BusHelpers) {
  Module m;
  const auto a = m.input_bus("a", 4);
  const auto b = m.input_bus("b", 4);
  m.output_bus("x", bus_xor(m, a, b));
  const auto out = m.evaluate({true, false, true, false,   // a = 0b0101
                               true, true, false, false}); // b = 0b0011
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], false);  // 1^1
  EXPECT_EQ(out[1], true);   // 0^1
  EXPECT_EQ(out[2], true);   // 1^0
  EXPECT_EQ(out[3], false);  // 0^0
}

TEST(Module, EvaluateRejectsWrongInputCount) {
  Module m;
  m.input("a");
  EXPECT_THROW(m.evaluate({}), std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::synth
