#include <gtest/gtest.h>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/or1k/aes_program.hpp"
#include "pgmcml/or1k/cpu.hpp"
#include "pgmcml/or1k/isa.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::or1k {
namespace {

TEST(Assembler, ResolvesForwardAndBackwardLabels) {
  Assembler a;
  a.addi(1, 0, 3);       // r1 = 3
  a.label("loop");
  a.addi(1, 1, -1);      // r1--
  a.bne(1, 0, "loop");   // backward
  a.addi(3, 0, 1);       // r3 = 1
  a.bltu(0, 3, "end");   // forward, taken
  a.addi(2, 0, 99);      // skipped
  a.label("end");
  a.halt();
  const auto prog = a.build();
  Cpu cpu(prog);
  EXPECT_TRUE(cpu.run(1000));
  EXPECT_EQ(cpu.reg(1), 0u);
  EXPECT_EQ(cpu.reg(2), 0u);
}

TEST(Assembler, UndefinedLabelThrows) {
  Assembler a;
  a.bne(0, 0, "nowhere");
  EXPECT_THROW(a.build(), std::invalid_argument);
}

TEST(Assembler, DuplicateLabelThrows) {
  Assembler a;
  a.label("x");
  EXPECT_THROW(a.label("x"), std::invalid_argument);
}

TEST(Cpu, AluOperations) {
  Assembler a;
  a.addi(1, 0, 7);
  a.addi(2, 0, 12);
  a.add(3, 1, 2);    // 19
  a.and_(5, 1, 2);   // 4
  a.or_(6, 1, 2);    // 15
  a.xor_(7, 1, 2);   // 11
  a.slli(8, 1, 4);   // 112
  a.srli(9, 2, 2);   // 3
  a.movhi(10, 0x1234);
  a.ori(10, 10, 0x5678);
  a.halt();
  Cpu cpu(a.build());
  EXPECT_TRUE(cpu.run());
  EXPECT_EQ(cpu.reg(3), 19u);
  EXPECT_EQ(cpu.reg(5), 4u);
  EXPECT_EQ(cpu.reg(6), 15u);
  EXPECT_EQ(cpu.reg(7), 11u);
  EXPECT_EQ(cpu.reg(8), 112u);
  EXPECT_EQ(cpu.reg(9), 3u);
  EXPECT_EQ(cpu.reg(10), 0x12345678u);
}

TEST(Cpu, RegisterZeroIsHardwired) {
  Assembler a;
  a.addi(0, 0, 42);
  a.halt();
  Cpu cpu(a.build());
  cpu.run();
  EXPECT_EQ(cpu.reg(0), 0u);
}

TEST(Cpu, MemoryWordAndByteAccess) {
  Assembler a;
  a.load_imm32(1, 0x80);
  a.load_imm32(2, 0xdeadbeef);
  a.sw(1, 0, 2);
  a.lw(3, 1, 0);
  a.lbz(4, 1, 0);   // little-endian low byte
  a.lbz(5, 1, 3);
  a.halt();
  Cpu cpu(a.build());
  EXPECT_TRUE(cpu.run());
  EXPECT_EQ(cpu.reg(3), 0xdeadbeefu);
  EXPECT_EQ(cpu.reg(4), 0xefu);
  EXPECT_EQ(cpu.reg(5), 0xdeu);
}

TEST(Cpu, OutOfBoundsMemoryThrows) {
  Assembler a;
  a.load_imm32(1, 0xffff0);
  a.lw(2, 1, 0x100);
  a.halt();
  Cpu cpu(a.build(), 1 << 16);
  EXPECT_THROW(cpu.run(), std::out_of_range);
}

TEST(Cpu, SboxInstructionAndTracking) {
  Assembler a;
  a.load_imm32(1, 0x00531000 | 0xff);
  a.sbox(2, 1);
  a.halt();
  Cpu cpu(a.build());
  EXPECT_TRUE(cpu.run());
  EXPECT_EQ(cpu.reg(2), aes::sbox_ise(0x005310ffu));
  ASSERT_EQ(cpu.ise_cycles().size(), 1u);
  ASSERT_EQ(cpu.ise_operands().size(), 1u);
  EXPECT_EQ(cpu.ise_operands()[0], 0x005310ffu);
  EXPECT_GT(cpu.ise_duty(), 0.0);
}

TEST(Cpu, CycleBudgetStopsRunaway) {
  Assembler a;
  a.addi(1, 0, 1);
  a.label("spin");
  a.bne(1, 0, "spin");
  Cpu cpu(a.build());
  EXPECT_FALSE(cpu.run(100));
  EXPECT_EQ(cpu.cycles(), 100u);
}

TEST(AesProgram, IseVariantMatchesReferenceAes) {
  util::Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    aes::Key key;
    aes::Block pt;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.bounded(256));
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.bounded(256));
    const AesRun run = run_aes_program(key, pt, {true, 1, 0});
    EXPECT_TRUE(run.halted);
    EXPECT_EQ(run.ciphertext, aes::encrypt(pt, key)) << "trial " << trial;
  }
}

TEST(AesProgram, SoftwareVariantMatchesReferenceAes) {
  util::Rng rng(22);
  aes::Key key;
  aes::Block pt;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.bounded(256));
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.bounded(256));
  const AesRun run = run_aes_program(key, pt, {false, 1, 0});
  EXPECT_TRUE(run.halted);
  EXPECT_EQ(run.ciphertext, aes::encrypt(pt, key));
}

TEST(AesProgram, IseCountsFortyPerBlock) {
  // 4 S-box words x 10 rounds.
  const AesRun run = run_aes_program({}, {}, {true, 1, 0});
  EXPECT_EQ(run.ise_executions, 40u);
  const AesRun run3 = run_aes_program({}, {}, {true, 3, 0});
  EXPECT_EQ(run3.ise_executions, 120u);
  EXPECT_EQ(run3.ise_operand_words.size(), 120u);
}

TEST(AesProgram, IseVariantFasterThanSoftware) {
  const AesRun ise = run_aes_program({}, {}, {true, 1, 0});
  const AesRun sw = run_aes_program({}, {}, {false, 1, 0});
  EXPECT_LT(ise.cycles, sw.cycles);
  EXPECT_EQ(sw.ise_executions, 0u);
}

TEST(AesProgram, IdleSpinDilutesDuty) {
  const AesRun tight = run_aes_program({}, {}, {true, 2, 0});
  AesProgramOptions diluted_opts;
  diluted_opts.blocks = 2;
  diluted_opts.idle_spin = 100000;
  const AesRun diluted = run_aes_program({}, {}, diluted_opts);
  EXPECT_EQ(diluted.ise_executions, tight.ise_executions);
  EXPECT_LT(diluted.ise_duty, tight.ise_duty / 20.0);
  // With this spin the duty lands in the paper's order of magnitude (~0.01%).
  EXPECT_LT(diluted.ise_duty, 5e-4);
}

TEST(AesProgram, OperandWordsMatchRoundStates) {
  // First four ISE operands are the round-1 SubBytes inputs: state after
  // the initial AddRoundKey.
  aes::Key key{};
  aes::Block pt{};
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<std::uint8_t>(3 * i + 1);
    pt[i] = static_cast<std::uint8_t>(7 * i + 2);
  }
  const AesRun run = run_aes_program(key, pt, {true, 1, 0});
  const aes::KeySchedule ks = aes::expand_key(key);
  aes::Block state = pt;
  aes::add_round_key(state, ks.round_keys[0]);
  ASSERT_GE(run.ise_operand_words.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    const std::uint32_t expected =
        static_cast<std::uint32_t>(state[4 * c]) |
        (static_cast<std::uint32_t>(state[4 * c + 1]) << 8) |
        (static_cast<std::uint32_t>(state[4 * c + 2]) << 16) |
        (static_cast<std::uint32_t>(state[4 * c + 3]) << 24);
    EXPECT_EQ(run.ise_operand_words[c], expected) << "column " << c;
  }
}

}  // namespace
}  // namespace pgmcml::or1k
