#include "pgmcml/aes/aes.hpp"

#include <gtest/gtest.h>

namespace pgmcml::aes {
namespace {

TEST(Aes, SboxKnownValues) {
  // Published FIPS-197 values.
  EXPECT_EQ(sbox()[0x00], 0x63);
  EXPECT_EQ(sbox()[0x01], 0x7c);
  EXPECT_EQ(sbox()[0x53], 0xed);
  EXPECT_EQ(sbox()[0xff], 0x16);
  EXPECT_EQ(sbox()[0x10], 0xca);
}

TEST(Aes, SboxIsBijective) {
  std::array<int, 256> seen{};
  for (int i = 0; i < 256; ++i) ++seen[sbox()[i]];
  for (int i = 0; i < 256; ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(Aes, GfMulProperties) {
  EXPECT_EQ(gf_mul(0x57, 0x83), 0xc1);  // FIPS-197 example
  EXPECT_EQ(gf_mul(0x57, 0x13), 0xfe);
  for (int a = 1; a < 256; a += 17) {
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Aes, XtimeMatchesGfMulByTwo) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(xtime(static_cast<std::uint8_t>(a)),
              gf_mul(static_cast<std::uint8_t>(a), 2));
  }
}

TEST(Aes, Fips197AppendixBVector) {
  // FIPS-197 Appendix B: the worked example.
  const Block pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                    0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                   0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const Block expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                          0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  EXPECT_EQ(encrypt(pt, key), expected);
}

TEST(Aes, Fips197AppendixCVector) {
  // FIPS-197 Appendix C.1: AES-128 with sequential plaintext/key.
  Block pt;
  Key key;
  for (int i = 0; i < 16; ++i) {
    pt[i] = static_cast<std::uint8_t>(i * 0x11);
    key[i] = static_cast<std::uint8_t>(i);
  }
  const Block expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                          0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(encrypt(pt, key), expected);
}

TEST(Aes, KeyScheduleFirstAndLastRoundKeys) {
  const Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                   0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const KeySchedule ks = expand_key(key);
  // Round 0 key is the cipher key itself.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ks.round_keys[0][i], key[i]);
  // FIPS-197 Appendix A.1: w[40..43] = round-10 key head.
  EXPECT_EQ(ks.round_keys[10][0], 0xd0);
  EXPECT_EQ(ks.round_keys[10][1], 0x14);
  EXPECT_EQ(ks.round_keys[10][2], 0xf9);
  EXPECT_EQ(ks.round_keys[10][3], 0xa8);
}

TEST(Aes, ReducedTargetMatchesDefinition) {
  EXPECT_EQ(reduced_target(0x00, 0x00), sbox()[0x00]);
  EXPECT_EQ(reduced_target(0x53, 0xca), sbox()[0x53 ^ 0xca]);
  for (int p = 0; p < 256; p += 51) {
    for (int k = 0; k < 256; k += 37) {
      EXPECT_EQ(reduced_target(static_cast<std::uint8_t>(p),
                               static_cast<std::uint8_t>(k)),
                sbox()[p ^ k]);
    }
  }
}

TEST(Aes, SboxIseSubstitutesAllFourLanes) {
  const std::uint32_t word = 0x00'53'10'ffu;
  const std::uint32_t expected =
      (static_cast<std::uint32_t>(sbox()[0x00]) << 24) |
      (static_cast<std::uint32_t>(sbox()[0x53]) << 16) |
      (static_cast<std::uint32_t>(sbox()[0x10]) << 8) |
      sbox()[0xff];
  EXPECT_EQ(sbox_ise(word), expected);
}

}  // namespace
}  // namespace pgmcml::aes
