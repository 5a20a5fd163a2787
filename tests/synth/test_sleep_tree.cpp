#include "pgmcml/synth/sleep_tree.hpp"

#include <gtest/gtest.h>

#include "pgmcml/core/sbox_unit.hpp"

namespace pgmcml::synth {
namespace {

using cells::CellLibrary;
using mcml::CellKind;
using netlist::Design;
using netlist::kNoNet;
using netlist::NetId;

Design chain_of_buffers(int n) {
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

TEST(SleepTree, EmptyForNonGatedLibraries) {
  const Design d = chain_of_buffers(100);
  const auto cmos = insert_sleep_tree(d, CellLibrary::cmos90());
  const auto mcml_t = insert_sleep_tree(d, CellLibrary::mcml90());
  EXPECT_EQ(cmos.buffers, 0u);
  EXPECT_EQ(mcml_t.buffers, 0u);
  EXPECT_EQ(cmos.gated_cells, 0u);
}

TEST(SleepTree, SmallBlockNeedsOneBuffer) {
  const Design d = chain_of_buffers(10);  // 10 buffers x 1 stage = 10 pins
  const auto tree = insert_sleep_tree(d, CellLibrary::pgmcml90());
  EXPECT_EQ(tree.gated_cells, 10u);
  EXPECT_EQ(tree.buffers, 1u);
  EXPECT_EQ(tree.levels, 1u);
  EXPECT_GT(tree.insertion_delay, 0.0);
  EXPECT_GT(tree.buffer_area, 0.0);
}

TEST(SleepTree, FanoutBoundRespected) {
  SleepTreeOptions opt;
  opt.max_fanout = 8;
  const Design d = chain_of_buffers(100);  // 100 pins
  const auto tree = insert_sleep_tree(d, CellLibrary::pgmcml90(), opt);
  // 100 pins / 8 = 13 leaf buffers, 13/8 = 2, 2/8 = 1 root.
  ASSERT_EQ(tree.level_sizes.size(), 3u);
  EXPECT_EQ(tree.level_sizes[2], 13u);
  EXPECT_EQ(tree.level_sizes[1], 2u);
  EXPECT_EQ(tree.level_sizes[0], 1u);
  EXPECT_EQ(tree.buffers, 16u);
}

TEST(SleepTree, InsertionDelayGrowsWithBlockSize) {
  const auto small =
      insert_sleep_tree(chain_of_buffers(10), CellLibrary::pgmcml90());
  const auto large =
      insert_sleep_tree(chain_of_buffers(2000), CellLibrary::pgmcml90());
  EXPECT_GT(large.levels, small.levels);
  EXPECT_GT(large.insertion_delay, small.insertion_delay);
  EXPECT_GT(large.buffers, small.buffers);
}

TEST(SleepTree, MultiStageCellsCountMorePins) {
  // A design of FA cells (4 stages each) needs more leaf buffers than the
  // same number of single-stage buffers.
  Design d("fa");
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const NetId c = d.add_net("c");
  d.mark_input(a, "a");
  d.mark_input(b, "b");
  d.mark_input(c, "c");
  for (int i = 0; i < 30; ++i) {
    const NetId s = d.add_net("s");
    const NetId co = d.add_net("co");
    d.add_instance({"fa" + std::to_string(i), CellKind::kFullAdder, {a, b, c},
                    kNoNet, kNoNet, {s, co}});
  }
  SleepTreeOptions opt;
  opt.max_fanout = 16;
  const auto fa_tree = insert_sleep_tree(d, CellLibrary::pgmcml90(), opt);
  const auto buf_tree =
      insert_sleep_tree(chain_of_buffers(30), CellLibrary::pgmcml90(), opt);
  // 30 FAs x 4 stages = 120 pins -> 8 leaves; 30 buffers -> 2 leaves.
  EXPECT_GT(fa_tree.buffers, buf_tree.buffers);
}

TEST(SleepTree, SboxIseScaleMatchesPaperOverhead) {
  // The paper's PG-MCML S-box ISE has ~165 more cells than the MCML one
  // (3076 vs 2911, ~5.7 %).  Our tree on the mapped unit should land in the
  // same relative band (a few percent of the logic cells).
  const auto lib = CellLibrary::pgmcml90();
  const auto mapped = core::map_sbox_ise(lib);
  const auto tree = insert_sleep_tree(mapped.design, lib);
  const double rel =
      static_cast<double>(tree.buffers) /
      static_cast<double>(mapped.design.num_instances());
  EXPECT_GT(tree.buffers, 10u);
  EXPECT_GT(rel, 0.01);
  EXPECT_LT(rel, 0.15);
  // Insertion delay in the paper's "approximately 1 ns" class.
  EXPECT_GT(tree.insertion_delay, 50e-12);
  EXPECT_LT(tree.insertion_delay, 2e-9);
}

TEST(SleepTree, SkewBoundedByLeafLoadSpread) {
  SleepTreeOptions opt;
  opt.max_fanout = 10;
  opt.load_delay_per_pin = 2e-12;
  const auto tree =
      insert_sleep_tree(chain_of_buffers(95), CellLibrary::pgmcml90(), opt);
  // Full leaf drives 10 pins, the last one 5: skew = 5 x 2 ps.
  EXPECT_NEAR(tree.skew, 10e-12, 1e-13);
}

}  // namespace
}  // namespace pgmcml::synth
