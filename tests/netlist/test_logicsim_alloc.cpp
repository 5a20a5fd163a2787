// Heap-allocation budget of one reduced-AES memo fill: copy the settled
// precharge simulator, apply the plaintext, settle.  Evaluation packs the
// cell inputs into a word and reads the compiled per-instance table, so
// the only allocations left are the copy's own buffers and the geometric
// growth of its event list and queue -- far fewer than one per evaluation.
//
// Allocations are counted by replacing the global operator new / delete in
// this translation unit (the replacement is program-wide; it counts only
// while the calling thread has counting switched on).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"

namespace {

thread_local bool t_counting = false;
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  if (t_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pgmcml::netlist {
namespace {

using cells::CellLibrary;

/// Allocations made by the calling thread while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  t_counting = true;
  fn();
  t_counting = false;
  return g_allocations.load() - before;
}

TEST(LogicSimAllocation, MemoFillAllocatesFarLessThanOncePerEvaluation) {
  const std::uint8_t key = 0x2b;
  for (const CellLibrary& lib : {CellLibrary::cmos90(), CellLibrary::mcml90(),
                                 CellLibrary::pgmcml90()}) {
    const synth::MapResult mapped = core::map_reduced_aes(lib);
    const Design& d = mapped.design;
    const std::vector<NetId> p = d.input_bus("p", 8);
    const std::vector<NetId> k = d.input_bus("k", 8);
    std::vector<std::pair<NetId, bool>> init;
    for (const NetId n : d.inputs()) init.emplace_back(n, false);
    for (int b = 0; b < 8; ++b) init.emplace_back(k[b], (key >> b) & 1);
    LogicSim precharged(d, &lib);
    precharged.apply_and_settle(init);
    precharged.clear_events();
    precharged.run_until(0.5e-9);

    for (const int plaintext : {0x01, 0x3c, 0xa5, 0xff}) {
      std::vector<std::pair<NetId, bool>> stimulus;
      for (int b = 0; b < 8; ++b) {
        stimulus.emplace_back(p[b], (plaintext >> b) & 1);
      }
      std::uint64_t evaluations = 0;
      std::size_t events = 0;
      const std::size_t allocations = allocations_during([&] {
        LogicSim sim = precharged;
        sim.apply_and_settle(stimulus);
        evaluations = sim.evaluations() - precharged.evaluations();
        events = sim.events().size();
      });
      const std::string where =
          lib.name() + " plaintext " + std::to_string(plaintext);
      ASSERT_GT(events, 0u) << where;
      // The copy's own buffers at least: proof the counter is live.
      EXPECT_GT(allocations, 0u) << where;
      EXPECT_LT(allocations, evaluations / 10)
          << where << ": " << allocations << " allocations for "
          << evaluations << " evaluations, " << events << " events";
    }
  }
}

}  // namespace
}  // namespace pgmcml::netlist
