// Structure-aware mutation test of load_checkpoint: the campaign's parser of
// bytes it reads back from disk.  A real PGC3 body is mutated -- seeded bit
// flips, truncations, and length fields inflated past the stream -- and
// re-stamped with a valid checksum, so that every input reaches the parser
// instead of stopping at the checksum.  Every input must either load a
// valid state or miss: no exception escapes, nothing crashes (the suite runs
// under ASan+UBSan, label `asan`), and no length field makes the loader
// allocate more than the input holds.
//
// The budget is fixed: kInputs inputs or kBudget of wall time, whichever
// comes first, so that a sanitizer build stays within 2 s.  The inputs are
// one seeded sequence, so a failure names the input that reproduces it.
//
// Allocation sizes are watched by replacing the global operator new in
// this translation unit (the replacement is program-wide; it records only
// while the calling thread has watching switched on).
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pgmcml/cache/key.hpp"
#include "pgmcml/campaign/checkpoint.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/rng.hpp"

namespace {

thread_local bool t_watching = false;
thread_local std::size_t t_largest = 0;

void* watched_malloc(std::size_t size) noexcept {
  if (t_watching && size > t_largest) t_largest = size;
  return std::malloc(size == 0 ? 1 : size);
}

void* watched_new(std::size_t size) {
  if (void* p = watched_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return watched_new(size); }
void* operator new[](std::size_t size) { return watched_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return watched_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return watched_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pgmcml::campaign {
namespace {

constexpr std::size_t kSamples = 16;
constexpr std::uint64_t kDigest = 0x5eed;
constexpr std::size_t kInputs = 3000;
constexpr std::chrono::milliseconds kBudget{1500};
/// Allocations up to this size need no backing: the 256 bin objects of a
/// statistic, JSON nodes, paths.  Anything larger must fit in the input.
constexpr std::size_t kSmallAllocation = 64 * 1024;
/// Offsets of the scalar header fields (after the tag and config digest).
constexpr std::size_t kShardAt = 12;
constexpr std::size_t kHeaderBytes = 56;

std::string read_file(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::uint64_t u64_at(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// A state with something in every section: traces in several bins, a
/// fixed class, static holds and a diagnostics incident.
WorkerCheckpoint sample_state() {
  WorkerCheckpoint state(kSamples);
  state.shard = 2;
  state.phase = kPhaseStatic;
  state.range_lo = 48;
  state.range_hi = 72;
  state.next_index = 60;
  state.checkpoints_written = 4;
  util::Rng rng(7);
  std::vector<std::vector<double>> traces(40, std::vector<double>(kSamples));
  sca::TraceBatch batch;  // views of `traces`
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (double& x : traces[t]) x = rng.gaussian();
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    state.bins.add(p, traces[t]);
    if (t % 3 == 0) state.fixed.add(traces[t]);
    batch.add(p, traces[t]);
  }
  sca::add_window_means(state.windows, sca::kStaticWindows, kSamples, batch);
  state.diagnostics.record_attempt();
  state.diagnostics.record_retry("trace:51", "synthetic");
  state.diagnostics.record_recovery("trace:51");
  return state;
}

/// Offsets of every length field of a PGC3 body: the diagnostics length,
/// each statistic's sample count and each row's length.
std::vector<std::size_t> length_fields(std::string_view body) {
  std::vector<std::size_t> out;
  sca::SnapshotReader r(body);
  const auto at = [&] { return body.size() - r.remaining(); };
  r.expect_tag("PGC3");
  for (int i = 0; i < 7; ++i) (i == 2 ? (void)r.u32() : (void)r.u64());
  out.push_back(at());
  r.bytes();
  const auto rows = [&] {
    r.u64();  // the count
    for (int row = 0; row < 2; ++row) {
      out.push_back(at());
      r.f64_vector();
    }
  };
  const auto binned = [&] {
    r.expect_tag("BMS1");
    out.push_back(at());
    r.u64();
    for (int p = 0; p < 256; ++p) rows();
  };
  binned();
  rows();
  binned();
  EXPECT_TRUE(r.exhausted());
  return out;
}

/// One mutation of `body`, drawn from `rng`: bit flips anywhere, a bit
/// flip in the header scalars (rare among flips anywhere), a truncation,
/// or an inflated length field.
std::string mutate(std::string body, const std::vector<std::size_t>& fields,
                   util::Rng& rng) {
  switch (rng.bounded(4)) {
    case 3:
      body[rng.bounded(kHeaderBytes)] ^=
          static_cast<char>(1u << rng.bounded(8));
      break;
    case 0: {
      const std::uint64_t flips = 1 + rng.bounded(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        body[rng.bounded(body.size())] ^=
            static_cast<char>(1u << rng.bounded(8));
      }
      break;
    }
    case 1:
      body.resize(rng.bounded(body.size()));
      break;
    default: {
      const std::size_t at = fields[rng.bounded(fields.size())];
      const std::uint64_t was = u64_at(body, at);
      const std::uint64_t inflated[] = {~std::uint64_t{0},
                                        std::uint64_t{1} << 63,
                                        body.size(),
                                        body.size() / sizeof(double),
                                        was + 1,
                                        2 * was + 1};
      put_u64(body, at, inflated[rng.bounded(std::size(inflated))]);
      break;
    }
  }
  return body;
}

/// `body` with a valid PGC3 checksum trailer.
std::string stamped(std::string body) {
  const cache::CacheKey sum = cache::digest_bytes(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&sum.hi), sizeof(sum.hi));
  body.append(reinterpret_cast<const char*>(&sum.lo), sizeof(sum.lo));
  return body;
}

/// The statistics of `state` as save() writes them.
std::string statistics_of(const WorkerCheckpoint& state) {
  sca::SnapshotWriter w;
  state.bins.save(w);
  state.fixed.save(w);
  state.windows.save(w);
  return w.take();
}

TEST(CheckpointFuzz, MutatedBodiesLoadAValidStateOrMiss) {
  const std::string spool =
      (std::filesystem::temp_directory_path() /
       ("pgmcml-checkpoint-fuzz-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(spool);
  std::filesystem::create_directories(spool);
  const std::string path = spool + "/shard-2.ckpt";

  ASSERT_TRUE(save_checkpoint(path, sample_state(), kDigest));
  std::string body = read_file(path);
  ASSERT_GT(body.size(), 16u);
  body.resize(body.size() - 16);
  const std::vector<std::size_t> fields = length_fields(body);
  ASSERT_EQ(fields.size(), 1 + (1 + 2 * 256) + 2 + (1 + 2 * 256));

  util::Rng rng(0xf022);
  std::size_t inputs = 0;
  std::size_t loads = 0;
  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  while (inputs < kInputs && std::chrono::steady_clock::now() < deadline) {
    const std::string mutated = mutate(body, fields, rng);
    const std::string file = stamped(mutated);
    write_file(path, file);
    ++inputs;

    std::optional<WorkerCheckpoint> loaded;
    bool threw = false;
    t_largest = 0;
    t_watching = true;
    try {
      loaded = load_checkpoint(path, kSamples, kDigest);
    } catch (...) {
      threw = true;
    }
    t_watching = false;
    ASSERT_FALSE(threw) << "input " << inputs << " threw";
    ASSERT_LE(t_largest, std::max(file.size(), kSmallAllocation))
        << "input " << inputs << " allocated past its bytes";
    if (!loaded) continue;

    // A valid state, and exactly the one the bytes spell: the header
    // scalars read back, and the statistics are the body's tail.
    ++loads;
    const WorkerCheckpoint& s = *loaded;
    ASSERT_LE(s.phase, kPhaseDone) << "input " << inputs;
    ASSERT_LE(s.range_lo, s.next_index) << "input " << inputs;
    ASSERT_LE(s.next_index, s.range_hi) << "input " << inputs;
    ASSERT_EQ(s.bins.samples_per_trace(), kSamples) << "input " << inputs;
    ASSERT_EQ(s.fixed.mean.size(), kSamples) << "input " << inputs;
    ASSERT_EQ(s.fixed.m2.size(), kSamples) << "input " << inputs;
    ASSERT_EQ(s.windows.samples_per_trace(), sca::kStaticWindows.size())
        << "input " << inputs;
    ASSERT_GE(mutated.size(), kHeaderBytes);
    EXPECT_EQ(s.shard, u64_at(mutated, kShardAt)) << "input " << inputs;
    EXPECT_EQ(s.next_index, u64_at(mutated, kShardAt + 28))
        << "input " << inputs;
    EXPECT_EQ(s.checkpoints_written, u64_at(mutated, kShardAt + 36))
        << "input " << inputs;
    EXPECT_TRUE(std::string_view(mutated).ends_with(statistics_of(s)))
        << "input " << inputs;
  }
  // Both outcomes occur: flips inside the rows load, framing damage misses.
  EXPECT_GT(loads, 0u);
  EXPECT_LT(loads, inputs);
  std::printf("checkpoint fuzz: %zu inputs, %zu loaded, %zu missed\n", inputs,
              loads, inputs - loads);
  std::filesystem::remove_all(spool);
}

}  // namespace
}  // namespace pgmcml::campaign
