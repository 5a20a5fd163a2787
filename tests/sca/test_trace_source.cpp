// The streaming boundary: TraceSetSource (the zero-copy prefix view) and the
// binary trace-file writer/reader round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/trace_file.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::sca {
namespace {

TraceSet make_traces(std::size_t n, std::size_t samples,
                     std::uint64_t seed = 11) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  return ts;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(TraceSetSource, YieldsAllTracesInOrder) {
  const TraceSet ts = make_traces(20, 6);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 7);
  EXPECT_EQ(source.samples_per_trace(), 6u);
  EXPECT_EQ(source.size_hint(), 20u);

  TraceBatch batch;
  std::size_t seen = 0;
  while (source.next(batch)) {
    ASSERT_LE(batch.size(), 7u);
    for (std::size_t i = 0; i < batch.size(); ++i, ++seen) {
      EXPECT_EQ(batch.plaintexts[i], ts.plaintext(seen));
      // Zero-copy: the view aliases the TraceSet's own storage.
      EXPECT_EQ(batch.traces[i].data(), ts.trace(seen).data());
    }
  }
  EXPECT_EQ(seen, 20u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(source.next(batch));  // stays exhausted
}

/// CPA over one pass of `source` into the per-plaintext statistic.
CpaResult cpa_of(TraceSource& source) {
  BinnedMoments stat(source.samples_per_trace());
  TraceBatch batch;
  while (source.next(batch)) stat.add_batch(batch);
  return BinSpectrum(stat).cpa(LeakageModel::kHammingWeight);
}

TEST(TraceSetSource, LimitIsAPrefixViewWithoutCopying) {
  const TraceSet ts = make_traces(50, 8);
  TraceSetSource limited(ts, 12);
  EXPECT_EQ(limited.size_hint(), 12u);

  // The streamed attack over the limited view is bitwise the attack over the
  // deep-copied prefix (which is what TraceSet::prefix used to feed).
  const CpaResult via_view = cpa_of(limited);
  const TraceSet head = ts.prefix(12);
  TraceSetSource copy(head);
  const CpaResult via_copy = cpa_of(copy);
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(via_view.peak_correlation[k], via_copy.peak_correlation[k]);
  }

  // A limit beyond the set clamps to the set.
  TraceSetSource beyond(ts, 99);
  EXPECT_EQ(beyond.size_hint(), 50u);
}

TEST(TraceSetSource, ResetReplaysIdentically) {
  const TraceSet ts = make_traces(15, 4);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 4);
  TraceBatch batch;
  std::vector<std::uint8_t> first_pass;
  while (source.next(batch)) {
    for (auto p : batch.plaintexts) first_pass.push_back(p);
  }
  source.reset();
  std::vector<std::uint8_t> second_pass;
  while (source.next(batch)) {
    for (auto p : batch.plaintexts) second_pass.push_back(p);
  }
  EXPECT_EQ(first_pass, second_pass);
}

TEST(TraceSetSource, ZeroBatchSizeThrows) {
  const TraceSet ts = make_traces(3, 4);
  EXPECT_THROW(TraceSetSource(ts, TraceSetSource::kNoLimit, 0),
               std::invalid_argument);
}

TEST(TraceFile, RoundTripIsBitwise) {
  const TraceSet ts = make_traces(37, 9);
  const std::string path = temp_path("roundtrip.pgtr");

  TraceSetSource source(ts, TraceSetSource::kNoLimit, 10);
  EXPECT_EQ(write_trace_file(path, source), 37u);

  const TraceSet back = read_trace_file(path);
  ASSERT_EQ(back.num_traces(), 37u);
  ASSERT_EQ(back.samples_per_trace(), 9u);
  for (std::size_t i = 0; i < 37; ++i) {
    EXPECT_EQ(back.plaintext(i), ts.plaintext(i));
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(back.trace(i)[j], ts.trace(i)[j]);  // bitwise
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFile, ReaderStreamsAndRewinds) {
  const TraceSet ts = make_traces(64, 12, 23);
  const std::string path = temp_path("streams.pgtr");
  TraceSetSource source(ts);
  write_trace_file(path, source);

  TraceFileReader reader(path, /*batch_size=*/9);
  EXPECT_EQ(reader.samples_per_trace(), 12u);
  EXPECT_EQ(reader.size_hint(), 64u);

  // Attacking the file replay equals attacking the in-memory set, bitwise
  // (same stream, and batching is irrelevant to the accumulator).
  const CpaResult from_file = cpa_of(reader);
  TraceSetSource memory(ts);
  const CpaResult from_memory = cpa_of(memory);
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(from_file.peak_correlation[k], from_memory.peak_correlation[k]);
  }

  // reset() supports a second pass (second-order CPA needs it).
  reader.reset();
  std::size_t replayed = 0;
  TraceBatch batch;
  while (reader.next(batch)) replayed += batch.size();
  EXPECT_EQ(replayed, 64u);
  std::remove(path.c_str());
}

TEST(TraceFile, WriterBackPatchesCountOnClose) {
  const std::string path = temp_path("patched.pgtr");
  {
    TraceFileWriter writer(path, 3);
    const std::vector<double> row{1.0, 2.0, 3.0};
    writer.write(0xaa, row);
    writer.write(0xbb, row);
    EXPECT_EQ(writer.traces_written(), 2u);
    writer.close();
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.size_hint(), 2u);
  std::remove(path.c_str());
}

TEST(TraceFile, RejectsCorruptInputs) {
  // Missing file.
  EXPECT_THROW(TraceFileReader(temp_path("does-not-exist.pgtr")),
               std::runtime_error);

  // Bad magic (file is at least one full header long, so it is NOT the
  // crash-before-first-flush case below -- it must still be rejected).
  const std::string bad_magic = temp_path("bad-magic.pgtr");
  {
    std::FILE* f = std::fopen(bad_magic.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE---header-goes-here", f);
    std::fclose(f);
  }
  EXPECT_THROW(TraceFileReader{bad_magic}, std::runtime_error);
  std::remove(bad_magic.c_str());

  // Truncated payload: header claims more traces than the file holds.
  const std::string truncated = temp_path("truncated.pgtr");
  {
    TraceFileWriter writer(truncated, 4);
    writer.write(0x01, std::vector<double>(4, 1.0));
    writer.write(0x02, std::vector<double>(4, 2.0));
    writer.close();
  }
  {
    // Chop off the last record's tail.
    std::FILE* f = std::fopen(truncated.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(truncated.c_str(), size - 8), 0);
  }
  EXPECT_THROW(TraceFileReader{truncated}, std::runtime_error);
  std::remove(truncated.c_str());

  // Ragged write is rejected before touching the file.
  const std::string ragged = temp_path("ragged.pgtr");
  TraceFileWriter writer(ragged, 5);
  EXPECT_THROW(writer.write(0x00, std::vector<double>(4, 0.0)),
               std::invalid_argument);
  writer.close();
  std::remove(ragged.c_str());
}

TEST(TraceFile, CrashBeforeFirstFlushReadsAsCleanEmpty) {
  // A writer that dies before its stdio buffer reaches the disk leaves a
  // zero-length file; one that dies mid-header-flush leaves a short prefix.
  // Neither can hold a record, so both read as "no data", not corruption.
  for (const long bytes : {0L, 7L, 23L}) {
    const std::string path = temp_path("crashed-writer.pgtr");
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      for (long i = 0; i < bytes; ++i) std::fputc('P', f);
      std::fclose(f);
    }
    TraceFileReader reader(path);
    EXPECT_EQ(reader.samples_per_trace(), 0u);
    EXPECT_EQ(reader.size_hint(), 0u);
    TraceBatch batch;
    EXPECT_FALSE(reader.next(batch));
    reader.reset();  // no-op on an empty reader, not an error
    EXPECT_FALSE(reader.next(batch));
    std::remove(path.c_str());
  }
}

TEST(TraceFile, RejectsCountWhoseRecordBytesOverflow) {
  // One sample per trace makes a record 9 bytes, and 9 is invertible mod
  // 2^64: this count times 9 wraps to exactly the 10 payload bytes present.
  // The reader must compare the count against the payload by division, or
  // it reports ~1e19 traces and read_trace_file dies in reserve().
  const std::string path = temp_path("overflowing-count.pgtr");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t version = 1;
    const std::uint32_t samples = 1;
    const std::uint64_t count = 10248191152060862010ULL;
    ASSERT_EQ(count * 9, 10u);
    std::fwrite("PGMCMLTR", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&samples, sizeof(samples), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    const char payload[10] = {};
    std::fwrite(payload, 1, sizeof(payload), f);
    std::fclose(f);
  }
  EXPECT_THROW(TraceFileReader{path}, std::runtime_error);
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgmcml::sca
