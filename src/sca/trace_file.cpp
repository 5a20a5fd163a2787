#include "pgmcml/sca/trace_file.hpp"

#include <cstring>
#include <stdexcept>

namespace pgmcml::sca {

namespace {

constexpr char kMagic[8] = {'P', 'G', 'M', 'C', 'M', 'L', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr long kHeaderBytes = 24;
constexpr std::size_t kCountOffset = 16;

std::size_t record_bytes(std::size_t samples) {
  return 1 + samples * sizeof(double);
}

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("trace file '" + path + "': " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceFileWriter

TraceFileWriter::TraceFileWriter(const std::string& path, std::size_t samples)
    : path_(path), samples_(samples) {
  if (samples == 0) {
    throw std::invalid_argument("TraceFileWriter: samples must be > 0");
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) io_fail(path_, "cannot open for writing");
  const std::uint32_t version = kVersion;
  const auto samples32 = static_cast<std::uint32_t>(samples);
  const std::uint64_t count = 0;  // patched by close()
  if (std::fwrite(kMagic, sizeof(kMagic), 1, file_) != 1 ||
      std::fwrite(&version, sizeof(version), 1, file_) != 1 ||
      std::fwrite(&samples32, sizeof(samples32), 1, file_) != 1 ||
      std::fwrite(&count, sizeof(count), 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "header write failed");
  }
}

TraceFileWriter::~TraceFileWriter() {
  try {
    close();
  } catch (...) {
    // Destructor cleanup: errors are observable by calling close() directly.
  }
}

void TraceFileWriter::write(std::uint8_t plaintext,
                            std::span<const double> trace) {
  if (file_ == nullptr) io_fail(path_, "write after close");
  if (trace.size() != samples_) {
    throw std::invalid_argument(
        "TraceFileWriter::write: sample-count mismatch");
  }
  if (std::fwrite(&plaintext, 1, 1, file_) != 1 ||
      std::fwrite(trace.data(), sizeof(double), trace.size(), file_) !=
          trace.size()) {
    io_fail(path_, "record write failed");
  }
  ++count_;
}

void TraceFileWriter::write_batch(const TraceBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    write(batch.plaintexts[i], batch.traces[i]);
  }
}

void TraceFileWriter::close() {
  if (file_ == nullptr) return;
  std::FILE* f = file_;
  file_ = nullptr;
  const std::uint64_t count = count_;
  const bool ok = std::fseek(f, kCountOffset, SEEK_SET) == 0 &&
                  std::fwrite(&count, sizeof(count), 1, f) == 1;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) io_fail(path_, "finalizing header failed");
}

// ---------------------------------------------------------------------------
// TraceFileReader

TraceFileReader::TraceFileReader(const std::string& path,
                                 std::size_t batch_size)
    : path_(path), batch_size_(batch_size) {
  if (batch_size_ == 0) {
    throw std::invalid_argument("TraceFileReader: batch_size must be > 0");
  }
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) io_fail(path_, "cannot open for reading");
  // A writer that crashed before its first flush leaves a zero-length file
  // (stdio buffers the header), and one that died mid-header-flush leaves
  // fewer bytes than a header.  Neither can contain a single record, so both
  // read as a clean empty campaign ("no data yet"), not as corruption --
  // exactly what a recovering campaign coordinator wants from a spool
  // directory of partially written shards.
  if (std::fseek(file_, 0, SEEK_END) != 0) io_fail(path_, "seek failed");
  const long file_bytes = std::ftell(file_);
  if (file_bytes >= 0 && file_bytes < kHeaderBytes) {
    std::fclose(file_);
    file_ = nullptr;
    empty_ = true;
    return;
  }
  if (std::fseek(file_, 0, SEEK_SET) != 0) io_fail(path_, "seek failed");
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t samples32 = 0;
  std::uint64_t count = 0;
  if (std::fread(magic, sizeof(magic), 1, file_) != 1 ||
      std::fread(&version, sizeof(version), 1, file_) != 1 ||
      std::fread(&samples32, sizeof(samples32), 1, file_) != 1 ||
      std::fread(&count, sizeof(count), 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "truncated header");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "bad magic (not a PGMCML trace file)");
  }
  if (version != kVersion) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "unsupported version");
  }
  if (samples32 == 0) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "header declares zero samples per trace");
  }
  samples_ = samples32;
  count_ = count;
  // Validate the payload length against the declared count, so a torn write
  // surfaces here instead of as a short read mid-campaign.  The check
  // divides the payload instead of multiplying the count: a hostile count
  // times the record size can wrap in 64 bits onto the real payload length.
  if (std::fseek(file_, 0, SEEK_END) != 0) io_fail(path_, "seek failed");
  const long end = std::ftell(file_);
  const std::size_t record = record_bytes(samples_);
  const auto payload = static_cast<std::size_t>(end - kHeaderBytes);
  if (end < kHeaderBytes || payload % record != 0 ||
      payload / record != count_) {
    std::fclose(file_);
    file_ = nullptr;
    io_fail(path_, "length does not match declared trace count (truncated?)");
  }
  if (std::fseek(file_, kHeaderBytes, SEEK_SET) != 0) {
    io_fail(path_, "seek failed");
  }
}

TraceFileReader::~TraceFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool TraceFileReader::next(TraceBatch& batch) {
  batch.clear();
  if (cursor_ >= count_) return false;
  const std::size_t take = std::min(batch_size_, count_ - cursor_);
  if (rows_.size() < take) rows_.resize(take);
  for (std::size_t i = 0; i < take; ++i) {
    std::uint8_t plaintext = 0;
    rows_[i].resize(samples_);
    if (std::fread(&plaintext, 1, 1, file_) != 1 ||
        std::fread(rows_[i].data(), sizeof(double), samples_, file_) !=
            samples_) {
      io_fail(path_, "short read");
    }
    batch.add(plaintext, rows_[i]);
  }
  cursor_ += take;
  return true;
}

void TraceFileReader::reset() {
  if (empty_) return;
  if (file_ == nullptr) io_fail(path_, "reset on closed reader");
  if (std::fseek(file_, kHeaderBytes, SEEK_SET) != 0) {
    io_fail(path_, "seek failed");
  }
  cursor_ = 0;
}

// ---------------------------------------------------------------------------

std::size_t write_trace_file(const std::string& path, TraceSource& source) {
  TraceFileWriter writer(path, source.samples_per_trace());
  TraceBatch batch;
  while (source.next(batch)) writer.write_batch(batch);
  writer.close();
  return writer.traces_written();
}

TraceSet read_trace_file(const std::string& path) {
  TraceFileReader reader(path);
  TraceSet out(reader.samples_per_trace());
  out.reserve(reader.size_hint());
  TraceBatch batch;
  while (reader.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.add(batch.plaintexts[i],
              std::vector<double>(batch.traces[i].begin(),
                                  batch.traces[i].end()));
    }
  }
  return out;
}

}  // namespace pgmcml::sca
