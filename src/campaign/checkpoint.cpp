#include "pgmcml/campaign/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>

#include "pgmcml/cache/key.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/sca/snapshot.hpp"

namespace pgmcml::campaign {

namespace {

constexpr char kTag[5] = "PGC3";
/// The trailer: MurmurHash3 x64-128 of the body, hi word then lo word.
constexpr std::size_t kChecksumBytes = 2 * sizeof(std::uint64_t);

cache::CacheKey checksum_of(std::string_view body) {
  return cache::digest_bytes(body.data(), body.size());
}

/// The whole file at `path`, read with one read() of its fstat size (a
/// short read is retried).  Returns false when the file cannot be opened
/// or ends early; throws std::bad_alloc when its size cannot be held.
bool read_whole_file(const std::string& path, std::unique_ptr<char[]>& data,
                     std::size_t& size) {
  // Closes the file however this returns, a failed allocation included.
  struct File {
    int fd;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0 || st.st_size < 0) {
    return false;
  }
  size = static_cast<std::size_t>(st.st_size);
  data = std::make_unique_for_overwrite<char[]>(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(file.fd, data.get() + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got == size;
}

}  // namespace

bool save_checkpoint(const std::string& path, const WorkerCheckpoint& state,
                     std::uint64_t config_digest,
                     const std::function<void()>* pre_publish) {
  sca::SnapshotWriter w;
  w.tag(kTag);
  w.u64(config_digest);
  w.u64(state.shard);
  w.u32(state.phase);
  w.u64(state.range_lo);
  w.u64(state.range_hi);
  w.u64(state.next_index);
  w.u64(state.checkpoints_written);
  // Diagnostics ride as their exact JSON round-trip form: one codec for the
  // result cache, the bench manifests and the checkpoint.
  w.bytes(state.diagnostics.to_json_value().dump());
  // The statistics are nearly all of the file: size the buffer for them
  // and the trailer once.
  w.reserve(w.buffer().size() + state.bins.saved_size() +
            state.fixed.saved_size() + state.windows.saved_size() +
            kChecksumBytes);
  state.bins.save(w);
  state.fixed.save(w);
  state.windows.save(w);
  const cache::CacheKey checksum = checksum_of(w.buffer());
  w.u64(checksum.hi);
  w.u64(checksum.lo);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string& body = w.buffer();
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = ok && std::fflush(f) == 0;
  // rename() makes the publish atomic; only fsync() before it makes the
  // content durable.  Without it a power loss can publish a name pointing
  // at zeroes -- exactly the torn state load_checkpoint must never see.
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (pre_publish != nullptr && *pre_publish) (*pre_publish)();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  static obs::Counter written =
      obs::Registry::global().counter("campaign.checkpoint_bytes_written");
  written.add(body.size());
  return true;
}

std::optional<WorkerCheckpoint> load_checkpoint(const std::string& path,
                                                std::size_t samples,
                                                std::uint64_t config_digest) {
  try {
    std::unique_ptr<char[]> raw;
    std::size_t size = 0;
    if (!read_whole_file(path, raw, size)) return std::nullopt;
    static obs::Counter read =
        obs::Registry::global().counter("campaign.checkpoint_bytes_read");
    read.add(size);
    // Every crash artifact is a miss: too short to hold even the framing, a
    // checksum that does not cover the bytes, or options that changed.
    if (size < kChecksumBytes + 4) return std::nullopt;
    const std::string_view body(raw.get(), size - kChecksumBytes);
    std::uint64_t stored[2];
    std::memcpy(stored, raw.get() + body.size(), sizeof(stored));
    const cache::CacheKey checksum = checksum_of(body);
    if (checksum.hi != stored[0] || checksum.lo != stored[1]) {
      return std::nullopt;
    }

    sca::SnapshotReader r(body);
    r.expect_tag(kTag);
    if (r.u64() != config_digest) return std::nullopt;
    const std::uint64_t shard = r.u64();
    const std::uint32_t phase = r.u32();
    const std::uint64_t range_lo = r.u64();
    const std::uint64_t range_hi = r.u64();
    const std::uint64_t next_index = r.u64();
    const std::uint64_t checkpoints_written = r.u64();
    if (phase > kPhaseDone || range_lo > range_hi || next_index < range_lo ||
        next_index > range_hi) {
      return std::nullopt;
    }
    spice::FlowDiagnostics diagnostics =
        spice::FlowDiagnostics::from_json_value(
            obs::json::Value::parse(r.bytes()));
    // The statistics are loaded in stream order, each row built once.
    sca::BinnedMoments bins = sca::BinnedMoments::load(r);
    if (bins.samples_per_trace() != samples) return std::nullopt;
    sca::Moments fixed = sca::Moments::load(r, samples);
    sca::BinnedMoments windows = sca::BinnedMoments::load(r);
    if (!r.exhausted() ||
        windows.samples_per_trace() != sca::kStaticWindows.size()) {
      return std::nullopt;
    }
    WorkerCheckpoint state(std::move(bins), std::move(fixed),
                           std::move(windows));
    state.shard = shard;
    state.phase = phase;
    state.range_lo = range_lo;
    state.range_hi = range_hi;
    state.next_index = next_index;
    state.checkpoints_written = checkpoints_written;
    state.diagnostics = std::move(diagnostics);
    return state;
  } catch (const std::exception&) {
    // A file too large to hold, or a truncated / malformed snapshot stream.
    return std::nullopt;
  }
}

}  // namespace pgmcml::campaign
