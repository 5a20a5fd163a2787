#include "pgmcml/campaign/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>

#include "pgmcml/obs/json.hpp"
#include "pgmcml/sca/snapshot.hpp"

namespace pgmcml::campaign {

namespace {

constexpr char kTag[5] = "PGC2";

/// Checkpoint body (everything the checksum covers), appended to `w`.
void serialize_body(sca::SnapshotWriter& w, const WorkerCheckpoint& state,
                    std::uint64_t config_digest) {
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
  state.bins.save(w);
  state.fixed.save(w);
  state.windows.save(w);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool save_checkpoint(const std::string& path, const WorkerCheckpoint& state,
                     std::uint64_t config_digest,
                     const std::function<void()>* pre_publish) {
  sca::SnapshotWriter w;
  serialize_body(w, state, config_digest);
  const std::uint64_t checksum = fnv1a64(w.buffer());
  w.u64(checksum);

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
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<WorkerCheckpoint> load_checkpoint(const std::string& path,
                                                std::size_t samples,
                                                std::uint64_t config_digest) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string raw;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    raw.append(buf, got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  // Every crash artifact is a miss: too short to hold even the framing, a
  // checksum that does not cover the bytes, or options that changed.
  if (!read_ok || raw.size() < sizeof(std::uint64_t) + 4) return std::nullopt;
  const std::string_view body(raw.data(), raw.size() - sizeof(std::uint64_t));
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, raw.data() + body.size(),
              sizeof(stored_checksum));
  if (fnv1a64(body) != stored_checksum) return std::nullopt;

  try {
    sca::SnapshotReader r(body);
    r.expect_tag(kTag);
    if (r.u64() != config_digest) return std::nullopt;
    WorkerCheckpoint state(samples);
    state.shard = r.u64();
    state.phase = r.u32();
    state.range_lo = r.u64();
    state.range_hi = r.u64();
    state.next_index = r.u64();
    state.checkpoints_written = r.u64();
    state.diagnostics = spice::FlowDiagnostics::from_json_value(
        obs::json::Value::parse(r.bytes()));
    state.bins = sca::BinnedMoments::load(r);
    state.fixed = sca::Moments::load(r, samples);
    state.windows = sca::BinnedMoments::load(r);
    if (!r.exhausted() || state.bins.samples_per_trace() != samples ||
        state.windows.samples_per_trace() != sca::kStaticWindows.size()) {
      return std::nullopt;
    }
    if (state.phase > kPhaseDone || state.range_lo > state.range_hi ||
        state.next_index < state.range_lo ||
        state.next_index > state.range_hi) {
      return std::nullopt;
    }
    return state;
  } catch (const std::exception&) {
    return std::nullopt;  // truncated / malformed snapshot stream
  }
}

}  // namespace pgmcml::campaign
