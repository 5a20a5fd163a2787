// Durable worker checkpoints for the distributed campaign orchestrator.
//
// A campaign worker owns one shard -- a fixed global-trace-index range --
// and periodically snapshots its full analysis state to the spool
// directory: the binned attack statistic (raw IEEE-754 bytes, so a resume
// continues the identical arithmetic sequence), the aggregated
// FlowDiagnostics, and the resume cursor (phase + next global index).
//
// Durability contract: save_checkpoint writes the snapshot to a temporary
// file, fsyncs it, and only then renames it over the live checkpoint.  A
// crash at ANY instant leaves either the previous complete checkpoint or
// the new complete checkpoint -- never a torn one.  load_checkpoint treats
// every partial-crash artifact (missing file, zero-length or short file,
// bad checksum, a checkpoint written under different campaign options) as a
// clean "no checkpoint" miss, so recovery never needs a human to triage the
// spool directory.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/spice/solve_error.hpp"

namespace pgmcml::campaign {

/// Worker phases, in execution order.  TVLA needs a second acquisition pass
/// over the shard's index range (the fixed class); the static-power attack
/// needs a third, quiescent-hold pass.  Inactive phases are skipped, so the
/// phase VALUE is stable in checkpoints regardless of which toggles are on.
enum : std::uint32_t {
  kPhaseRandom = 0,  ///< random plaintexts: CPA + DPA + MLPA + TVLA random
  kPhaseFixed = 1,   ///< fixed plaintext (seed+1 stream): TVLA fixed class
  kPhaseStatic = 2,  ///< quiescent holds (seed+2 stream): static-power attack
  kPhaseDone = 3,    ///< every active pass complete; the shard is finished
};

/// Complete resumable state of one shard worker.  Its attack state has one
/// shape whatever the campaign toggles: the statistic of the random phase,
/// TVLA's fixed class, and the static projection of the quiescent holds.
/// Toggles only select what the merge scores and reports.
struct WorkerCheckpoint {
  std::uint64_t shard = 0;
  std::uint32_t phase = kPhaseRandom;
  std::uint64_t range_lo = 0;  ///< global index range [range_lo, range_hi)
  std::uint64_t range_hi = 0;
  /// First global index of `phase` NOT yet attempted (skipped traces count
  /// as attempted -- this is the acquisition cursor, not the fold count).
  std::uint64_t next_index = 0;
  std::uint64_t checkpoints_written = 0;
  /// Random-phase traces: CPA, DPA, MLPA and TVLA's random class.
  sca::BinnedMoments bins;
  /// Fixed-phase traces: TVLA's fixed class.
  sca::Moments fixed;
  /// Static-phase holds: per-bin moments of the sca::kStaticWindows means.
  sca::BinnedMoments windows;
  spice::FlowDiagnostics diagnostics;

  explicit WorkerCheckpoint(std::size_t samples)
      : bins(samples), fixed(samples), windows(sca::kStaticWindows.size()) {}
};

/// FNV-1a 64-bit -- the checkpoint checksum and the campaign config digest.
std::uint64_t fnv1a64(std::string_view data);

/// Serializes `state` to `path` atomically and durably (tmp + fsync +
/// rename).  `config_digest` stamps the campaign options the state was
/// produced under, so a stale spool from a different configuration reads as
/// a miss instead of poisoning a resume.  `pre_publish`, when non-null, runs
/// between the fsync of the temporary file and the rename -- the test seam
/// for killing a worker mid-checkpoint.  Returns false on I/O failure.
bool save_checkpoint(const std::string& path, const WorkerCheckpoint& state,
                     std::uint64_t config_digest,
                     const std::function<void()>* pre_publish = nullptr);

/// Loads and validates a checkpoint.  Returns nullopt -- a clean miss, never
/// a throw -- on a missing/zero-length/truncated file, checksum mismatch,
/// config-digest mismatch, an older format, or a statistic of a different
/// sample count.
std::optional<WorkerCheckpoint> load_checkpoint(const std::string& path,
                                                std::size_t samples,
                                                std::uint64_t config_digest);

}  // namespace pgmcml::campaign
