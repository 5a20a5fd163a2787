// Crash-tolerant distributed campaign orchestration.
//
// A campaign -- CPA + DPA + TVLA + MTD over N traces of the reduced AES
// target -- is cut into fixed shards by global trace index and executed by
// a pool of worker processes, forked once per campaign and leased one shard
// at a time over a socket.  A worker keeps one acquisition source per phase
// (core::make_acquisition_source), re-ranged onto each shard it streams, so
// a plaintext is simulated once per worker; it streams the shard into local
// accumulators, periodically publishes a durable checkpoint (see
// checkpoint.hpp) and reports the shard done after the final one.  The
// coordinator supervises with heartbeats, SIGKILLs hung workers, requeues a
// dead worker's shard from its last durable checkpoint with exponential
// backoff (forking a replacement), and -- once a shard exhausts its retry
// budget -- degrades gracefully: the shard's durable prefix is still merged
// and the unprocessed tail is reported as a skipped range instead of
// failing the campaign.  It merges shards in index order as they settle,
// reading each checkpoint once, and takes in the obs snapshot every worker
// leaves when its stream of leases ends.
//
// Determinism contract: the serial reference (run_campaign_serial) and the
// distributed run execute the SAME per-shard fold and the SAME index-
// ordered merge, and checkpoint resume restores accumulator state bit for
// bit, so the final CPA ranks, TVLA max|t| and MTD of a crashed-and-
// recovered distributed campaign are bitwise equal to the serial run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/spice/solve_error.hpp"

namespace pgmcml::campaign {

struct CampaignOptions {
  cells::LogicStyle style = cells::LogicStyle::kCmos;
  std::size_t num_traces = 4096;
  std::size_t samples = 600;
  std::uint8_t key = 0x2b;
  std::uint64_t seed = 7;
  double dt = 2e-12;
  double noise_sigma = 2e-6;
  bool gate_per_operation = true;
  bool spice_kernels = false;
  /// Fixed-class plaintext for TVLA (the fixed acquisition runs on stream
  /// seed+1, so fixed and random classes are independent populations).
  std::uint8_t fixed_plaintext = 0x52;
  bool tvla = true;
  bool compute_mtd = true;
  /// Run the quiescent-hold phase (stream seed+2) and mount the static-power
  /// attack on both gating windows of it.
  bool static_power = false;
  /// Mount the MLPA multi-bit attack on the random-class traces.
  bool mlpa = false;

  /// Traces per shard; 0 = auto (16 shards).  The shard layout is a
  /// function of the options alone -- NOT of the worker count -- so any
  /// worker count produces the identical merge and a spool stays resumable
  /// after changing num_workers.
  std::size_t shard_size = 0;
  /// Worker processes to fork (capped at the shard count).
  std::size_t num_workers = 4;
  /// Durable checkpoint cadence, in attempted traces per phase.
  std::size_t checkpoint_every = 256;
  std::size_t batch_size = sca::kDefaultTraceBatch;
  /// Spool directory for checkpoints and heartbeats (created if missing).
  std::string spool_dir = "campaign-spool";
  /// Restarts allowed per shard before it is marked skipped.
  std::size_t max_restarts = 3;
  /// Threads each worker may use (workers are processes; keep this low).
  std::size_t worker_threads = 1;
  double heartbeat_timeout_s = 30.0;
  /// Longest the coordinator blocks waiting for a worker message before it
  /// checks heartbeats and backed-off shards again.
  double poll_interval_s = 0.01;
  double backoff_base_s = 0.05;  ///< restart delay: base * 2^(failures-1)
  double backoff_cap_s = 1.0;

  // --- test seams (inherited by forked workers) ---------------------------
  /// Runs in the worker between a checkpoint's fsync and its rename, as
  /// (shard, restart, checkpoint ordinal): crash here and the previous
  /// checkpoint must win.
  std::function<void(std::uint64_t, int, std::uint64_t)> pre_publish_hook;
  /// Runs after a checkpoint is durably published (same arguments): crash
  /// here and the new checkpoint must win.
  std::function<void(std::uint64_t, int, std::uint64_t)> post_checkpoint_hook;
  /// Runs before each trace simulation as (shard, restart, global trace
  /// index, attempt).  Kill or hang the process here to exercise
  /// supervision; throwing exercises the acquisition retry ladder.
  std::function<void(std::uint64_t, int, std::uint64_t, int)>
      worker_fault_hook;

  std::size_t effective_shard_size() const;
  std::size_t shard_count() const;
  std::size_t shard_lo(std::size_t shard) const;
  std::size_t shard_hi(std::size_t shard) const;
};

/// How one shard ended.
struct ShardOutcome {
  std::uint64_t shard = 0;
  std::uint64_t range_lo = 0;
  std::uint64_t range_hi = 0;
  std::uint64_t restarts = 0;
  bool completed = false;  ///< false = retry budget exhausted (skipped)
  /// Traces attempted per phase by the time of the last durable checkpoint
  /// (for a completed shard: the full range in each active phase).
  std::uint64_t random_attempted = 0;
  std::uint64_t fixed_attempted = 0;
  std::uint64_t static_attempted = 0;
};

/// A global-index range a degraded campaign never processed.
struct SkippedRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t phase = 0;  ///< kPhaseRandom, kPhaseFixed or kPhaseStatic
};

/// The verdicts against the campaign key (MLPA when mlpa, the static windows
/// when static_power), scored at merge time so to_json needs no key; MTDs at
/// shard-boundary granularity.
struct CampaignResult : sca::AttackVerdicts {
  sca::TvlaResult tvla;
  /// Quiescent holds folded into the merged static accumulators.
  std::uint64_t static_traces_accumulated = 0;
  /// Random-class traces folded into the merged CPA accumulator.
  std::uint64_t traces_accumulated = 0;
  spice::FlowDiagnostics diagnostics;
  std::vector<ShardOutcome> shards;
  std::vector<SkippedRange> skipped_ranges;
  /// Worker processes forked: one per worker (at most one per shard), plus
  /// one per replacement of a worker that died.
  std::uint64_t workers_spawned = 0;
  std::uint64_t restarts = 0;
  std::uint64_t heartbeat_timeouts = 0;
  std::uint64_t shards_skipped = 0;

  bool degraded() const { return shards_skipped != 0; }
  /// Full structured dump (attack verdicts, supervision counters, skipped
  /// ranges, per-shard outcomes, diagnostics).
  obs::json::Value to_json() const;
};

/// Whether two campaigns share their attack statistics bit for bit: every
/// scorer's guess scores, TVLA max |t|, the key rank, every MTD and the
/// trace counts.  The distributed-vs-serial acceptance check.
bool bitwise_equal(const CampaignResult& a, const CampaignResult& b);

/// Digest of every option that shapes the trace stream or the shard layout;
/// stamped into checkpoints so a spool from different options reads as
/// empty instead of resuming into a different campaign.
std::uint64_t campaign_config_digest(const CampaignOptions& options);

/// Distributed run: forked workers leased shards, heartbeat supervision,
/// checkpointed recovery, graceful degradation.  Counters and spans the
/// workers record reach obs::Registry::global() through the snapshot each
/// leaves on a clean exit; a killed incarnation's snapshot is lost.  Throws std::invalid_argument on
/// malformed options and std::runtime_error when the spool directory cannot
/// be created or a worker cannot be spawned at all.
CampaignResult run_campaign(const CampaignOptions& options);

/// Serial reference: the same shards and the same index-ordered merge,
/// executed in-process with no spool I/O and with the test seams stripped
/// (they target worker processes, which do not exist here).  The
/// distributed run is bitwise equal to this on the attack statistics.
CampaignResult run_campaign_serial(const CampaignOptions& options);

}  // namespace pgmcml::campaign
