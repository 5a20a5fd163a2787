// Crash-tolerant campaign orchestration: forked workers are killed at the
// nastiest instants -- mid-checkpoint between fsync and rename, right after
// a durable publish, hung inside a simulation -- and the recovered campaign
// must be BITWISE equal to the serial reference.  Exhausting a shard's
// retry budget must degrade gracefully: durable prefix merged, unprocessed
// tail reported as skipped ranges, campaign still returns.
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <thread>

#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/campaign/checkpoint.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::campaign {
namespace {

std::string fresh_spool(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pgmcml-campaign-" + std::string(name) + "-" +
        std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Small-but-real campaign geometry: 4 shards of 24 traces, checkpoints
/// every 8, more shards than workers so the queue logic is exercised.
CampaignOptions small_options(const std::string& spool) {
  CampaignOptions o;
  o.style = cells::LogicStyle::kCmos;
  o.num_traces = 96;
  o.samples = 48;
  o.shard_size = 24;
  o.num_workers = 3;
  o.checkpoint_every = 8;
  o.batch_size = 8;
  o.spool_dir = spool;
  o.max_restarts = 3;
  o.heartbeat_timeout_s = 30.0;
  o.poll_interval_s = 0.002;
  o.backoff_base_s = 0.005;
  o.backoff_cap_s = 0.05;
  return o;
}

void expect_bitwise_equal(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_TRUE(bitwise_equal(a, b));
  EXPECT_EQ(std::memcmp(a.cpa.peak_correlation.data(),
                        b.cpa.peak_correlation.data(),
                        sizeof(a.cpa.peak_correlation)),
            0);
  EXPECT_EQ(std::memcmp(a.dpa.peak_difference.data(),
                        b.dpa.peak_difference.data(),
                        sizeof(a.dpa.peak_difference)),
            0);
  EXPECT_EQ(std::memcmp(&a.tvla.max_abs_t, &b.tvla.max_abs_t, sizeof(double)),
            0);
  EXPECT_EQ(a.key_rank, b.key_rank);
  EXPECT_EQ(a.mtd, b.mtd);
  EXPECT_EQ(a.traces_accumulated, b.traces_accumulated);
  // Static-power and MLPA verdicts (inactive modalities compare as the
  // zero-initialized defaults on both sides).
  EXPECT_EQ(std::memcmp(a.static_awake.correlation.data(),
                        b.static_awake.correlation.data(),
                        sizeof(a.static_awake.correlation)),
            0);
  EXPECT_EQ(std::memcmp(a.static_asleep.correlation.data(),
                        b.static_asleep.correlation.data(),
                        sizeof(a.static_asleep.correlation)),
            0);
  EXPECT_EQ(a.static_awake_rank, b.static_awake_rank);
  EXPECT_EQ(a.static_asleep_rank, b.static_asleep_rank);
  EXPECT_EQ(a.static_awake_mtd, b.static_awake_mtd);
  EXPECT_EQ(a.static_asleep_mtd, b.static_asleep_mtd);
  EXPECT_EQ(a.static_traces_accumulated, b.static_traces_accumulated);
  EXPECT_EQ(std::memcmp(a.mlpa.score.data(), b.mlpa.score.data(),
                        sizeof(a.mlpa.score)),
            0);
  EXPECT_EQ(a.mlpa_rank, b.mlpa_rank);
  EXPECT_EQ(a.mlpa_mtd, b.mlpa_mtd);
}

/// Serialized attack state of a checkpoint: byte equality is the "identical
/// state" check.
std::string attack_state(const WorkerCheckpoint& state) {
  sca::SnapshotWriter w;
  state.bins.save(w);
  state.fixed.save(w);
  state.windows.save(w);
  return w.take();
}

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

TEST(CampaignCheckpoint, RoundTripsBitwise) {
  const std::string spool = fresh_spool("roundtrip");
  std::filesystem::create_directories(spool);
  const std::string path = spool + "/shard-0.ckpt";

  WorkerCheckpoint state(16);
  state.shard = 3;
  state.phase = kPhaseFixed;
  state.range_lo = 72;
  state.range_hi = 96;
  state.next_index = 80;
  state.checkpoints_written = 5;
  const std::vector<double> trace(16, 0.25);
  state.bins.add(0x11, trace);
  state.fixed.add(trace);
  state.diagnostics.record_attempt();
  state.diagnostics.record_retry("trace:73", "synthetic");
  state.diagnostics.record_recovery("trace:73");

  ASSERT_TRUE(save_checkpoint(path, state, /*config_digest=*/0xfeed));
  auto loaded = load_checkpoint(path, 16, 0xfeed);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->shard, 3u);
  EXPECT_EQ(loaded->phase, kPhaseFixed);
  EXPECT_EQ(loaded->range_lo, 72u);
  EXPECT_EQ(loaded->range_hi, 96u);
  EXPECT_EQ(loaded->next_index, 80u);
  EXPECT_EQ(loaded->checkpoints_written, 5u);
  EXPECT_EQ(loaded->diagnostics.retries, 1u);
  EXPECT_EQ(loaded->diagnostics.recovered, 1u);
  EXPECT_EQ(loaded->bins.num_traces(), 1u);
  EXPECT_EQ(loaded->fixed.n, 1u);
  EXPECT_EQ(attack_state(*loaded), attack_state(state));
  std::filesystem::remove_all(spool);
}

TEST(CampaignCheckpoint, EveryCrashArtifactIsACleanMiss) {
  const std::string spool = fresh_spool("artifacts");
  std::filesystem::create_directories(spool);
  const std::string path = spool + "/shard-0.ckpt";

  // Missing file.
  EXPECT_FALSE(load_checkpoint(path, 16, 1).has_value());

  WorkerCheckpoint state(16);
  state.range_hi = 10;
  ASSERT_TRUE(save_checkpoint(path, state, 1));
  ASSERT_TRUE(load_checkpoint(path, 16, 1).has_value());

  // Wrong config digest: a spool from different options reads as empty.
  EXPECT_FALSE(load_checkpoint(path, 16, 2).has_value());
  // Mismatched geometry.
  EXPECT_FALSE(load_checkpoint(path, 17, 1).has_value());

  // Zero-length file (crash before any byte hit the disk).
  const std::string empty = spool + "/empty.ckpt";
  std::fclose(std::fopen(empty.c_str(), "wb"));
  EXPECT_FALSE(load_checkpoint(empty, 16, 1).has_value());

  // Truncation and a flipped payload byte: the checksum catches both.
  const std::string bytes = read_file(path);
  const std::string corrupt = spool + "/corrupt.ckpt";
  for (const std::size_t cut : {bytes.size() / 2, bytes.size() - 1}) {
    write_file(corrupt, std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(load_checkpoint(corrupt, 16, 1).has_value());
  }
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x40;
    write_file(corrupt, flipped);
    EXPECT_FALSE(load_checkpoint(corrupt, 16, 1).has_value());
  }
  std::filesystem::remove_all(spool);
}

TEST(CampaignCheckpoint, StaticAndMlpaAccumulatorsRoundTripBitwise) {
  const std::string spool = fresh_spool("static-roundtrip");
  std::filesystem::create_directories(spool);
  const std::string path = spool + "/shard-0.ckpt";

  // The static projection rides in every checkpoint; MLPA needs no state
  // of its own (it is scored from the random-phase statistic).
  WorkerCheckpoint state(16);
  state.phase = kPhaseStatic;
  state.range_hi = 24;
  state.next_index = 8;
  std::vector<double> trace(16, 0.5);
  trace[12] = 0.125;
  sca::TraceBatch batch;
  batch.add(0x3c, trace);
  sca::add_window_means(state.windows, sca::kStaticWindows, 16, batch);
  state.bins.add(0x3c, trace);

  ASSERT_TRUE(save_checkpoint(path, state, /*config_digest=*/0xabcd));
  auto loaded = load_checkpoint(path, 16, 0xabcd);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->phase, kPhaseStatic);
  EXPECT_EQ(loaded->windows.num_traces(), 1u);
  EXPECT_EQ(loaded->windows.bin(0x3c).mean[0], 0.5);
  EXPECT_EQ(attack_state(*loaded), attack_state(state));
  std::filesystem::remove_all(spool);
}

TEST(CampaignCheckpoint, OlderFormatIsACleanMissAndTheWorkerStartsFresh) {
  const std::string spool = fresh_spool("pgc1");
  CampaignOptions o = small_options(spool);
  const std::uint64_t digest = campaign_config_digest(o);
  std::filesystem::create_directories(spool);

  // A "PGC1" checkpoint with a valid checksum over its body, published as
  // shard 0's durable state and claiming the shard is done.
  WorkerCheckpoint done(o.samples);
  done.phase = kPhaseDone;
  done.range_hi = o.shard_hi(0);
  done.next_index = done.range_hi;
  const std::string path = spool + "/shard-0.ckpt";
  ASSERT_TRUE(save_checkpoint(path, done, digest));
  ASSERT_TRUE(load_checkpoint(path, o.samples, digest).has_value());
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes.substr(0, 4), "PGC2");
  bytes.replace(0, 4, "PGC1");
  const std::string body = bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
  const std::uint64_t checksum = fnv1a64(body);
  write_file(path, body + std::string(reinterpret_cast<const char*>(&checksum),
                                      sizeof(checksum)));
  EXPECT_FALSE(load_checkpoint(path, o.samples, digest).has_value());

  // The worker ignores it and streams shard 0 from scratch: the campaign
  // matches the serial reference, with shard 0 fully accumulated.
  const CampaignResult distributed = run_campaign(o);
  EXPECT_EQ(distributed.restarts, 0u);
  EXPECT_EQ(distributed.traces_accumulated, o.num_traces);
  expect_bitwise_equal(distributed, run_campaign_serial(o));
  std::filesystem::remove_all(spool);
}

TEST(CampaignCheckpoint, SizeDoesNotDependOnTheMlpaToggle) {
  std::uintmax_t sizes[2] = {0, 0};
  for (const bool mlpa : {false, true}) {
    const std::string spool = fresh_spool(mlpa ? "mlpa-on" : "mlpa-off");
    CampaignOptions o = small_options(spool);
    o.mlpa = mlpa;
    const CampaignResult r = run_campaign(o);
    EXPECT_EQ(r.mlpa_rank >= 0, mlpa);
    sizes[mlpa ? 1 : 0] = std::filesystem::file_size(spool + "/shard-0.ckpt");
    std::filesystem::remove_all(spool);
  }
  EXPECT_GT(sizes[0], 0u);
  EXPECT_EQ(sizes[0], sizes[1]);
}

TEST(Campaign, StaticAndMlpaDigestSeparatesCampaigns) {
  CampaignOptions a;
  CampaignOptions b = a;
  b.static_power = true;
  EXPECT_NE(campaign_config_digest(a), campaign_config_digest(b));
  b = a;
  b.mlpa = true;
  EXPECT_NE(campaign_config_digest(a), campaign_config_digest(b));
}

TEST(Campaign, DistributedEqualsSerialBitwise) {
  const std::string spool = fresh_spool("baseline");
  CampaignOptions o = small_options(spool);
  const CampaignResult distributed = run_campaign(o);
  const CampaignResult serial = run_campaign_serial(o);
  EXPECT_EQ(distributed.shards_skipped, 0u);
  EXPECT_EQ(distributed.restarts, 0u);
  EXPECT_EQ(distributed.traces_accumulated, o.num_traces);
  expect_bitwise_equal(distributed, serial);
  std::filesystem::remove_all(spool);
}

TEST(Campaign, CleanRunForksOncePerWorkerAndReadsEachCheckpointOnce) {
  const std::string spool = fresh_spool("counts");
  const CampaignOptions o = small_options(spool);
  ASSERT_LT(o.num_workers, o.shard_count());
  obs::Registry& registry = obs::Registry::global();
  const obs::Snapshot before = registry.snapshot();
  const CampaignResult r = run_campaign(o);
  const obs::Snapshot after = registry.snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(r.restarts, 0u);
  // One fork per worker, however many shards each one streams.
  EXPECT_EQ(r.workers_spawned, o.num_workers);
  EXPECT_EQ(delta("campaign.workers_spawned"), o.num_workers);
  // The frontier merge reads every shard's checkpoint exactly once.
  std::uintmax_t spool_bytes = 0;
  for (std::size_t s = 0; s < o.shard_count(); ++s) {
    spool_bytes += std::filesystem::file_size(spool + "/shard-" +
                                              std::to_string(s) + ".ckpt");
  }
  EXPECT_EQ(delta("campaign.checkpoint_bytes_read"), spool_bytes);
  // The workers' snapshots came home: the merged registry counts every
  // trace of every phase, and no snapshot file is left behind.
  EXPECT_EQ(delta("core.acquisition.traces"), o.num_traces * 2);  // + TVLA
  for (const auto& entry : std::filesystem::directory_iterator(spool)) {
    EXPECT_NE(entry.path().extension(), ".obs") << entry.path();
  }
  std::filesystem::remove_all(spool);

  // One worker streams every shard through one source per phase: a
  // plaintext is simulated once per campaign, not once per shard.
  CampaignOptions one = small_options(fresh_spool("counts-one"));
  one.num_workers = 1;
  std::vector<bool> seen(256, false);
  std::uint64_t distinct = 0;
  std::uint64_t per_shard_sum = 0;
  for (std::size_t s = 0; s < one.shard_count(); ++s) {
    std::vector<bool> in_shard(256, false);
    for (std::size_t t = one.shard_lo(s); t < one.shard_hi(s); ++t) {
      const auto p = util::Rng::stream(one.seed, t).bounded(256);
      if (!in_shard[p]) ++per_shard_sum;
      if (!seen[p]) ++distinct;
      in_shard[p] = seen[p] = true;
    }
  }
  ASSERT_LT(distinct, per_shard_sum);
  const std::uint64_t fills_before =
      registry.counter("core.acquisition.simulations").value();
  const CampaignResult single = run_campaign(one);
  const std::uint64_t fills =
      registry.counter("core.acquisition.simulations").value() - fills_before;
  EXPECT_EQ(single.workers_spawned, 1u);
  // The fixed (TVLA) phase fills its one plaintext once.
  EXPECT_EQ(fills, distinct + 1);
  expect_bitwise_equal(single, r);
  std::filesystem::remove_all(one.spool_dir);
}

TEST(Campaign, SigkillBetweenFsyncAndRenameRecoversBitwise) {
  const std::string spool = fresh_spool("midpublish");
  CampaignOptions o = small_options(spool);
  // Shard 1's first incarnation dies with its second checkpoint fsynced but
  // not yet renamed: recovery must resume from checkpoint #1, and the tmp
  // file must never be taken for a checkpoint.
  o.pre_publish_hook = [](std::uint64_t shard, int restart,
                          std::uint64_t ordinal) {
    if (shard == 1 && restart == 0 && ordinal == 2) ::raise(SIGKILL);
  };
  const CampaignResult distributed = run_campaign(o);
  EXPECT_GE(distributed.restarts, 1u);
  EXPECT_EQ(distributed.shards_skipped, 0u);
  expect_bitwise_equal(distributed, run_campaign_serial(o));
  std::filesystem::remove_all(spool);
}

TEST(Campaign, CrashAfterDurableCheckpointResumesBitwise) {
  const std::string spool = fresh_spool("postpublish");
  CampaignOptions o = small_options(spool);
  // Two different shards die right after publishing a durable checkpoint
  // (one of them in the TVLA fixed phase); both must resume from it.
  o.post_checkpoint_hook = [](std::uint64_t shard, int restart,
                              std::uint64_t ordinal) {
    if (shard == 0 && restart == 0 && ordinal == 1) ::raise(SIGKILL);
    if (shard == 2 && restart == 0 && ordinal == 4) ::raise(SIGKILL);
  };
  const CampaignResult distributed = run_campaign(o);
  EXPECT_GE(distributed.restarts, 2u);
  EXPECT_EQ(distributed.shards_skipped, 0u);
  expect_bitwise_equal(distributed, run_campaign_serial(o));
  std::filesystem::remove_all(spool);
}

TEST(Campaign, StaticPhaseCrashRecoversBitwise) {
  const std::string spool = fresh_spool("staticcrash");
  CampaignOptions o = small_options(spool);
  o.static_power = true;
  o.mlpa = true;
  // Shard 1 dies after a durable checkpoint deep in its third (static)
  // phase; the restart must resume the quiescent stream and both static
  // accumulators mid-phase, and the recovered campaign must be bitwise
  // equal to the serial reference across every modality.
  o.post_checkpoint_hook = [](std::uint64_t shard, int restart,
                              std::uint64_t ordinal) {
    if (shard == 1 && restart == 0 && ordinal == 8) ::raise(SIGKILL);
  };
  const CampaignResult distributed = run_campaign(o);
  EXPECT_GE(distributed.restarts, 1u);
  EXPECT_EQ(distributed.shards_skipped, 0u);
  EXPECT_EQ(distributed.static_traces_accumulated, o.num_traces);
  const CampaignResult serial = run_campaign_serial(o);
  EXPECT_GE(distributed.static_awake_rank, 0);
  EXPECT_GE(distributed.mlpa_rank, 0);
  expect_bitwise_equal(distributed, serial);
  std::filesystem::remove_all(spool);
}

TEST(Campaign, HungWorkerIsKilledByHeartbeatAndRestarted) {
  const std::string spool = fresh_spool("hang");
  CampaignOptions o = small_options(spool);
  o.heartbeat_timeout_s = 1.0;  // >> a healthy batch, even under sanitizers
  // Shard 2's first incarnation wedges inside a simulation and never beats
  // again; the coordinator must SIGKILL it and the restart must finish.
  o.worker_fault_hook = [](std::uint64_t shard, int restart,
                           std::uint64_t trace, int attempt) {
    if (shard == 2 && restart == 0 && trace == 60 && attempt == 0) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  };
  const CampaignResult distributed = run_campaign(o);
  EXPECT_GE(distributed.heartbeat_timeouts, 1u);
  EXPECT_GE(distributed.restarts, 1u);
  EXPECT_EQ(distributed.shards_skipped, 0u);
  expect_bitwise_equal(distributed, run_campaign_serial(o));
  std::filesystem::remove_all(spool);
}

TEST(Campaign, RetryBudgetExhaustionDegradesGracefully) {
  for (const bool static_power : {false, true}) {
    SCOPED_TRACE(static_power ? "static phase on" : "static phase off");
    const std::string spool = fresh_spool("degrade");
    CampaignOptions o = small_options(spool);
    o.max_restarts = 1;
    o.static_power = static_power;
    // Shard 3 dies right after EVERY durable publish: each incarnation makes
    // one checkpoint of progress, the budget (1 restart = 2 incarnations)
    // runs out, the shard is skipped -- but its durable 16-trace prefix must
    // still be merged and the lost tail reported, per phase.
    o.post_checkpoint_hook = [](std::uint64_t shard, int /*restart*/,
                                std::uint64_t ordinal) {
      if (shard == 3 && ordinal >= 1) ::_Exit(7);
    };
    const CampaignResult r = run_campaign(o);
    EXPECT_EQ(r.shards_skipped, 1u);
    EXPECT_TRUE(r.degraded());
    EXPECT_FALSE(r.shards[3].completed);
    // Durable prefix (two incarnations x one checkpoint of 8 traces) merged.
    EXPECT_EQ(r.traces_accumulated, 96u - 24u + 16u);
    EXPECT_EQ(r.shards[3].random_attempted, 16u);
    EXPECT_EQ(r.shards[3].fixed_attempted, 0u);
    EXPECT_EQ(r.shards[3].static_attempted, 0u);
    ASSERT_EQ(r.skipped_ranges.size(), static_power ? 3u : 2u);
    EXPECT_EQ(r.skipped_ranges[0].lo, 88u);  // 72 + 16 durable
    EXPECT_EQ(r.skipped_ranges[0].hi, 96u);
    EXPECT_EQ(r.skipped_ranges[0].phase, kPhaseRandom);
    EXPECT_EQ(r.skipped_ranges[1].lo, 72u);  // fixed phase never started
    EXPECT_EQ(r.skipped_ranges[1].hi, 96u);
    EXPECT_EQ(r.skipped_ranges[1].phase, kPhaseFixed);
    if (static_power) {
      EXPECT_EQ(r.skipped_ranges[2].lo, 72u);  // nor did the static phase
      EXPECT_EQ(r.skipped_ranges[2].hi, 96u);
      EXPECT_EQ(r.skipped_ranges[2].phase, kPhaseStatic);
      EXPECT_EQ(r.static_traces_accumulated, 72u);
    }
    // The three healthy shards still produced a full analysis.
    EXPECT_GE(r.tvla.random_traces, 72u);
    std::filesystem::remove_all(spool);
  }
}

TEST(Campaign, ResumesAcrossSeparateCoordinatorRuns) {
  const std::string spool = fresh_spool("rerun");
  CampaignOptions o = small_options(spool);
  o.max_restarts = 0;  // first run: one crash permanently skips the shard
  o.post_checkpoint_hook = [](std::uint64_t shard, int /*restart*/,
                              std::uint64_t ordinal) {
    if (shard == 1 && ordinal == 2) ::_Exit(7);
  };
  const CampaignResult first = run_campaign(o);
  EXPECT_EQ(first.shards_skipped, 1u);

  // Second coordinator run over the SAME spool with the hook removed: the
  // finished shards are recognized as done instantly and the crashed one
  // resumes from its durable checkpoint.  Result: bitwise-clean campaign.
  o.post_checkpoint_hook = nullptr;
  o.max_restarts = 3;
  const CampaignResult second = run_campaign(o);
  EXPECT_EQ(second.shards_skipped, 0u);
  EXPECT_EQ(second.traces_accumulated, o.num_traces);
  expect_bitwise_equal(second, run_campaign_serial(o));
  std::filesystem::remove_all(spool);
}

TEST(Campaign, AcquisitionFaultsStayLocalAndDeterministic) {
  const std::string spool = fresh_spool("acqfault");
  CampaignOptions o = small_options(spool);
  o.tvla = false;
  // A trace that fails both attempts is skipped by the acquisition retry
  // ladder inside the worker -- no crash, no restart, and the skip shows up
  // in the merged diagnostics.
  o.worker_fault_hook = [](std::uint64_t /*shard*/, int /*restart*/,
                           std::uint64_t trace, int /*attempt*/) {
    if (trace == 30) throw std::runtime_error("synthetic acquisition fault");
  };
  const CampaignResult r = run_campaign(o);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_EQ(r.shards_skipped, 0u);
  EXPECT_EQ(r.traces_accumulated, o.num_traces - 1);
  EXPECT_EQ(r.diagnostics.skipped, 1u);
  EXPECT_EQ(r.diagnostics.retries, 1u);
  std::filesystem::remove_all(spool);
}

TEST(Campaign, ConfigDigestSeparatesCampaigns) {
  CampaignOptions a;
  CampaignOptions b = a;
  EXPECT_EQ(campaign_config_digest(a), campaign_config_digest(b));
  b.seed = a.seed + 1;
  EXPECT_NE(campaign_config_digest(a), campaign_config_digest(b));
  b = a;
  b.num_traces *= 2;
  EXPECT_NE(campaign_config_digest(a), campaign_config_digest(b));
  b = a;
  b.style = cells::LogicStyle::kPgMcml;
  EXPECT_NE(campaign_config_digest(a), campaign_config_digest(b));
  // Supervision knobs do not reshape the stream: same digest, so a resume
  // under a different worker count or cadence stays valid.
  b = a;
  b.num_workers += 3;
  b.checkpoint_every = 1;
  b.max_restarts = 0;
  EXPECT_EQ(campaign_config_digest(a), campaign_config_digest(b));
}

TEST(Campaign, RejectsMalformedOptions) {
  CampaignOptions o;
  o.num_traces = 0;
  EXPECT_THROW(run_campaign_serial(o), std::invalid_argument);
  o = CampaignOptions{};
  o.num_workers = 0;
  EXPECT_THROW(run_campaign(o), std::invalid_argument);
  o = CampaignOptions{};
  o.spool_dir.clear();
  EXPECT_THROW(run_campaign(o), std::invalid_argument);

  // Supervision options: both entry points reject them up front, before a
  // worker is forked, instead of every worker failing its first lease.
  const std::string spool = fresh_spool("malformed");
  const double bad_timeouts[] = {0.0, -1.0,
                                 std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()};
  for (const auto& entry : {run_campaign, run_campaign_serial}) {
    o = small_options(spool);
    o.batch_size = 0;
    EXPECT_THROW(entry(o), std::invalid_argument);
    for (const double timeout : bad_timeouts) {
      o = small_options(spool);
      o.heartbeat_timeout_s = timeout;
      EXPECT_THROW(entry(o), std::invalid_argument) << timeout;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(spool));
}

}  // namespace
}  // namespace pgmcml::campaign
