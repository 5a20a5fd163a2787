#include "pgmcml/campaign/campaign.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pgmcml/campaign/checkpoint.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::campaign {

namespace {

using Clock = std::chrono::steady_clock;

const cells::CellLibrary& library_for(cells::LogicStyle style) {
  static const cells::CellLibrary cmos = cells::CellLibrary::cmos90();
  static const cells::CellLibrary mcml = cells::CellLibrary::mcml90();
  static const cells::CellLibrary pgmcml = cells::CellLibrary::pgmcml90();
  switch (style) {
    case cells::LogicStyle::kCmos: return cmos;
    case cells::LogicStyle::kMcml: return mcml;
    case cells::LogicStyle::kPgMcml: return pgmcml;
  }
  throw std::invalid_argument("campaign: unknown logic style");
}

void validate(const CampaignOptions& o) {
  if (o.num_traces == 0) {
    throw std::invalid_argument("campaign: num_traces must be > 0");
  }
  if (o.samples == 0) {
    throw std::invalid_argument("campaign: samples must be > 0");
  }
  if (o.num_workers == 0) {
    throw std::invalid_argument("campaign: num_workers must be > 0");
  }
  if (o.checkpoint_every == 0) {
    throw std::invalid_argument("campaign: checkpoint_every must be > 0");
  }
  if (o.spool_dir.empty()) {
    throw std::invalid_argument("campaign: spool_dir must be set");
  }
}

std::string checkpoint_path(const CampaignOptions& o, std::uint64_t shard) {
  return o.spool_dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string heartbeat_path(const CampaignOptions& o, std::uint64_t shard) {
  return o.spool_dir + "/shard-" + std::to_string(shard) + ".hb";
}

/// Best-effort liveness beacon: visibility matters, durability does not.  A
/// torn read parses as garbage and counts as "unchanged", which only delays
/// the hang verdict by one poll.
void write_heartbeat(const std::string& path, std::uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%llu\n", static_cast<unsigned long long>(value));
  std::fclose(f);
}

std::uint64_t read_heartbeat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  unsigned long long value = 0;
  const int got = std::fscanf(f, "%llu", &value);
  std::fclose(f);
  return got == 1 ? value : 0;
}

WorkerCheckpoint fresh_state(const CampaignOptions& o, std::uint64_t shard) {
  WorkerCheckpoint state(o.samples);
  state.shard = shard;
  state.range_lo = o.shard_lo(shard);
  state.range_hi = o.shard_hi(shard);
  state.next_index = state.range_lo;
  return state;
}

/// Whether phase `p` runs under `o`: the one reading of the tvla and
/// static_power toggles (phase VALUES stay stable whichever are off).
bool phase_active(const CampaignOptions& o, std::uint32_t p) {
  return p == kPhaseRandom || (p == kPhaseFixed && o.tvla) ||
         (p == kPhaseStatic && o.static_power);
}

/// First global index of phase `p` that `st` has not attempted: its range
/// start before the phase began, its cursor during it, its range end after.
std::uint64_t first_unattempted(const WorkerCheckpoint& st, std::uint32_t p) {
  return st.phase < p ? st.range_lo : st.phase == p ? st.next_index
                                                    : st.range_hi;
}

/// One outcome per shard, holding its index and range.
std::vector<ShardOutcome> shard_outcomes(const CampaignOptions& o) {
  std::vector<ShardOutcome> out(o.shard_count());
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s].shard = s;
    out[s].range_lo = o.shard_lo(s);
    out[s].range_hi = o.shard_hi(s);
  }
  return out;
}

/// The ONE per-shard fold, shared verbatim by the serial reference and the
/// (possibly crashed-and-resumed) workers: stream the shard's remaining
/// range phase by phase through the acquisition source into the checkpoint
/// accumulators.  `on_checkpoint`/`heartbeat` are null in the serial path;
/// neither influences a single floating-point operation, which is the whole
/// bitwise-equality argument.
void run_shard_range(
    const CampaignOptions& o, const cells::CellLibrary& library,
    WorkerCheckpoint& state, int restart,
    const std::function<void(const WorkerCheckpoint&)>* on_checkpoint,
    const std::function<void()>* heartbeat) {
  for (std::uint32_t phase = state.phase; phase < kPhaseDone; ++phase) {
    // Inactive phases are skipped over, so a checkpoint resumes into the
    // same phase whatever toggles are off.
    if (!phase_active(o, phase)) continue;
    if (state.phase != phase) {
      state.phase = phase;
      state.next_index = state.range_lo;
    }
    if (state.next_index >= state.range_hi) continue;

    core::DpaFlowOptions flow;
    flow.first_trace = state.next_index;
    flow.num_traces = state.range_hi - state.next_index;
    flow.key = o.key;
    // Each extra phase is its own acquisition stream (seed+1 for the fixed
    // class, seed+2 for the quiescent holds): independent noise, same index
    // keying, mirroring the two-source TVLA convention of bench_fig6_cpa.
    flow.seed = o.seed + phase;
    flow.dt = o.dt;
    flow.samples = o.samples;
    flow.noise_sigma = o.noise_sigma;
    flow.gate_per_operation = o.gate_per_operation;
    flow.spice_kernels = o.spice_kernels;
    flow.batch_size = o.batch_size;
    flow.fixed_plaintext =
        phase == kPhaseFixed ? static_cast<int>(o.fixed_plaintext) : -1;
    if (phase == kPhaseStatic) {
      flow.acquisition = core::AcquisitionMode::kStatic;
    }
    if (o.worker_fault_hook) {
      const std::uint64_t shard = state.shard;
      auto hook = o.worker_fault_hook;
      flow.acquisition_fault_hook = [shard, restart, hook](std::size_t t,
                                                           int attempt) {
        hook(shard, restart, t, attempt);
      };
    }

    auto source = core::make_acquisition_source(library, flow);
    const spice::FlowDiagnostics diag_base = state.diagnostics;
    const std::uint64_t phase_start = state.next_index;
    std::size_t last_checkpoint = 0;
    sca::TraceBatch batch;
    while (source->next(batch)) {
      if (phase == kPhaseRandom) {
        state.bins.add_batch(batch);
      } else if (phase == kPhaseFixed) {
        for (const auto& trace : batch.traces) state.fixed.add(trace);
      } else {
        sca::add_window_means(state.windows, sca::kStaticWindows, o.samples,
                              batch);
      }
      // The resume cursor counts ATTEMPTED traces (skipped ones included),
      // read from the source: one next() can span several internal batches
      // when every trace of a batch is skipped.
      const std::size_t consumed = source->traces_consumed();
      state.next_index = phase_start + consumed;
      state.diagnostics = diag_base;
      state.diagnostics.merge(source->diagnostics());
      if (heartbeat != nullptr) (*heartbeat)();
      if (on_checkpoint != nullptr &&
          consumed - last_checkpoint >= o.checkpoint_every) {
        ++state.checkpoints_written;
        (*on_checkpoint)(state);
        last_checkpoint = consumed;
      }
    }
    // A trailing run of skipped traces ends the stream without a final
    // non-empty batch; fold the cursor and diagnostics they left behind.
    state.next_index = phase_start + source->traces_consumed();
    state.diagnostics = diag_base;
    state.diagnostics.merge(source->diagnostics());
  }
  state.phase = kPhaseDone;
}

/// Worker process body: resume from the durable checkpoint (or fresh),
/// stream the shard, publish the final kPhaseDone checkpoint.  Runs inside
/// the forked child; the caller _Exit()s, so throwing is fatal-by-exit-code.
void worker_process(const CampaignOptions& o,
                    const cells::CellLibrary& library, std::uint64_t shard,
                    int restart, std::uint64_t config_digest) {
  const std::string ckpt = checkpoint_path(o, shard);
  const std::string hb = heartbeat_path(o, shard);
  std::uint64_t beats = 0;
  const std::function<void()> heartbeat = [&] {
    write_heartbeat(hb, ++beats);
  };
  heartbeat();  // liveness starts at the first instruction, not first batch

  auto resumed = load_checkpoint(ckpt, o.samples, config_digest);
  WorkerCheckpoint state =
      resumed ? std::move(*resumed) : fresh_state(o, shard);
  if (state.phase == kPhaseDone) return;  // a restart raced a completion

  const std::function<void(const WorkerCheckpoint&)> publish =
      [&](const WorkerCheckpoint& s) {
        const std::function<void()> pre = [&] {
          if (o.pre_publish_hook) {
            o.pre_publish_hook(shard, restart, s.checkpoints_written);
          }
        };
        if (!save_checkpoint(ckpt, s, config_digest, &pre)) {
          throw std::runtime_error("campaign: checkpoint write failed: " +
                                   ckpt);
        }
        heartbeat();
        if (o.post_checkpoint_hook) {
          o.post_checkpoint_hook(shard, restart, s.checkpoints_written);
        }
      };

  run_shard_range(o, library, state, restart, &publish, &heartbeat);
  ++state.checkpoints_written;
  publish(state);
}

// -------------------------------------------------------------------------
// Index-ordered merge: the single arithmetic path both runs share.

/// Merges per-shard states in ascending shard order into `result`, whose
/// shards are shard_outcomes(o).  Absent states (no durable checkpoint ever
/// published) contribute nothing and their full range is reported skipped;
/// partial states contribute their durable prefix.  Each shard's attempted
/// counts come from its state.  MTD is evaluated at shard boundaries: the
/// smallest cumulative trace count from which the true key ranks first at
/// every later boundary.
void merge_checkpoints(
    const CampaignOptions& o,
    const std::vector<std::optional<WorkerCheckpoint>>& states,
    CampaignResult& result) {
  obs::ScopedTimer span("campaign.merge");
  sca::BinnedMoments bins(o.samples);
  sca::Moments fixed(o.samples);
  sca::BinnedMoments windows(sca::kStaticWindows.size());
  const sca::BinnedMoments* projection =
      phase_active(o, kPhaseStatic) ? &windows : nullptr;
  // (traces merged, whether the key ranks first) at each shard boundary,
  // per scorer; the static scorers count quiescent holds.
  sca::FirstPlace first = sca::first_place(o.key, o.mlpa);
  std::vector<std::vector<std::pair<std::size_t, bool>>> points(
      sca::AttackVerdicts::kScorers);
  for (std::size_t s = 0; s < states.size(); ++s) {
    ShardOutcome& outcome = result.shards[s];
    std::uint64_t* attempted[] = {&outcome.random_attempted,
                                  &outcome.fixed_attempted,
                                  &outcome.static_attempted};
    for (std::uint32_t p = kPhaseRandom; p < kPhaseDone; ++p) {
      if (!phase_active(o, p)) continue;
      const std::uint64_t from =
          states[s] ? first_unattempted(*states[s], p) : outcome.range_lo;
      *attempted[p] = from - outcome.range_lo;
      if (from < outcome.range_hi) {
        result.skipped_ranges.push_back({from, outcome.range_hi, p});
      }
    }
    if (!states[s].has_value()) continue;
    const WorkerCheckpoint& st = *states[s];
    bins.merge(st.bins);
    fixed.merge(st.fixed);
    windows.merge(st.windows);
    result.diagnostics.merge(st.diagnostics);
    if (o.compute_mtd) {
      const std::vector<bool> now = first(bins, projection);
      for (std::size_t i = 0; i < now.size(); ++i) {
        const bool held = i >= sca::AttackVerdicts::kAwake;
        points[i].emplace_back((held ? windows : bins).num_traces(), now[i]);
      }
    }
  }
  result.traces_accumulated = bins.num_traces();
  result.static_traces_accumulated = windows.num_traces();
  result.score(bins, projection, o.key, o.mlpa, [&](std::size_t i) {
    return sca::mtd_from_checkpoints(points[i]);
  });
  if (phase_active(o, kPhaseFixed)) {
    result.tvla = sca::welch_t(fixed, bins.pooled());
  }
  obs::Registry::global()
      .counter("campaign.traces_merged")
      .add(result.traces_accumulated);
}

// -------------------------------------------------------------------------
// Coordinator

struct ActiveWorker {
  pid_t pid = -1;
  std::uint64_t shard = 0;
  int restart = 0;
  std::uint64_t heartbeat = 0;
  Clock::time_point heartbeat_changed;
  bool killed_for_hang = false;
};

struct PendingShard {
  std::uint64_t shard = 0;
  int restart = 0;
  Clock::time_point ready;
};

pid_t spawn_worker(const CampaignOptions& o,
                   const cells::CellLibrary& library, std::uint64_t shard,
                   int restart, std::uint64_t config_digest) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child.  The coordinator tore its thread pool down before forking, so we
  // inherit a single-threaded process; give the worker its own budget.
  // _Exit (not exit) keeps the parent's atexit/gtest machinery out of the
  // child -- the coordinator learns everything it needs from the exit code
  // and the spool.
  util::set_parallel_threads(o.worker_threads == 0 ? 1 : o.worker_threads);
  try {
    worker_process(o, library, shard, restart, config_digest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign worker (shard %llu): %s\n",
                 static_cast<unsigned long long>(shard), e.what());
    ::_Exit(3);
  } catch (...) {
    ::_Exit(3);
  }
  ::_Exit(0);
}

}  // namespace

// -------------------------------------------------------------------------
// Options geometry

std::size_t CampaignOptions::effective_shard_size() const {
  if (shard_size != 0) return shard_size;
  // Auto layout: 16 shards, NOT a function of num_workers -- the shard
  // geometry (and with it the merge order, the config digest, and every
  // spooled checkpoint) must survive re-running the campaign with a
  // different worker count.
  return std::max<std::size_t>(1, (num_traces + 15) / 16);
}

std::size_t CampaignOptions::shard_count() const {
  const std::size_t size = effective_shard_size();
  return (num_traces + size - 1) / size;
}

std::size_t CampaignOptions::shard_lo(std::size_t shard) const {
  return shard * effective_shard_size();
}

std::size_t CampaignOptions::shard_hi(std::size_t shard) const {
  return std::min(num_traces, (shard + 1) * effective_shard_size());
}

std::uint64_t campaign_config_digest(const CampaignOptions& options) {
  // Canonical string over every option that shapes the trace stream or the
  // shard layout.  Floats go in as raw bits: a digest over "%g" text would
  // alias distinct configurations.
  std::uint64_t dt_bits = 0;
  std::uint64_t noise_bits = 0;
  std::memcpy(&dt_bits, &options.dt, sizeof(dt_bits));
  std::memcpy(&noise_bits, &options.noise_sigma, sizeof(noise_bits));
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "pgc1|%d|%zu|%zu|%u|%llu|%llx|%llx|%d|%d|%u|%d|%d|%d|%zu",
      static_cast<int>(options.style), options.num_traces, options.samples,
      options.key, static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(dt_bits),
      static_cast<unsigned long long>(noise_bits),
      options.gate_per_operation ? 1 : 0, options.spice_kernels ? 1 : 0,
      options.fixed_plaintext, options.tvla ? 1 : 0,
      options.static_power ? 1 : 0, options.mlpa ? 1 : 0,
      options.effective_shard_size());
  return fnv1a64(buf);
}

// -------------------------------------------------------------------------

CampaignResult run_campaign_serial(const CampaignOptions& user_options) {
  validate(user_options);
  obs::ScopedTimer span("campaign.serial");
  // The serial reference is the CLEAN campaign: the fault-injection seams
  // target worker processes and supervision, neither of which exists here
  // (an in-process raise(SIGKILL) would take the caller down with it).
  CampaignOptions options = user_options;
  options.pre_publish_hook = nullptr;
  options.post_checkpoint_hook = nullptr;
  options.worker_fault_hook = nullptr;
  const cells::CellLibrary& library = library_for(options.style);
  CampaignResult result;
  result.shards = shard_outcomes(options);
  std::vector<std::optional<WorkerCheckpoint>> states;
  for (ShardOutcome& outcome : result.shards) {
    WorkerCheckpoint state = fresh_state(options, outcome.shard);
    run_shard_range(options, library, state, /*restart=*/0, nullptr, nullptr);
    outcome.completed = true;
    states.push_back(std::move(state));
  }
  merge_checkpoints(options, states, result);
  return result;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  validate(options);
  obs::ScopedTimer span("campaign.distributed");
  const cells::CellLibrary& library = library_for(options.style);
  const std::uint64_t digest = campaign_config_digest(options);

  std::error_code ec;
  std::filesystem::create_directories(options.spool_dir, ec);
  if (ec) {
    throw std::runtime_error("campaign: cannot create spool dir '" +
                             options.spool_dir + "': " + ec.message());
  }

  static struct Handles {
    obs::Counter spawned, restarts, timeouts, completed, skipped, ckpt_bytes;
    Handles()
        : spawned(obs::Registry::global().counter(
              "campaign.workers_spawned")),
          restarts(obs::Registry::global().counter("campaign.restarts")),
          timeouts(obs::Registry::global().counter(
              "campaign.heartbeat_timeouts")),
          completed(obs::Registry::global().counter(
              "campaign.shards_completed")),
          skipped(obs::Registry::global().counter("campaign.shards_skipped")),
          ckpt_bytes(obs::Registry::global().counter(
              "campaign.checkpoint_bytes_read")) {}
  } handles;

  CampaignResult result;
  result.shards = shard_outcomes(options);
  const std::size_t shards = result.shards.size();

  // fork() and a live thread pool do not mix: the child would inherit a
  // pool whose threads died at the fork.  Tear the pool down for the whole
  // supervision window and restore the caller's setting afterwards.
  const std::size_t prev_threads = util::set_parallel_threads(1);

  std::deque<PendingShard> pending;
  for (std::size_t s = 0; s < shards; ++s) {
    pending.push_back({s, 0, Clock::now()});
  }
  std::vector<ActiveWorker> active;
  std::size_t settled = 0;  // completed + skipped

  const auto poll_sleep = std::chrono::duration<double>(
      options.poll_interval_s > 0 ? options.poll_interval_s : 0.01);
  const auto hb_timeout =
      std::chrono::duration<double>(options.heartbeat_timeout_s);

  const auto fail_shard = [&](std::uint64_t shard, int restart) {
    ShardOutcome& outcome = result.shards[shard];
    if (static_cast<std::size_t>(restart) >= options.max_restarts) {
      // Retry budget exhausted: graceful degradation.  The shard's durable
      // prefix still merges below; only the tail is lost.
      outcome.completed = false;
      outcome.restarts = restart;
      ++result.shards_skipped;
      ++settled;
      handles.skipped.add(1);
      return;
    }
    ++result.restarts;
    handles.restarts.add(1);
    outcome.restarts = restart + 1;
    const double delay =
        std::min(options.backoff_cap_s,
                 options.backoff_base_s * static_cast<double>(1ull << std::min(
                                              restart, 20)));
    pending.push_back(
        {shard, restart + 1,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(delay))});
  };

  while (settled < shards) {
    // Spawn up to the worker budget from the ready end of the queue.
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() && active.size() < options.num_workers;) {
      if (it->ready > now) {
        ++it;
        continue;
      }
      const pid_t pid =
          spawn_worker(options, library, it->shard, it->restart, digest);
      if (pid < 0) {
        if (active.empty()) {
          util::set_parallel_threads(prev_threads);
          throw std::runtime_error("campaign: fork failed with no workers "
                                   "in flight");
        }
        break;  // EAGAIN under load: retry once something is reaped
      }
      ++result.workers_spawned;
      handles.spawned.add(1);
      ActiveWorker w;
      w.pid = pid;
      w.shard = it->shard;
      w.restart = it->restart;
      w.heartbeat = read_heartbeat(heartbeat_path(options, it->shard));
      w.heartbeat_changed = Clock::now();
      active.push_back(w);
      it = pending.erase(it);
    }

    // Reap exits and enforce heartbeats.
    for (std::size_t i = 0; i < active.size();) {
      ActiveWorker& w = active[i];
      int status = 0;
      const pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
      if (reaped == w.pid) {
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        bool done = false;
        if (clean) {
          const auto state = load_checkpoint(
              checkpoint_path(options, w.shard), options.samples, digest);
          done = state.has_value() && state->phase == kPhaseDone;
        }
        if (done) {
          ShardOutcome& outcome = result.shards[w.shard];
          outcome.completed = true;
          outcome.restarts = w.restart;
          ++settled;
          handles.completed.add(1);
        } else {
          fail_shard(w.shard, w.restart);
        }
        active[i] = active.back();
        active.pop_back();
        continue;
      }
      if (reaped == 0 && !w.killed_for_hang) {
        const std::uint64_t beat =
            read_heartbeat(heartbeat_path(options, w.shard));
        const Clock::time_point t = Clock::now();
        if (beat != w.heartbeat) {
          w.heartbeat = beat;
          w.heartbeat_changed = t;
        } else if (t - w.heartbeat_changed > hb_timeout) {
          // Hung (a worker stuck inside one simulation never beats): kill
          // and let the normal reap path restart it from its checkpoint.
          ::kill(w.pid, SIGKILL);
          w.killed_for_hang = true;
          ++result.heartbeat_timeouts;
          handles.timeouts.add(1);
        }
      }
      ++i;
    }
    if (settled < shards) std::this_thread::sleep_for(poll_sleep);
  }
  util::set_parallel_threads(prev_threads);

  // Merge whatever the spool holds, index-ordered: full shards, and the
  // durable prefixes of skipped ones.
  std::vector<std::optional<WorkerCheckpoint>> states;
  states.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto state =
        load_checkpoint(checkpoint_path(options, s), options.samples, digest);
    if (state.has_value()) {
      std::error_code size_ec;
      const auto bytes = std::filesystem::file_size(
          checkpoint_path(options, s), size_ec);
      if (!size_ec) handles.ckpt_bytes.add(bytes);
    }
    states.push_back(std::move(state));
  }
  merge_checkpoints(options, states, result);
  return result;
}

// -------------------------------------------------------------------------

bool bitwise_equal(const CampaignResult& a, const CampaignResult& b) {
  const auto same = [](const auto& x, const auto& y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  return same(a.cpa.peak_correlation, b.cpa.peak_correlation) &&
         same(a.dpa.peak_difference, b.dpa.peak_difference) &&
         same(a.tvla.max_abs_t, b.tvla.max_abs_t) &&
         same(a.static_awake.correlation, b.static_awake.correlation) &&
         same(a.static_asleep.correlation, b.static_asleep.correlation) &&
         same(a.mlpa.score, b.mlpa.score) && a.key_rank == b.key_rank &&
         a.mtd == b.mtd && a.static_awake_mtd == b.static_awake_mtd &&
         a.static_asleep_mtd == b.static_asleep_mtd &&
         a.mlpa_mtd == b.mlpa_mtd &&
         a.traces_accumulated == b.traces_accumulated &&
         a.static_traces_accumulated == b.static_traces_accumulated;
}

obs::json::Value CampaignResult::to_json() const {
  using obs::json::Array;
  using obs::json::Object;
  using obs::json::Value;
  Object root;
  root.emplace_back("key_rank", Value(key_rank));
  root.emplace_back("margin", Value(margin));
  root.emplace_back("mtd", Value(static_cast<std::uint64_t>(mtd)));
  root.emplace_back("tvla_max_abs_t", Value(tvla.max_abs_t));
  root.emplace_back("tvla_leaks", Value(tvla.leaks()));
  add_json(root, static_traces_accumulated);
  root.emplace_back("traces_accumulated", Value(traces_accumulated));
  root.emplace_back("workers_spawned", Value(workers_spawned));
  root.emplace_back("restarts", Value(restarts));
  root.emplace_back("heartbeat_timeouts", Value(heartbeat_timeouts));
  root.emplace_back("shards_skipped", Value(shards_skipped));
  root.emplace_back("degraded", Value(degraded()));
  Array skipped;
  for (const SkippedRange& r : skipped_ranges) {
    Object range;
    range.emplace_back("lo", Value(r.lo));
    range.emplace_back("hi", Value(r.hi));
    range.emplace_back(
        "phase", Value(r.phase == kPhaseFixed    ? "fixed"
                       : r.phase == kPhaseStatic ? "static"
                                                 : "random"));
    skipped.emplace_back(std::move(range));
  }
  root.emplace_back("skipped_ranges", Value(std::move(skipped)));
  Array shard_list;
  for (const ShardOutcome& s : shards) {
    Object shard;
    shard.emplace_back("shard", Value(s.shard));
    shard.emplace_back("lo", Value(s.range_lo));
    shard.emplace_back("hi", Value(s.range_hi));
    shard.emplace_back("completed", Value(s.completed));
    shard.emplace_back("restarts", Value(s.restarts));
    shard.emplace_back("random_attempted", Value(s.random_attempted));
    shard.emplace_back("fixed_attempted", Value(s.fixed_attempted));
    shard.emplace_back("static_attempted", Value(s.static_attempted));
    shard_list.emplace_back(std::move(shard));
  }
  root.emplace_back("shards", Value(std::move(shard_list)));
  root.emplace_back("diagnostics", diagnostics.to_json_value());
  return Value(std::move(root));
}

}  // namespace pgmcml::campaign
