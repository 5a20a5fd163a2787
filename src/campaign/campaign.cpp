#include "pgmcml/campaign/campaign.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "pgmcml/cache/key.hpp"
#include "pgmcml/campaign/checkpoint.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/obs/json.hpp"
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
  if (o.batch_size == 0) {
    throw std::invalid_argument("campaign: batch_size must be > 0");
  }
  if (!std::isfinite(o.heartbeat_timeout_s) || o.heartbeat_timeout_s <= 0.0) {
    throw std::invalid_argument(
        "campaign: heartbeat_timeout_s must be positive and finite");
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

/// The shard a worker streams and its incarnation: what the fault-injection
/// hooks are told.
struct Lease {
  std::uint64_t shard = 0;
  int restart = 0;
};

/// The acquisition sources of one process, one per phase, each built on
/// first use and re-ranged onto every later shard with one
/// AcquisitionSource::seek.  Synthesis, the precharge, the tracer and the
/// plaintext memo are paid once per worker (once per serial run), not once
/// per shard and phase; the streams are bitwise those of fresh sources.
class PhaseSources {
 public:
  /// The worker fault hook reads `lease` at every call, so it sees the
  /// shard currently streamed.
  PhaseSources(const CampaignOptions& o, const cells::CellLibrary& library,
               const Lease& lease)
      : o_(o), library_(library), lease_(lease) {}

  /// Phase `phase`'s source, ranged onto global traces [first, first + n).
  core::AcquisitionSource& range(std::uint32_t phase, std::uint64_t first,
                                 std::uint64_t n) {
    auto& source = sources_[phase];
    if (source != nullptr) {
      source->seek(first, n);
      return *source;
    }
    core::DpaFlowOptions flow;
    flow.first_trace = first;
    flow.num_traces = n;
    flow.key = o_.key;
    // Each extra phase is its own acquisition stream (seed+1 for the fixed
    // class, seed+2 for the quiescent holds): independent noise, same index
    // keying, mirroring the two-source TVLA convention of bench_fig6_cpa.
    flow.seed = o_.seed + phase;
    flow.dt = o_.dt;
    flow.samples = o_.samples;
    flow.noise_sigma = o_.noise_sigma;
    flow.gate_per_operation = o_.gate_per_operation;
    flow.spice_kernels = o_.spice_kernels;
    flow.batch_size = o_.batch_size;
    flow.fixed_plaintext =
        phase == kPhaseFixed ? static_cast<int>(o_.fixed_plaintext) : -1;
    if (phase == kPhaseStatic) {
      flow.acquisition = core::AcquisitionMode::kStatic;
    }
    if (o_.worker_fault_hook) {
      const Lease* lease = &lease_;
      auto hook = o_.worker_fault_hook;
      flow.acquisition_fault_hook = [lease, hook](std::size_t t, int attempt) {
        hook(lease->shard, lease->restart, t, attempt);
      };
    }
    source = core::make_acquisition_source(library_, flow);
    return *source;
  }

 private:
  const CampaignOptions& o_;
  const cells::CellLibrary& library_;
  const Lease& lease_;
  std::array<std::unique_ptr<core::AcquisitionSource>, kPhaseDone> sources_;
};

/// The ONE per-shard fold, shared verbatim by the serial reference and the
/// (possibly crashed-and-resumed) workers: stream the shard's remaining
/// range phase by phase through the acquisition sources into the checkpoint
/// accumulators.  `on_checkpoint`/`heartbeat` are null in the serial path;
/// neither influences a single floating-point operation, which is the whole
/// bitwise-equality argument.
void run_shard_range(
    const CampaignOptions& o, PhaseSources& sources, WorkerCheckpoint& state,
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

    core::AcquisitionSource& source = sources.range(
        phase, state.next_index, state.range_hi - state.next_index);
    const spice::FlowDiagnostics diag_base = state.diagnostics;
    const std::uint64_t phase_start = state.next_index;
    std::size_t last_checkpoint = 0;
    sca::TraceBatch batch;
    while (source.next(batch)) {
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
      const std::size_t consumed = source.traces_consumed();
      state.next_index = phase_start + consumed;
      state.diagnostics = diag_base;
      state.diagnostics.merge(source.diagnostics());
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
    state.next_index = phase_start + source.traces_consumed();
    state.diagnostics = diag_base;
    state.diagnostics.merge(source.diagnostics());
  }
  state.phase = kPhaseDone;
}

// -------------------------------------------------------------------------
// Index-ordered merge: the single arithmetic path both runs share.

/// Folds per-shard states into `result` (whose shards are shard_outcomes(o))
/// strictly in ascending shard order, one at a time, so a caller can load a
/// state, fold it and drop it.  An absent state (no durable checkpoint ever
/// published) contributes nothing and its full range is reported skipped; a
/// partial state contributes its durable prefix.  Each shard's attempted
/// counts come from its state.  MTD is evaluated at shard boundaries: the
/// smallest cumulative trace count from which the true key ranks first at
/// every later boundary.
class ShardMerge {
 public:
  ShardMerge(const CampaignOptions& o, CampaignResult& result)
      : o_(o),
        result_(result),
        bins_(o.samples),
        fixed_(o.samples),
        windows_(sca::kStaticWindows.size()),
        projection_(phase_active(o, kPhaseStatic) ? &windows_ : nullptr),
        first_(sca::first_place(o.key, o.mlpa)),
        points_(sca::AttackVerdicts::kScorers) {}
  ShardMerge(const ShardMerge&) = delete;
  ShardMerge& operator=(const ShardMerge&) = delete;

  /// The shard the next fold() takes.
  std::size_t next_shard() const { return next_; }

  /// Folds shard next_shard(); `state` is null when it has no checkpoint.
  void fold(const WorkerCheckpoint* state) {
    obs::ScopedTimer span("campaign.merge");
    ShardOutcome& outcome = result_.shards[next_++];
    std::uint64_t* attempted[] = {&outcome.random_attempted,
                                  &outcome.fixed_attempted,
                                  &outcome.static_attempted};
    for (std::uint32_t p = kPhaseRandom; p < kPhaseDone; ++p) {
      if (!phase_active(o_, p)) continue;
      const std::uint64_t from = state != nullptr
                                     ? first_unattempted(*state, p)
                                     : outcome.range_lo;
      *attempted[p] = from - outcome.range_lo;
      if (from < outcome.range_hi) {
        result_.skipped_ranges.push_back({from, outcome.range_hi, p});
      }
    }
    if (state == nullptr) return;
    // The boundary after the previous state is checked only once a later
    // state arrives: the last boundary is the final statistic, which the
    // verdicts scored in finish() answer, so it is not scored twice.
    if (boundary_pending_) record_boundary(first_(bins_, projection_));
    bins_.merge(state->bins);
    fixed_.merge(state->fixed);
    windows_.merge(state->windows);
    result_.diagnostics.merge(state->diagnostics);
    boundary_pending_ = o_.compute_mtd;
  }

  /// Scores the merged statistic into the result.
  void finish() {
    obs::ScopedTimer span("campaign.merge");
    if (boundary_pending_) {
      record_boundary(std::vector<bool>(points_.size(), false));
    }
    result_.traces_accumulated = bins_.num_traces();
    result_.static_traces_accumulated = windows_.num_traces();
    result_.score(bins_, projection_, o_.key, o_.mlpa, [&](std::size_t i) {
      if (!points_[i].empty()) {
        points_[i].back().second = result_.key_first()[i];
      }
      return sca::mtd_from_checkpoints(points_[i]);
    });
    if (phase_active(o_, kPhaseFixed)) {
      result_.tvla = sca::welch_t(fixed_, bins_.pooled());
    }
    obs::Registry::global()
        .counter("campaign.traces_merged")
        .add(result_.traces_accumulated);
  }

 private:
  /// (traces merged, whether the key ranks first) per scorer; the static
  /// scorers count quiescent holds.
  void record_boundary(const std::vector<bool>& first) {
    for (std::size_t i = 0; i < first.size(); ++i) {
      const bool held = i >= sca::AttackVerdicts::kAwake;
      points_[i].emplace_back((held ? windows_ : bins_).num_traces(),
                              first[i]);
    }
  }

  const CampaignOptions& o_;
  CampaignResult& result_;
  sca::BinnedMoments bins_;
  sca::Moments fixed_;
  sca::BinnedMoments windows_;
  const sca::BinnedMoments* projection_;
  sca::FirstPlace first_;
  std::vector<std::vector<std::pair<std::size_t, bool>>> points_;
  std::size_t next_ = 0;
  bool boundary_pending_ = false;
};

// -------------------------------------------------------------------------
// Workers and the lease protocol

/// One message of the lease protocol, the same 24 bytes both ways: the
/// coordinator sends {kLease, restart, shard}; the worker answers {kDone,
/// restart, shard, sent} once that shard's final checkpoint is fsynced and
/// renamed into place.  Fixed-width fields in host byte order: all a
/// worker needs is in the frame and the shared spool.
struct Frame {
  std::uint32_t kind = 0;
  std::int32_t restart = 0;
  std::uint64_t shard = 0;
  /// kDone: the worker's steady-clock time at sending, in ns.  The clock is
  /// the host's monotonic clock, shared by the forked processes, so the
  /// coordinator's lease wait counts the time the frame sat unread.
  std::int64_t sent_ns = 0;
};
enum : std::uint32_t { kLease = 1, kDone = 2 };

bool send_frame(int fd, const Frame& frame) {
  ssize_t n = 0;
  do {
    // MSG_NOSIGNAL: a peer that died fails the send instead of raising
    // SIGPIPE in the sender.
    n = ::send(fd, &frame, sizeof(frame), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  return n == static_cast<ssize_t>(sizeof(frame));
}

/// Reads one frame; false once the peer has closed its end or died.
bool recv_frame(int fd, Frame& frame) {
  auto* bytes = reinterpret_cast<char*>(&frame);
  std::size_t got = 0;
  while (got < sizeof(frame)) {
    const ssize_t n = ::recv(fd, bytes + got, sizeof(frame) - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Where worker `pid` leaves the obs snapshot of its own work.
std::string worker_obs_path(const CampaignOptions& o, pid_t pid) {
  return o.spool_dir + "/worker-" + std::to_string(pid) + ".obs";
}

/// One lease: resume the shard from its durable checkpoint (or fresh),
/// stream it, publish the final kPhaseDone checkpoint.
void run_lease(const CampaignOptions& o, PhaseSources& sources,
               const Lease& lease, const std::function<void()>& heartbeat,
               std::uint64_t config_digest) {
  const std::string ckpt = checkpoint_path(o, lease.shard);
  heartbeat();  // liveness starts with the lease, not its first batch

  auto resumed = load_checkpoint(ckpt, o.samples, config_digest);
  WorkerCheckpoint state =
      resumed ? std::move(*resumed) : fresh_state(o, lease.shard);
  if (state.phase == kPhaseDone) return;  // a restart raced a completion

  const std::function<void(const WorkerCheckpoint&)> publish =
      [&](const WorkerCheckpoint& s) {
        const std::function<void()> pre = [&] {
          if (o.pre_publish_hook) {
            o.pre_publish_hook(lease.shard, lease.restart,
                               s.checkpoints_written);
          }
        };
        bool saved = false;
        {
          obs::ScopedTimer span("campaign.checkpoint_write");
          saved = save_checkpoint(ckpt, s, config_digest, &pre);
        }
        if (!saved) {
          throw std::runtime_error("campaign: checkpoint write failed: " +
                                   ckpt);
        }
        heartbeat();
        if (o.post_checkpoint_hook) {
          o.post_checkpoint_hook(lease.shard, lease.restart,
                                 s.checkpoints_written);
        }
      };

  run_shard_range(o, sources, state, &publish, &heartbeat);
  ++state.checkpoints_written;
  publish(state);
}

/// Worker process body: take leases until the coordinator closes its end,
/// then leave this process's obs snapshot in the spool and exit.  _Exit
/// (not exit) keeps the parent's atexit/gtest machinery out of the child;
/// a throw ends the process with status 3, and the coordinator requeues
/// the lease it held.
[[noreturn]] void worker_main(const CampaignOptions& o,
                              const cells::CellLibrary& library, int fd,
                              std::uint64_t config_digest) {
  // The coordinator tore its thread pool down before forking, so we inherit
  // a single-threaded process; give the worker its own budget.
  util::set_parallel_threads(o.worker_threads == 0 ? 1 : o.worker_threads);
  // From here the registry counts this process's own work: the delta since
  // fork that it ships home.
  obs::Registry::global().reset();
  Lease lease;
  int status = 0;
  try {
    PhaseSources sources(o, library, lease);
    std::string hb;
    std::uint64_t beats = 0;
    const std::function<void()> heartbeat = [&] {
      write_heartbeat(hb, ++beats);
    };
    Frame frame;
    while (recv_frame(fd, frame) && frame.kind == kLease) {
      lease = {frame.shard, frame.restart};
      hb = heartbeat_path(o, lease.shard);
      run_lease(o, sources, lease, heartbeat, config_digest);
      const std::int64_t sent_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count();
      if (!send_frame(fd, {kDone, lease.restart, lease.shard, sent_ns})) {
        break;
      }
    }
    obs::json::save_file_atomic(worker_obs_path(o, ::getpid()),
                                obs::Registry::global().snapshot().to_json());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign worker (shard %llu): %s\n",
                 static_cast<unsigned long long>(lease.shard), e.what());
    status = 3;
  } catch (...) {
    status = 3;
  }
  ::_Exit(status);
}

// -------------------------------------------------------------------------
// Coordinator

struct PendingShard {
  std::uint64_t shard = 0;
  int restart = 0;
  Clock::time_point ready;
};

/// A forked worker as the coordinator sees it: its end of the worker's
/// socket and, while it holds one, its lease and the heartbeat of the
/// leased shard.
struct WorkerSlot {
  pid_t pid = -1;
  int fd = -1;
  bool leased = false;
  Lease lease;
  std::uint64_t heartbeat = 0;
  Clock::time_point heartbeat_changed;
  bool killed_for_hang = false;
  /// When it sent its last `done` frame, until its next lease is sent: the
  /// start of the `campaign.lease_wait` it spends idle.
  std::optional<Clock::time_point> done_at;
};

/// The coordinator's workers.  Whatever is still here when the coordinator
/// unwinds is closed, killed and reaped, so an exception leaves no orphans.
struct WorkerPool {
  std::vector<WorkerSlot> slots;
  /// Workers whose socket is closed: each leaves its obs snapshot and
  /// exits; reaped at the end of the campaign.
  std::vector<pid_t> retired;

  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() {
    while (!slots.empty()) reap(slots.size() - 1);
    for (const pid_t pid : retired) {
      ::kill(pid, SIGKILL);
      wait_for(pid);
    }
  }

  /// Closes slot i's socket, SIGKILLs its process (a no-op on one that
  /// already exited), reaps it and drops the slot.
  void reap(std::size_t i) {
    const WorkerSlot w = take(i);
    ::kill(w.pid, SIGKILL);
    wait_for(w.pid);
  }

  /// Ends slot i's stream of leases: closing its socket lets it leave its
  /// snapshot and exit while the coordinator goes on.
  void retire(std::size_t i) { retired.push_back(take(i).pid); }

  /// The wait status of `pid`, once it has exited.
  static int wait_for(pid_t pid) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
  }

 private:
  WorkerSlot take(std::size_t i) {
    const WorkerSlot w = slots[i];
    slots[i] = slots.back();
    slots.pop_back();
    ::close(w.fd);
    return w;
  }
};

/// Forks one worker connected to the coordinator by a socketpair.  Returns
/// a slot with pid -1 when the socket or the fork fails.
WorkerSlot spawn_worker(const CampaignOptions& o,
                        const cells::CellLibrary& library,
                        std::uint64_t config_digest, const WorkerPool& pool) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return {};
  }
  pid_t pid = 0;
  {
    // The child leaves this scope too; its copy of the observation is wiped
    // with the rest of its registry.
    obs::ScopedTimer span("campaign.spawn");
    pid = ::fork();
  }
  if (pid == 0) {
    ::close(fds[0]);
    // The siblings' sockets are the coordinator's alone: a sibling holding
    // one would keep that worker from ever seeing the end of its stream.
    for (const WorkerSlot& w : pool.slots) ::close(w.fd);
    worker_main(o, library, fds[1], config_digest);
  }
  ::close(fds[1]);
  WorkerSlot w;
  if (pid < 0) {
    ::close(fds[0]);
    return w;
  }
  w.pid = pid;
  w.fd = fds[0];
  return w;
}

/// Adds worker `pid`'s obs snapshot, when it left one, to this process's
/// registry and removes the file.
void absorb_worker_obs(const CampaignOptions& o, pid_t pid) {
  const std::string path = worker_obs_path(o, pid);
  if (const auto doc = obs::json::load_file(path)) {
    try {
      obs::Registry::global().absorb(obs::Snapshot::from_json(*doc));
    } catch (const std::exception&) {
      // A malformed snapshot only loses that worker's counts.
    }
  }
  std::remove(path.c_str());
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
  const int len = std::snprintf(
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
  return cache::digest_bytes(buf, static_cast<std::size_t>(len)).hi;
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
  CampaignResult result;
  result.shards = shard_outcomes(options);
  ShardMerge merge(options, result);
  const Lease no_lease;  // the hooks are stripped
  PhaseSources sources(options, library_for(options.style), no_lease);
  for (ShardOutcome& outcome : result.shards) {
    WorkerCheckpoint state = fresh_state(options, outcome.shard);
    run_shard_range(options, sources, state, nullptr, nullptr);
    outcome.completed = true;
    merge.fold(&state);
  }
  merge.finish();
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
    obs::Counter spawned, restarts, timeouts, completed, skipped;
    obs::Histogram lease_wait;
    Handles()
        : spawned(obs::Registry::global().counter(
              "campaign.workers_spawned")),
          restarts(obs::Registry::global().counter("campaign.restarts")),
          timeouts(obs::Registry::global().counter(
              "campaign.heartbeat_timeouts")),
          completed(obs::Registry::global().counter(
              "campaign.shards_completed")),
          skipped(obs::Registry::global().counter("campaign.shards_skipped")),
          lease_wait(
              obs::Registry::global().histogram("campaign.lease_wait")) {}
  } handles;

  CampaignResult result;
  result.shards = shard_outcomes(options);
  const std::size_t shards = result.shards.size();
  ShardMerge merge(options, result);

  std::deque<PendingShard> pending;
  for (std::size_t s = 0; s < shards; ++s) {
    pending.push_back({s, 0, Clock::now()});
  }
  std::vector<char> settled(shards, 0);  // completed or skipped
  std::size_t num_settled = 0;

  const int poll_ms = static_cast<int>(std::clamp(
      std::ceil((options.poll_interval_s > 0 ? options.poll_interval_s
                                             : 0.01) *
                1e3),
      1.0, 1e9));
  const auto hb_timeout =
      std::chrono::duration<double>(options.heartbeat_timeout_s);
  const std::size_t max_workers = std::min(options.num_workers, shards);

  const auto settle = [&](std::uint64_t shard, bool completed, int restart) {
    ShardOutcome& outcome = result.shards[shard];
    outcome.completed = completed;
    outcome.restarts = restart;
    settled[shard] = 1;
    ++num_settled;
    (completed ? handles.completed : handles.skipped).add(1);
  };

  const auto fail_shard = [&](std::uint64_t shard, int restart) {
    if (static_cast<std::size_t>(restart) >= options.max_restarts) {
      // Retry budget exhausted: graceful degradation.  The shard's durable
      // prefix still merges below; only the tail is lost.
      ++result.shards_skipped;
      settle(shard, false, restart);
      return;
    }
    ++result.restarts;
    handles.restarts.add(1);
    result.shards[shard].restarts = restart + 1;
    const double delay =
        std::min(options.backoff_cap_s,
                 options.backoff_base_s * static_cast<double>(1ull << std::min(
                                              restart, 20)));
    pending.push_back(
        {shard, restart + 1,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(delay))});
  };

  // Frontier merge: once a shard and every lower one have settled, read its
  // checkpoint (exactly once), fold it and drop it, so merging overlaps the
  // workers and at most one loaded checkpoint is alive.
  const auto frontier_ready = [&] {
    return merge.next_shard() < shards && settled[merge.next_shard()];
  };
  const auto fold_frontier = [&] {
    std::optional<WorkerCheckpoint> state;
    {
      obs::ScopedTimer read_span("campaign.checkpoint_read");
      state = load_checkpoint(checkpoint_path(options, merge.next_shard()),
                              options.samples, digest);
    }
    merge.fold(state ? &*state : nullptr);
  };

  WorkerPool pool;
  // Lease every ready shard to an idle worker, forking workers up to the
  // budget while none is idle.  With nothing left to lease, idle workers
  // are retired at once; should a lease be requeued later, a replacement
  // is forked for it.
  const auto dispatch = [&] {
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->ready > now) {
        ++it;
        continue;
      }
      auto idle = std::find_if(pool.slots.begin(), pool.slots.end(),
                               [](const WorkerSlot& w) { return !w.leased; });
      if (idle == pool.slots.end()) {
        if (pool.slots.size() >= max_workers) break;
        WorkerSlot w = spawn_worker(options, library, digest, pool);
        if (w.pid < 0) {
          if (pool.slots.empty()) {
            throw std::runtime_error(
                "campaign: fork failed with no workers in flight");
          }
          break;  // EAGAIN under load: retry once something is reaped
        }
        ++result.workers_spawned;
        handles.spawned.add(1);
        pool.slots.push_back(w);
        idle = pool.slots.end() - 1;
      }
      // A failed send means the worker died; the next poll reaps it and the
      // shard stays pending.
      if (!send_frame(idle->fd, {kLease, it->restart, it->shard, 0})) break;
      if (idle->done_at) {
        handles.lease_wait.observe(
            std::chrono::duration<double>(Clock::now() - *idle->done_at)
                .count());
        idle->done_at.reset();
      }
      idle->leased = true;
      idle->lease = {it->shard, it->restart};
      idle->heartbeat = read_heartbeat(heartbeat_path(options, it->shard));
      idle->heartbeat_changed = Clock::now();
      it = pending.erase(it);
    }
    if (!pending.empty()) return;
    for (std::size_t i = pool.slots.size(); i-- > 0;) {
      if (!pool.slots[i].leased) pool.retire(i);
    }
  };

  // fork() and a live thread pool do not mix: a child would inherit a pool
  // whose threads died at the fork.  Tear the pool down for the whole
  // supervision window (every fork, replacements included, happens inside
  // it) and restore the caller's setting afterwards.
  const std::size_t prev_threads = util::set_parallel_threads(1);
  std::vector<pollfd> polled;
  try {
    dispatch();
    while (num_settled < shards || merge.next_shard() < shards) {
      // Wait for completions and deaths -- not at all while a fold is
      // ready, at most one poll interval otherwise, so the heartbeat checks
      // and backed-off leases keep their cadence.
      polled.clear();
      for (const WorkerSlot& w : pool.slots) {
        polled.push_back({w.fd, POLLIN, 0});
      }
      if (::poll(polled.data(), polled.size(),
                 frontier_ready() ? 0 : poll_ms) < 0 &&
          errno != EINTR) {
        throw std::runtime_error(std::string("campaign: poll failed: ") +
                                 std::strerror(errno));
      }
      // Downward, so a removal's swap with the last slot only moves a slot
      // already visited.
      for (std::size_t i = polled.size(); i-- > 0;) {
        if (polled[i].revents == 0) continue;
        WorkerSlot& w = pool.slots[i];
        Frame frame;
        if (recv_frame(w.fd, frame) && frame.kind == kDone && w.leased &&
            frame.shard == w.lease.shard) {
          w.leased = false;
          w.done_at = Clock::time_point(
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::nanoseconds(frame.sent_ns)));
          settle(w.lease.shard, true, w.lease.restart);
          continue;
        }
        // End of stream (the worker died) or a frame out of protocol:
        // reap it and requeue whatever it held.
        const WorkerSlot dead = w;
        pool.reap(i);
        if (dead.leased) fail_shard(dead.lease.shard, dead.lease.restart);
      }

      // Enforce heartbeats on leased workers.
      const Clock::time_point t = Clock::now();
      for (WorkerSlot& w : pool.slots) {
        if (!w.leased || w.killed_for_hang) continue;
        const std::uint64_t beat =
            read_heartbeat(heartbeat_path(options, w.lease.shard));
        if (beat != w.heartbeat) {
          w.heartbeat = beat;
          w.heartbeat_changed = t;
        } else if (t - w.heartbeat_changed > hb_timeout) {
          // Hung (a worker stuck inside one simulation never beats): kill
          // it; its end of stream requeues the lease from its checkpoint.
          ::kill(w.pid, SIGKILL);
          w.killed_for_hang = true;
          ++result.heartbeat_timeouts;
          handles.timeouts.add(1);
        }
      }

      // Leases first, then one fold: a worker never waits on the merge
      // for longer than one checkpoint.
      dispatch();
      if (frontier_ready()) fold_frontier();
    }

    // Every worker is idle by now; take in what each one counted.
    while (!pool.slots.empty()) pool.retire(pool.slots.size() - 1);
    for (const pid_t pid : pool.retired) {
      const int status = WorkerPool::wait_for(pid);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        absorb_worker_obs(options, pid);
      }
    }
    pool.retired.clear();
  } catch (...) {
    util::set_parallel_threads(prev_threads);
    throw;
  }
  util::set_parallel_threads(prev_threads);
  merge.finish();
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
