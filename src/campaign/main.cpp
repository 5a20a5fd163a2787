// pgmcml_campaign: the sharded, crash-tolerant campaign driver.
//
//   pgmcml_campaign --traces 100000 --workers 8 --spool /tmp/spool --out out.json
//
// Shards the CPA/DPA/TVLA/MTD campaign by global trace index over forked
// worker processes with checkpointed recovery (see campaign.hpp).  With
// --verify-serial it also runs the in-process serial reference and checks
// the distributed result is bitwise equal on the attack statistics --
// the acceptance gate CI runs with an injected worker crash.
//
// Options come from the defaults of CampaignOptions, then --config, then
// the flags; the environment sets none of them.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/util/env.hpp"

namespace {

using namespace pgmcml;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --config FILE         experiment document with a campaign plan;\n"
      "                        loaded first, later flags override it\n"
      "  --traces N            campaign size (default 4096)\n"
      "  --samples N           samples per trace (default 600)\n"
      "  --style S             cmos | mcml | pgmcml (default cmos)\n"
      "  --key K               true key byte (default 43)\n"
      "  --seed S              acquisition seed (default 7)\n"
      "  --shard-size N        traces per shard (default: auto)\n"
      "  --workers N           worker processes (default 4)\n"
      "  --checkpoint-every N  durable checkpoint cadence (default 256)\n"
      "  --batch-size N        acquisition batch size (default 256)\n"
      "  --max-restarts N      retry budget per shard (default 3)\n"
      "  --spool DIR           checkpoint spool directory\n"
      "  --no-tvla             skip the fixed-class TVLA pass\n"
      "  --no-mtd              skip measurements-to-disclosure\n"
      "  --static-power        add the quiescent-hold phase and mount the\n"
      "                        static-power attack on both gating windows\n"
      "  --mlpa                mount the MLPA multi-bit attack on the\n"
      "                        random-class traces\n"
      "  --inject-crash SHARD  SIGKILL that shard's worker once (testing)\n"
      "  --serial              run the in-process serial reference only\n"
      "  --verify-serial       run both and require bitwise-equal results\n"
      "  --out FILE            write the result JSON here\n",
      argv0);
  return 2;
}

void print_summary(const char* label, const campaign::CampaignResult& r) {
  std::printf(
      "%s: traces=%llu key_rank=%d margin=%.6g mtd=%llu tvla_max_t=%.6g "
      "workers=%llu restarts=%llu timeouts=%llu skipped_shards=%llu\n",
      label, static_cast<unsigned long long>(r.traces_accumulated),
      r.key_rank, r.margin, static_cast<unsigned long long>(r.mtd),
      r.tvla.max_abs_t, static_cast<unsigned long long>(r.workers_spawned),
      static_cast<unsigned long long>(r.restarts),
      static_cast<unsigned long long>(r.heartbeat_timeouts),
      static_cast<unsigned long long>(r.shards_skipped));
  // The static-window and MLPA verdicts, as the JSON report writes them.
  obs::json::Object modalities;
  r.add_json(modalities, r.static_traces_accumulated);
  if (!modalities.empty()) {
    std::printf("%s: %s\n", label,
                obs::json::Value(std::move(modalities)).dump().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CampaignOptions opt;
  bool serial_only = false;
  bool verify_serial = false;
  long long inject_crash = -1;
  std::string out_path;
  try {
    // --config seeds the options from an experiment document before the
    // remaining flags are applied, so flags override the file.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--config") == 0) {
        if (i + 1 >= argc) {
          throw std::runtime_error("missing value for --config");
        }
        const config::Experiment e =
            config::load_experiment_file(argv[i + 1]);
        if (e.plan.task != config::PlanTask::kCampaign) {
          throw std::runtime_error(
              std::string(argv[i + 1]) +
              ": experiment plan task is '" + config::to_string(e.plan.task) +
              "', pgmcml_campaign needs 'campaign'");
        }
        opt = e.resolved_campaign();
        std::fprintf(stderr,
                     "pgmcml_campaign: experiment '%s' digest %s\n",
                     e.name.c_str(),
                     config::experiment_digest(e).hex().c_str());
      }
    }

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::runtime_error("missing value for " + arg);
        }
        return argv[++i];
      };
      if (arg == "--config") {
        ++i;  // already applied in the pre-scan above
      } else if (arg == "--traces") {
        opt.num_traces = static_cast<std::size_t>(util::parse_u64(
            "--traces", next(), 1, std::uint64_t{1} << 40));
      } else if (arg == "--samples") {
        opt.samples = static_cast<std::size_t>(
            util::parse_u64("--samples", next(), 1, 1 << 20));
      } else if (arg == "--style") {
        const std::string style = next();
        if (style == "cmos") {
          opt.style = cells::LogicStyle::kCmos;
        } else if (style == "mcml") {
          opt.style = cells::LogicStyle::kMcml;
        } else if (style == "pgmcml") {
          opt.style = cells::LogicStyle::kPgMcml;
        } else {
          throw std::runtime_error("unknown --style '" + style + "'");
        }
      } else if (arg == "--key") {
        opt.key = static_cast<std::uint8_t>(
            util::parse_u64("--key", next(), 0, 255));
      } else if (arg == "--seed") {
        opt.seed = util::parse_u64("--seed", next());
      } else if (arg == "--shard-size") {
        opt.shard_size = static_cast<std::size_t>(util::parse_u64(
            "--shard-size", next(), 1, std::uint64_t{1} << 40));
      } else if (arg == "--workers") {
        opt.num_workers = static_cast<std::size_t>(
            util::parse_u64("--workers", next(), 1, 1024));
      } else if (arg == "--checkpoint-every") {
        opt.checkpoint_every = static_cast<std::size_t>(util::parse_u64(
            "--checkpoint-every", next(), 1, std::uint64_t{1} << 40));
      } else if (arg == "--batch-size") {
        opt.batch_size = static_cast<std::size_t>(
            util::parse_u64("--batch-size", next(), 1, 1 << 20));
      } else if (arg == "--max-restarts") {
        opt.max_restarts = static_cast<std::size_t>(
            util::parse_u64("--max-restarts", next(), 0, 1024));
      } else if (arg == "--spool") {
        opt.spool_dir = next();
      } else if (arg == "--no-tvla") {
        opt.tvla = false;
      } else if (arg == "--no-mtd") {
        opt.compute_mtd = false;
      } else if (arg == "--static-power") {
        opt.static_power = true;
      } else if (arg == "--mlpa") {
        opt.mlpa = true;
      } else if (arg == "--inject-crash") {
        inject_crash = static_cast<long long>(util::parse_u64(
            "--inject-crash", next(), 0, std::uint64_t{1} << 40));
      } else if (arg == "--serial") {
        serial_only = true;
      } else if (arg == "--verify-serial") {
        verify_serial = true;
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }

    if (inject_crash >= 0) {
      // First incarnation of the chosen shard kills itself after its first
      // durable checkpoint; the restart must recover from that checkpoint.
      const auto target = static_cast<std::uint64_t>(inject_crash);
      opt.post_checkpoint_hook = [target](std::uint64_t shard, int restart,
                                          std::uint64_t ordinal) {
        if (shard == target && restart == 0 && ordinal >= 1) {
          ::raise(SIGKILL);
        }
      };
    }

    campaign::CampaignResult result;
    if (serial_only) {
      result = campaign::run_campaign_serial(opt);
      print_summary("serial", result);
    } else {
      result = campaign::run_campaign(opt);
      print_summary("distributed", result);
      if (verify_serial) {
        const campaign::CampaignResult reference =
            campaign::run_campaign_serial(opt);
        print_summary("serial", reference);
        if (result.degraded()) {
          std::fprintf(stderr,
                       "verify-serial: distributed run degraded (%llu "
                       "shards skipped); bitwise comparison not applicable\n",
                       static_cast<unsigned long long>(
                           result.shards_skipped));
          return 1;
        }
        if (!campaign::bitwise_equal(result, reference)) {
          std::fprintf(stderr,
                       "verify-serial: FAILED -- distributed result is not "
                       "bitwise equal to the serial reference\n");
          return 1;
        }
        std::printf("verify-serial: OK (bitwise equal)\n");
      }
    }

    if (!out_path.empty() &&
        !obs::json::save_file_atomic(out_path, result.to_json(), 2)) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgmcml_campaign: %s\n", e.what());
    return 2;
  }
}
