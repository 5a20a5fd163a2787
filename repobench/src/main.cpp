// repobench_driver: runs one benchmark workload and prints its metrics.
//
//   repobench_driver --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    [--expected <file>] [--work-dir <dir>] [--git-sha <sha>]
//                    [--record]
//
// Prints provenance, the workload's tables, one line per metric, the output
// checks, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  Exits 1 when an output check failed, 2 on a
// usage or run error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "common.hpp"
#include "expected.hpp"
#include "workloads.hpp"

namespace repobench {

namespace {

namespace json = pgmcml::obs::json;

const std::map<std::string, std::function<Outcome(const RunConfig&)>>&
workloads() {
  static const std::map<std::string, std::function<Outcome(const RunConfig&)>>
      w = {{"fig6-stream", run_fig6_stream},
           {"campaign-fork", run_campaign_fork},
           {"daemon-mixed", run_daemon_mixed}};
  return w;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "repobench_driver: %s\nusage: repobench_driver --workload "
               "<fig6-stream|campaign-fork|daemon-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--expected <file>] "
               "[--work-dir <dir>] [--git-sha <sha>] [--record]\n",
               why);
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  std::string workload, expected_path, git_sha = "unknown";
  std::string work_dir = ".bench_build/run";
  RunConfig cfg;
  std::uint64_t cli_seed = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        cli_seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = cfg.seconds > 0.0;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        cfg.trace = t == "1";
        have_trace = true;
      } else if (a == "--expected") {
        expected_path = value();
      } else if (a == "--work-dir") {
        work_dir = value();
      } else if (a == "--git-sha") {
        git_sha = value();
      } else if (a == "--record") {
        cfg.record = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("malformed value for " + a).c_str());
    }
  }
  const auto it = workloads().find(workload);
  if (it == workloads().end()) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  // Trace workloads run single-threaded: multi-core use is measured only
  // through campaign-fork's worker processes.
  setenv("PGMCML_THREADS", "1", 0);
  // Every input derives from the input set, and expected.json pins each
  // set, so every seed gets the full pinned comparison.
  cfg.seed = cli_seed % kInputSets;

  work_dir += "/" + workload + "-" + std::to_string(cfg.seed) +
              (cfg.trace ? "-traced" : "");
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  cfg.work_dir = work_dir;
  const json::Value expected = load_expected(expected_path);
  cfg.expected = find_expected(expected, workload, cfg.seed);

  const double t0 = now_s();
  Outcome out = it->second(cfg);
  const double run_s = now_s() - t0;

  json::Object prov = host_provenance();
  prov.emplace_back("git_sha", git_sha);
  prov.emplace_back("workload", workload);
  prov.emplace_back("seed", std::to_string(cli_seed));
  prov.emplace_back("input_set", std::to_string(cfg.seed));
  prov.emplace_back("seconds", cfg.seconds);
  prov.emplace_back("trace", cfg.trace);
  prov.emplace_back("expected", cfg.expected != nullptr ? "pinned" : "unpinned");
  prov.emplace_back("run_s", run_s);
  for (auto& kv : out.info) prov.push_back(std::move(kv));
  std::printf("provenance %s\n", json::Value(std::move(prov)).dump().c_str());
  if (!out.report.empty()) std::printf("%s", out.report.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("metric %-34s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("failed_frac %s (%" PRIu64 " of %" PRIu64 ")\n",
              number(out.attempted ? double(out.failed) / out.attempted : 0.0)
                  .c_str(),
              out.failed, out.attempted);
  for (const std::string& v : out.verdicts) {
    std::printf("verdict %s%s\n", v.c_str(),
                cfg.gate_verdicts() ? "" : " (reported only)");
  }
  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s\n", out.correct() ? "all passed" : "FAILED");
  if (cfg.record) std::printf("record %s\n", out.record.dump().c_str());
  if (!out.spans.empty()) {
    const std::string path = work_dir + "/spans.json";
    json::save_file_atomic(path, spans_to_json(out.spans));
    std::printf("spans: %zu written to %s\n", out.spans.size(), path.c_str());
  }

  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"synth.map_ms", "ms"},
      {"core.acquire_us_per_trace", "us"},
      {"core.source_setup_ms", "ms"},
      {"core.retries", "count"},
      {"core.skips", "count"},
      {"netlist.construct_us_per_trace", "us"},
      {"netlist.settle_us_per_trace", "us"},
      {"netlist.events_per_trace", "count"},
      {"netlist.ns_per_event", "ns"},
      {"power.compose_us_per_trace", "us"},
      {"power.ns_per_sample", "ns"},
      {"power.quiescent_us_per_hold", "us"},
      {"sca.cpa_us_per_trace", "us"},
      {"sca.dpa_us_per_trace", "us"},
      {"sca.mlpa_us_per_trace", "us"},
      {"sca.static_us_per_hold", "us"},
      {"sca.tvla_us_per_trace", "us"},
      {"sca.snapshot_ms", "ms"},
      {"sca.rows_merged", "count"},
      {"campaign.workers_spawned", "count"},
      {"campaign.spawns_per_shard", "count"},
      {"campaign.checkpoints", "count"},
      {"campaign.merge_ms", "ms"},
      {"campaign.restarts", "count"},
      {"campaign.parallel_efficiency", "1"},
      {"spice.newton_per_cold_request", "count"},
      {"spice.lu_factorizations_per_cold_request", "count"},
      {"spice.numeric_refactors_per_cold_request", "count"},
      {"mcml.characterize_ms_per_cell", "ms"},
      {"cache.hit_rate", "1"},
      {"cache.misses_per_request", "count"},
      {"cache.bytes_written_per_request", "B"},
      {"service.server_ms_p50", "ms"},
      {"service.transport_ms_p50", "ms"},
      {"service.queue_depth_p50", "count"},
      {"service.rejected", "count"},
      {"service.expired", "count"},
      {"obs.tracing_overhead_frac", "1"},
  };
  return specs;
}

void emit_layer_metrics(
    Outcome& out, const std::vector<std::pair<std::string, double>>& values) {
  std::map<std::string, double> by_name(values.begin(), values.end());
  for (const auto& [name, _] : values) {
    bool known = false;
    for (const LayerMetricSpec& s : layer_metric_specs()) known |= name == s.name;
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  for (const LayerMetricSpec& s : layer_metric_specs()) {
    const auto it = by_name.find(s.name);
    out.metric(s.name, it == by_name.end() ? 0.0 : it->second, s.unit);
  }
}

}  // namespace repobench

int main(int argc, char** argv) {
  try {
    return repobench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench_driver: %s\n", e.what());
    return 2;
  }
}
