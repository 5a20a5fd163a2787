// pgmcml_client: single-shot and load-mode client for pgmcmld.
//
//   pgmcml_client --socket /tmp/pgmcmld.sock --experiment experiment.json
//   pgmcml_client --socket sock --statsz --out statsz.json
//   pgmcml_client --socket sock --experiment e.json --repeat 64 --concurrency 8
//
// A run request's default output is the bare "report" member, pretty-printed
// exactly like pgmcml_run --config prints it -- so
//   pgmcml_client --experiment E --out a.json   and
//   pgmcml_run    --config     E --out b.json
// produce bitwise-identical files for the same experiment.  --envelope
// switches to the full response document (status, digest, per-request
// stats), which is what the CI smoke gate asserts on.
//
// File references inside the experiment document are inlined client-side
// (resolved relative to the experiment file), so the daemon never needs the
// client's filesystem.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pgmcml/config/request.hpp"
#include "pgmcml/service/client.hpp"
#include "pgmcml/util/env.hpp"

namespace {

using namespace pgmcml;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH | --tcp HOST:PORT] MODE [options]\n"
      "modes (exactly one):\n"
      "  --experiment FILE   send the experiment document as a run request\n"
      "  --statsz            fetch the daemon's obs snapshot + queue state\n"
      "  --ping              liveness probe\n"
      "options:\n"
      "  --deadline-ms N     per-request deadline\n"
      "  --id ID             request id (default derived from the mode)\n"
      "  --repeat N          load mode: send N requests total\n"
      "  --concurrency M     load mode: spread them over M connections\n"
      "  --envelope          print the full response envelope, not the "
      "report\n"
      "  --out FILE          write the output there (atomic)\n",
      argv0);
  return 2;
}

struct Target {
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = -1;

  service::Client connect() const {
    if (!socket_path.empty()) {
      return service::Client::connect_unix(socket_path);
    }
    return service::Client::connect_tcp(tcp_host, tcp_port);
  }
};

struct LoadCounts {
  std::atomic<std::uint64_t> ok{0}, rejected{0}, expired{0}, errors{0};
};

/// Load mode: `total` requests over `concurrency` connections, one thread
/// per connection, each claiming the next global request index.  Returns
/// the wall-clock seconds the whole burst took.
double run_load(const Target& target, const obs::json::Value& request_base,
                std::size_t total, std::size_t concurrency,
                LoadCounts& counts) {
  std::atomic<std::size_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  for (std::size_t t = 0; t < concurrency; ++t) {
    threads.emplace_back([&] {
      try {
        service::Client client = target.connect();
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          if (k >= total) break;
          obs::json::Value request = request_base;
          request.set("id",
                      request.string_or("id", "load") + "-" +
                          std::to_string(k));
          const config::Response response =
              config::response_from_json(client.call(request));
          switch (response.status) {
            case config::ResponseStatus::kOk: counts.ok.fetch_add(1); break;
            case config::ResponseStatus::kRejected:
              counts.rejected.fetch_add(1);
              break;
            case config::ResponseStatus::kExpired:
              counts.expired.fetch_add(1);
              break;
            case config::ResponseStatus::kError:
              counts.errors.fetch_add(1);
              break;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pgmcml_client: worker: %s\n", e.what());
        counts.errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

int emit(const obs::json::Value& v, const std::string& out_path) {
  if (out_path.empty()) {
    std::printf("%s\n", v.dump(2).c_str());
    return 0;
  }
  if (!obs::json::save_file_atomic(out_path, v, 2)) {
    std::fprintf(stderr, "pgmcml_client: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Target target;
  std::string experiment_path;
  std::string id;
  std::string out_path;
  std::string op;
  std::uint64_t deadline_ms = 0;
  std::size_t repeat = 1;
  std::size_t concurrency = 1;
  bool envelope = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
      if (arg == "--socket" && next != nullptr) {
        target.socket_path = argv[++i];
      } else if (arg == "--tcp" && next != nullptr) {
        const std::string spec = argv[++i];
        const std::size_t colon = spec.find(':');
        if (colon == std::string::npos) {
          std::fprintf(stderr, "--tcp needs HOST:PORT\n");
          return usage(argv[0]);
        }
        target.tcp_host = spec.substr(0, colon);
        target.tcp_port = static_cast<int>(util::parse_u64(
            "--tcp port", spec.c_str() + colon + 1, 1, 65535));
      } else if (arg == "--experiment" && next != nullptr) {
        experiment_path = argv[++i];
        op = "run";
      } else if (arg == "--statsz") {
        op = "statsz";
      } else if (arg == "--ping") {
        op = "ping";
      } else if (arg == "--deadline-ms" && next != nullptr) {
        deadline_ms =
            util::parse_u64("--deadline-ms", argv[++i], 1, 86'400'000);
      } else if (arg == "--id" && next != nullptr) {
        id = argv[++i];
      } else if (arg == "--repeat" && next != nullptr) {
        repeat = static_cast<std::size_t>(
            util::parse_u64("--repeat", argv[++i], 1, 1'000'000));
      } else if (arg == "--concurrency" && next != nullptr) {
        concurrency = static_cast<std::size_t>(
            util::parse_u64("--concurrency", argv[++i], 1, 256));
      } else if (arg == "--envelope") {
        envelope = true;
      } else if (arg == "--out" && next != nullptr) {
        out_path = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }
    if (op.empty()) return usage(argv[0]);
    if (target.socket_path.empty() && target.tcp_port < 0) {
      std::fprintf(stderr, "need --socket or --tcp\n");
      return usage(argv[0]);
    }
    if (id.empty()) id = op;

    obs::json::Value request;
    if (op == "run") {
      obs::json::Value experiment =
          config::load_json_file(experiment_path);
      experiment = service::inline_experiment_refs(
          std::move(experiment), dirname_of(experiment_path));
      request =
          service::make_run_request(id, std::move(experiment), deadline_ms);
    } else {
      request = service::make_simple_request(id, op);
    }

    if (repeat > 1 || concurrency > 1) {
      LoadCounts counts;
      const double wall_s =
          run_load(target, request, repeat, concurrency, counts);
      const std::uint64_t ok = counts.ok.load();
      const std::uint64_t failures =
          counts.errors.load() + counts.expired.load();
      std::printf(
          "requests=%zu ok=%llu rejected=%llu expired=%llu errors=%llu "
          "wall_s=%.6f req_per_s=%.1f\n",
          repeat, static_cast<unsigned long long>(ok),
          static_cast<unsigned long long>(counts.rejected.load()),
          static_cast<unsigned long long>(counts.expired.load()),
          static_cast<unsigned long long>(counts.errors.load()), wall_s,
          wall_s > 0 ? static_cast<double>(repeat) / wall_s : 0.0);
      return failures == 0 ? 0 : 1;
    }

    service::Client client = target.connect();
    const obs::json::Value response_doc = client.call(request);
    const config::Response response =
        config::response_from_json(response_doc);
    if (!response.ok()) {
      std::fprintf(stderr, "pgmcml_client: %s: %s\n",
                   config::to_string(response.status).c_str(),
                   response.error.c_str());
      if (envelope) emit(response_doc, out_path);
      return response.status == config::ResponseStatus::kRejected ? 3 : 1;
    }
    return emit(envelope ? response_doc : response.report, out_path);
  } catch (const config::ConfigError& e) {
    std::fprintf(stderr, "pgmcml_client: config error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgmcml_client: %s\n", e.what());
    return 1;
  }
}
