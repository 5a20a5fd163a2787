// pgmcmld: the characterization-and-attack daemon.
//
//   pgmcmld --socket /tmp/pgmcmld.sock
//   PGMCML_CACHE_DIR=/var/cache/pgmcml pgmcmld --socket sock --tcp 0
//
// Serves config-driven experiment requests (config/request.hpp) over a
// Unix-domain socket and, with --tcp, a loopback TCP port.  Every request
// runs against the process-wide ResultCache, so a warm design point is
// answered in microseconds without a single Newton iteration; export
// PGMCML_CACHE_DIR to persist the warm tier across restarts.
//
// SIGTERM / SIGINT trigger a graceful drain: listeners close, admitted
// requests finish and flush, then the process exits 0 (writing the final
// statsz report to --obs-out when given).
//
// Options come from the flags below only; numeric flags are parsed with
// util::parse_u64's loud rejection.
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "pgmcml/service/server.hpp"
#include "pgmcml/util/env.hpp"

namespace {

using namespace pgmcml;

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --socket PATH       Unix-domain socket to serve (default\n"
      "                      pgmcmld.sock in the working directory)\n"
      "  --tcp PORT          also listen on 127.0.0.1:PORT (0 = ephemeral;\n"
      "                      the bound port is printed on startup)\n"
      "  --workers N         worker threads (default 2)\n"
      "  --queue-depth N     admission-control queue bound (default 16)\n"
      "  --deadline-ms N     default per-request deadline (0 = none)\n"
      "  --config-root DIR   base dir for file refs in request experiments\n"
      "  --obs-out FILE      write the final statsz report here on exit\n"
      "Environment: PGMCML_CACHE_DIR (shared warm tier), PGMCML_THREADS\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerOptions options;
  options.socket_path = "pgmcmld.sock";
  std::string obs_out;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
      if (arg == "--socket" && next != nullptr) {
        options.socket_path = argv[++i];
      } else if (arg == "--tcp" && next != nullptr) {
        options.tcp_port = static_cast<int>(
            util::parse_u64("--tcp", argv[++i], 0, 65535));
      } else if (arg == "--workers" && next != nullptr) {
        options.workers = static_cast<std::size_t>(
            util::parse_u64("--workers", argv[++i], 1, 256));
      } else if (arg == "--queue-depth" && next != nullptr) {
        options.queue_depth = static_cast<std::size_t>(
            util::parse_u64("--queue-depth", argv[++i], 1, 1'000'000));
      } else if (arg == "--deadline-ms" && next != nullptr) {
        options.default_deadline_ms =
            util::parse_u64("--deadline-ms", argv[++i], 0, 86'400'000);
      } else if (arg == "--config-root" && next != nullptr) {
        options.config_root = argv[++i];
      } else if (arg == "--obs-out" && next != nullptr) {
        obs_out = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgmcmld: %s\n", e.what());
    return 2;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pgmcmld: pipe() failed\n");
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    service::Server server(options);
    server.start();
    std::fprintf(stderr, "pgmcmld: serving on %s", options.socket_path.c_str());
    if (server.tcp_port() >= 0) {
      std::fprintf(stderr, " and 127.0.0.1:%d", server.tcp_port());
    }
    std::fprintf(stderr,
                 " (workers=%zu queue=%zu deadline_ms=%llu)\n",
                 options.workers, options.queue_depth,
                 static_cast<unsigned long long>(options.default_deadline_ms));

    // Park until SIGTERM/SIGINT, then drain gracefully.
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr, "pgmcmld: draining (%zu queued)\n",
                 server.queue_depth());
    server.drain();
    server.wait();
    if (!obs_out.empty()) {
      if (!obs::json::save_file_atomic(obs_out, server.statsz(), 2)) {
        std::fprintf(stderr, "pgmcmld: cannot write '%s'\n", obs_out.c_str());
      }
    }
    std::fprintf(stderr, "pgmcmld: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgmcmld: %s\n", e.what());
    return 1;
  }
}
