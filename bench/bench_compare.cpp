// Regression gate over two bench manifests:
//
//   bench_compare baseline.json current.json [--default-threshold R]
//                 [--threshold name=R]... [--ignore glob]...
//
// Every gated metric (better == "lower"/"higher") in the baseline must be
// present in the current manifest and must not degrade by more than its
// relative threshold (default 0.25, i.e. 25%).  Metrics matching an
// --ignore glob are skipped -- CI uses this for machine-dependent timings
// while still gating the deterministic solver-effort counters.
//
// Exit codes: 0 = no regression, 1 = regression(s), 2 = usage/IO/schema
// error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_manifest.hpp"

namespace {

using pgmcml::bench::CompareOptions;
using pgmcml::bench::CompareReport;
using pgmcml::obs::json::Value;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s baseline.json current.json"
               " [--default-threshold R] [--threshold name=R]..."
               " [--ignore glob]...\n",
               argv0);
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string baseline_path = argv[1];
  const std::string current_path = argv[2];

  CompareOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--default-threshold" && i + 1 < argc) {
      options.default_threshold = std::atof(argv[++i]);
    } else if (arg == "--threshold" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "bench_compare: bad --threshold '%s'\n",
                     spec.c_str());
        return 2;
      }
      options.thresholds.emplace_back(spec.substr(0, eq),
                                      std::atof(spec.c_str() + eq + 1));
    } else if (arg == "--ignore" && i + 1 < argc) {
      options.ignore.push_back(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  std::string baseline_text, current_text;
  if (!read_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n",
                 baseline_path.c_str());
    return 2;
  }
  if (!read_file(current_path, current_text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n",
                 current_path.c_str());
    return 2;
  }

  Value baseline, current;
  try {
    baseline = Value::parse(baseline_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", baseline_path.c_str(),
                 e.what());
    return 2;
  }
  try {
    current = Value::parse(current_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", current_path.c_str(),
                 e.what());
    return 2;
  }

  const CompareReport report =
      pgmcml::bench::compare_manifests(baseline, current, options);
  std::printf("Comparing %s (baseline) vs %s (current)\n",
              baseline_path.c_str(), current_path.c_str());
  std::fputs(report.render().c_str(), stdout);
  if (!report.errors.empty()) return 2;
  const std::size_t regressions = report.regressions();
  if (regressions > 0) {
    std::printf("%zu metric(s) regressed beyond threshold\n", regressions);
    return 1;
  }
  std::printf("no regressions\n");
  return 0;
}
