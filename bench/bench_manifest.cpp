#include "bench_manifest.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

#ifndef PGMCML_GIT_SHA
#define PGMCML_GIT_SHA "unknown"
#endif
#ifndef PGMCML_BUILD_TYPE
#define PGMCML_BUILD_TYPE "unknown"
#endif

namespace pgmcml::bench {

namespace {

double wall_seconds() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

/// Process CPU seconds across all threads (std::clock is per-process CPU
/// time on POSIX).
double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

std::string git_sha() {
  std::string sha = PGMCML_GIT_SHA;
  if (sha.empty() || sha == "unknown") {
    if (const char* env = std::getenv("GITHUB_SHA")) sha = env;
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

const char* to_string(Better b) {
  switch (b) {
    case Better::kLower: return "lower";
    case Better::kHigher: return "higher";
    case Better::kNone: break;
  }
  return "none";
}

std::size_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

bool smoke_mode() {
  const char* env = std::getenv("PGMCML_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

Manifest::Manifest(std::string bench_name)
    : name_(std::move(bench_name)),
      wall_start_(wall_seconds()),
      cpu_start_(cpu_seconds()) {}

void Manifest::metric(const std::string& name, double value, Better better) {
  obs::json::Object m;
  m.emplace_back("value", value);
  m.emplace_back("better", to_string(better));
  for (auto& [key, existing] : metrics_) {
    if (key == name) {
      existing = obs::json::Value(std::move(m));
      return;
    }
  }
  metrics_.emplace_back(name, obs::json::Value(std::move(m)));
}

void Manifest::section(const std::string& name, obs::json::Value value) {
  for (auto& [key, existing] : sections_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  sections_.emplace_back(name, std::move(value));
}

obs::json::Value Manifest::to_json() const {
  const obs::Snapshot snap = obs::Registry::global().snapshot();

  // Result-cache effectiveness rides along automatically whenever the run
  // touched the cache, so bench_compare can watch hit rates without each
  // bench opting in.  Purely informational: hit rates are workload-shaped,
  // not a regression gate.
  obs::json::Object metrics = metrics_;
  const std::uint64_t hits = snap.counter("cache.hit");
  const std::uint64_t misses = snap.counter("cache.miss");
  if (hits + misses > 0) {
    const auto add = [&metrics](const std::string& name, double value) {
      obs::json::Object m;
      m.emplace_back("value", value);
      m.emplace_back("better", to_string(Better::kNone));
      metrics.emplace_back(name, obs::json::Value(std::move(m)));
    };
    add("cache.hits", static_cast<double>(hits));
    add("cache.misses", static_cast<double>(misses));
    add("cache.hit_rate",
        static_cast<double>(hits) / static_cast<double>(hits + misses));
  }

  obs::json::Object doc;
  doc.emplace_back("schema_version", kManifestSchemaVersion);
  doc.emplace_back("bench", name_);
  doc.emplace_back("git_sha", git_sha());
  doc.emplace_back("build_type", std::string(PGMCML_BUILD_TYPE));
  doc.emplace_back("threads",
                   static_cast<std::uint64_t>(util::parallel_threads()));
  doc.emplace_back("wall_s", wall_seconds() - wall_start_);
  doc.emplace_back("cpu_s", cpu_seconds() - cpu_start_);
  doc.emplace_back("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()));
  doc.emplace_back("metrics", obs::json::Value(std::move(metrics)));
  doc.emplace_back("sections", obs::json::Value(sections_));
  doc.emplace_back("obs", snap.to_json());
  return obs::json::Value(std::move(doc));
}

bool Manifest::write(const std::string& path) const {
  const std::string out_path = path.empty() ? "BENCH_" + name_ + ".json" : path;
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_manifest: cannot open %s for writing\n",
                 out_path.c_str());
    return false;
  }
  const std::string text = to_json().dump(2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) std::printf("Wrote %s\n", out_path.c_str());
  return ok;
}

bool CompareReport::ok() const { return errors.empty() && regressions() == 0; }

std::size_t CompareReport::regressions() const {
  std::size_t n = 0;
  for (const CompareLine& l : lines) n += l.regression ? 1 : 0;
  return n;
}

std::string CompareReport::render() const {
  std::string out;
  char buf[256];
  for (const std::string& e : errors) {
    out += "ERROR: " + e + "\n";
  }
  for (const CompareLine& l : lines) {
    const char* tag = l.regression ? "REGRESSION" : "ok";
    if (!l.note.empty()) tag = l.note.c_str();
    std::snprintf(buf, sizeof buf, "  %-44s %14.6g -> %14.6g  %+8.2f%%  %s\n",
                  l.metric.c_str(), l.baseline, l.current,
                  l.rel_change * 100.0, tag);
    out += buf;
  }
  return out;
}

bool glob_match(const std::string& pattern, const std::string& name) {
  // Iterative '*' matcher with single-star backtracking.
  std::size_t p = 0, n = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

struct MetricEntry {
  std::string name;
  double value = 0.0;
  Better better = Better::kNone;
};

/// Extracts the metrics table; shape problems become errors.
std::vector<MetricEntry> extract_metrics(const obs::json::Value& doc,
                                         const char* which,
                                         std::vector<std::string>& errors) {
  std::vector<MetricEntry> out;
  const obs::json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    errors.push_back(std::string(which) + ": missing metrics object");
    return out;
  }
  for (const auto& [name, v] : metrics->as_object()) {
    MetricEntry e;
    e.name = name;
    if (v.is_number()) {
      e.value = v.as_number();
    } else if (v.is_object()) {
      e.value = v.number_or("value", 0.0);
      const std::string dir = v.string_or("better", "none");
      if (dir == "lower") {
        e.better = Better::kLower;
      } else if (dir == "higher") {
        e.better = Better::kHigher;
      }
    } else {
      errors.push_back(std::string(which) + ": metric '" + name +
                       "' is neither a number nor an object");
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

CompareReport compare_manifests(const obs::json::Value& baseline,
                                const obs::json::Value& current,
                                const CompareOptions& options) {
  CompareReport report;

  const double base_ver = baseline.number_or("schema_version", -1.0);
  const double cur_ver = current.number_or("schema_version", -1.0);
  if (base_ver != kManifestSchemaVersion) {
    report.errors.push_back("baseline: unsupported schema_version " +
                            std::to_string(base_ver));
  }
  if (cur_ver != kManifestSchemaVersion) {
    report.errors.push_back("current: unsupported schema_version " +
                            std::to_string(cur_ver));
  }
  if (!report.errors.empty()) return report;

  const std::vector<MetricEntry> base =
      extract_metrics(baseline, "baseline", report.errors);
  const std::vector<MetricEntry> cur =
      extract_metrics(current, "current", report.errors);
  if (!report.errors.empty()) return report;

  const auto ignored = [&](const std::string& name) {
    for (const std::string& pat : options.ignore) {
      if (glob_match(pat, name)) return true;
    }
    return false;
  };
  const auto threshold_for = [&](const std::string& name) {
    for (const auto& [pat, thr] : options.thresholds) {
      if (pat == name || glob_match(pat, name)) return thr;
    }
    return options.default_threshold;
  };
  const auto find_current = [&](const std::string& name) -> const MetricEntry* {
    for (const MetricEntry& e : cur) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };

  for (const MetricEntry& b : base) {
    CompareLine line;
    line.metric = b.name;
    line.baseline = b.value;
    line.threshold = threshold_for(b.name);
    if (ignored(b.name)) {
      line.note = "ignored";
      report.lines.push_back(std::move(line));
      continue;
    }
    const MetricEntry* c = find_current(b.name);
    if (c == nullptr) {
      line.regression = b.better != Better::kNone;
      line.note = "missing-in-current";
      report.lines.push_back(std::move(line));
      continue;
    }
    line.current = c->value;
    const double denom = std::fabs(b.value);
    line.rel_change =
        denom > 0.0 ? (c->value - b.value) / denom
                    : (c->value == 0.0 ? 0.0
                                       : std::copysign(HUGE_VAL, c->value));
    switch (b.better) {
      case Better::kLower:
        line.regression = line.rel_change > line.threshold;
        break;
      case Better::kHigher:
        line.regression = line.rel_change < -line.threshold;
        break;
      case Better::kNone:
        line.note = "informational";
        break;
    }
    report.lines.push_back(std::move(line));
  }

  for (const MetricEntry& c : cur) {
    bool in_base = false;
    for (const MetricEntry& b : base) {
      if (b.name == c.name) {
        in_base = true;
        break;
      }
    }
    if (in_base || ignored(c.name)) continue;
    CompareLine line;
    line.metric = c.name;
    line.current = c.value;
    line.note = "new-in-current";
    report.lines.push_back(std::move(line));
  }

  return report;
}

}  // namespace pgmcml::bench
