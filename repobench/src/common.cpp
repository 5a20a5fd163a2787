#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>

namespace repobench {

namespace json = pgmcml::obs::json;

double now_s() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile tail_percentile(std::vector<double> samples, double q,
                           std::size_t min_beyond) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank (1-based) of q is ceil(q n); n - rank samples lie beyond.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)),
      1, n);
  if (n - rank >= min_beyond) {
    p.q = q;
    p.value = samples[rank - 1];
    p.beyond = n - rank;
    return p;
  }
  // The highest rank that leaves min_beyond samples above it; the median
  // when even that is below the middle.
  const std::size_t fallback = n > min_beyond ? n - min_beyond : 0;
  if (2 * fallback <= n) {
    p.q = 0.5;
    p.value = median(std::move(samples));
    p.beyond = n / 2;
    return p;
  }
  p.q = static_cast<double>(fallback) / static_cast<double>(n);
  p.value = samples[fallback - 1];
  p.beyond = n - fallback;
  return p;
}

int SpanRecorder::open(std::string_view name, std::uint64_t id) {
  Span s;
  s.name = std::string(name);
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index, std::uint64_t units) {
  spans_[index].end = now_s();
  spans_[index].units = units;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

double LayerTable::self_of(std::string_view name) const {
  for (const LayerRow& r : rows) {
    if (r.name == name) return r.self_s;
  }
  return 0.0;
}

std::uint64_t LayerTable::units_of(std::string_view name) const {
  for (const LayerRow& r : rows) {
    if (r.name == name) return r.units;
  }
  return 0;
}

std::string LayerTable::format(const std::string& title) const {
  std::string out = title + "\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-24s %10s %8s %9s %12s %12s\n",
                "span", "self [s]", "% wall", "calls", "units",
                "ns/unit");
  out += line;
  double total = 0.0;
  for (const LayerRow& r : rows) {
    const double ns_per_unit =
        r.units > 0 ? r.self_s * 1e9 / static_cast<double>(r.units) : 0.0;
    std::snprintf(line, sizeof line,
                  "  %-24s %10.4f %7.2f%% %9llu %12llu %12.1f\n",
                  r.name.c_str(), r.self_s, 100.0 * r.self_s / wall_s,
                  static_cast<unsigned long long>(r.calls),
                  static_cast<unsigned long long>(r.units), ns_per_unit);
    out += line;
    total += r.self_s;
  }
  std::snprintf(line, sizeof line, "  %-24s %10.4f %7.2f%%\n", "(uncovered)",
                uncovered_s, 100.0 * uncovered_s / wall_s);
  out += line;
  std::snprintf(line, sizeof line, "  %-24s %10.4f %7.2f%%  (timed wall)\n",
                "total", total + uncovered_s,
                100.0 * (total + uncovered_s) / wall_s);
  out += line;
  return out;
}

LayerTable layer_table(const std::vector<Span>& spans, double wall_s) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerRow> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerRow& row = by_name[spans[i].name];
    row.name = spans[i].name;
    row.self_s += self[i];
    row.calls += 1;
    row.units += spans[i].units;
  }
  LayerTable table;
  table.wall_s = wall_s;
  double covered = 0.0;
  for (auto& [name, row] : by_name) {
    covered += row.self_s;
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_s > b.self_s;
            });
  table.uncovered_s = wall_s - covered;
  return table;
}

json::Value spans_to_json(const std::vector<Span>& spans) {
  json::Array out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    json::Object o;
    o.emplace_back("name", s.name);
    o.emplace_back("start", s.start);
    o.emplace_back("end", s.end);
    o.emplace_back("parent", s.parent);
    o.emplace_back("id", s.id);
    o.emplace_back("units", s.units);
    out.emplace_back(std::move(o));
  }
  return json::Value(std::move(out));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  return mix64(mix64(seed) ^ mix64(purpose + 0x5851f42d4c957f2dULL));
}

std::uint64_t fig6_flow_seed(std::uint64_t seed) { return derive(seed, 2); }

std::uint8_t flow_plaintext(std::uint64_t flow_seed, std::uint64_t t) {
  pgmcml::util::Rng rng = pgmcml::util::Rng::stream(flow_seed, t);
  return static_cast<std::uint8_t>(rng.bounded(256));
}

double peak_rss_mb_self() {
  // VmHWM is the high-water mark of this process image.  getrusage's
  // ru_maxrss would not do: Linux carries the pre-exec maximum across
  // execve, so it reports at least the launching process's footprint.
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double peak_rss_mb_children() {
  rusage ru{};
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter_delta(const pgmcml::obs::Snapshot& before,
                            const pgmcml::obs::Snapshot& after,
                            std::string_view name) {
  return after.counter(name) - before.counter(name);
}

double histogram_sum_delta(const pgmcml::obs::Snapshot& before,
                           const pgmcml::obs::Snapshot& after,
                           std::string_view name) {
  const std::string key(name);
  auto sum = [&key](const pgmcml::obs::Snapshot& s) {
    const auto it = s.histograms.find(key);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return sum(after) - sum(before);
}

void Outcome::fail_check(const std::string& what) {
  check_failures.push_back(what);
  failed += 1;
}

void Outcome::verdict(bool holds, bool gated, const std::string& what) {
  verdicts.push_back((holds ? "holds: " : "DOES NOT HOLD: ") + what);
  if (!holds && gated) fail_check("verdict does not hold: " + what);
}

void Outcome::round_metrics(double units, const std::vector<double>& round_ms,
                            const HostSpeed& speed, const char* round) {
  const double scale = speed.scale();
  double timed_ms = 0.0;
  for (double r : round_ms) timed_ms += r;
  metric("work_per_s", units / (timed_ms * 1e-3 * scale), "1/s");
  metric("latency_p50_ms", median(round_ms) * scale, "ms");
  metric("latency_p99_ms",
         *std::max_element(round_ms.begin(), round_ms.end()) * scale, "ms");
  info.emplace_back("host_speed", speed.to_json());
  info.emplace_back("latency_unit", std::string("one round: ") + round);
  info.emplace_back("latency_p99_is", "slowest of " +
                                          std::to_string(round_ms.size()) +
                                          " rounds");
  info.emplace_back("round_ms",
                    obs::json::Array(round_ms.begin(), round_ms.end()));
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics.push_back({name, value, unit});
}

json::Object host_provenance() {
  json::Object o;
  o.emplace_back("build_type", REPOBENCH_BUILD_TYPE);
  o.emplace_back("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  o.emplace_back("cpu_model", cpu);
  const char* threads = std::getenv("PGMCML_THREADS");
  o.emplace_back("PGMCML_THREADS", threads ? threads : "unset");
  return o;
}

namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;

__attribute__((noinline)) double probe_chain_ms() {
  const double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 3'000'000; ++i) x = x * kLcgMul + (x >> 17) + 1;
  // Keeps the chain: the compiler may neither drop nor fold it.
  asm volatile("" : : "r"(x));
  return (now_s() - t0) * 1e3;
}

__attribute__((noinline)) double probe_parallel_ms() {
  const double t0 = now_s();
  std::uint64_t x[8];
  for (int j = 0; j < 8; ++j) x[j] = 0x9e3779b97f4a7c15ULL + j;
  for (int i = 0; i < 1'150'000; ++i) {
    for (int j = 0; j < 8; ++j) x[j] = x[j] * kLcgMul + (x[j] >> 17) + 1;
    // One step of all eight chains per turn, kept in registers.
    asm volatile(""
                 : "+r"(x[0]), "+r"(x[1]), "+r"(x[2]), "+r"(x[3]),
                   "+r"(x[4]), "+r"(x[5]), "+r"(x[6]), "+r"(x[7]));
  }
  return (now_s() - t0) * 1e3;
}

std::vector<double> totals(const std::vector<ProbeTime>& probes,
                           double (*part)(const ProbeTime&)) {
  std::vector<double> v;
  for (const ProbeTime& p : probes) v.push_back(part(p));
  return v;
}

}  // namespace

ProbeTime speed_probe() { return {probe_chain_ms(), probe_parallel_ms()}; }

double HostSpeed::sample() {
  probes_.push_back(speed_probe());
  return probes_.back().total_ms() * 1e-3;
}

double HostSpeed::scale() const {
  if (probes_.empty()) throw std::logic_error("HostSpeed: no sample");
  return kReferenceProbeMs /
         median(totals(probes_, [](const ProbeTime& p) { return p.total_ms(); }));
}

json::Value HostSpeed::to_json() const {
  json::Object o;
  o.emplace_back("probes", static_cast<std::uint64_t>(probes_.size()));
  o.emplace_back("probe_ms_median",
                 median(totals(probes_, [](const ProbeTime& p) { return p.total_ms(); })));
  o.emplace_back("chain_ms_median",
                 median(totals(probes_, [](const ProbeTime& p) { return p.chain_ms; })));
  o.emplace_back("parallel_ms_median",
                 median(totals(probes_, [](const ProbeTime& p) { return p.parallel_ms; })));
  o.emplace_back("scale", scale());
  return json::Value(std::move(o));
}

bool another_round(double t_begin, int rounds, double seconds) {
  if (rounds == 0) return true;
  const double elapsed = now_s() - t_begin;
  return elapsed + elapsed / rounds <= seconds;
}

bool close_rel(double a, double b, double rel) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rel * scale;
}

}  // namespace repobench
