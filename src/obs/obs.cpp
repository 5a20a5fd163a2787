#include "pgmcml/obs/obs.hpp"

#include <cmath>

namespace pgmcml::obs {

namespace {

/// Lock-free min/max update via CAS (relaxed: the exact interleaving never
/// changes the extremum).
void atomic_min(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t histogram_bucket(double value) {
  if (!std::isfinite(value) || value <= 0.0) return 0;
  const int exponent = std::ilogb(value);  // floor(log2(value))
  const long index = static_cast<long>(exponent) + 31;
  if (index < 0) return 0;
  if (index >= static_cast<long>(kHistogramBuckets)) {
    return kHistogramBuckets - 1;
  }
  return static_cast<std::size_t>(index);
}

void HistogramData::merge(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it != counters.end() ? it->second : 0;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, data] : other.histograms) {
    histograms[name].merge(data);
  }
}

json::Value Snapshot::to_json() const {
  json::Object counters_obj;
  for (const auto& [name, value] : counters) {
    counters_obj.emplace_back(name, json::Value(value));
  }
  json::Object histograms_obj;
  for (const auto& [name, data] : histograms) {
    json::Object h;
    h.emplace_back("count", json::Value(data.count));
    h.emplace_back("sum", json::Value(data.sum));
    if (data.count > 0) {
      h.emplace_back("min", json::Value(data.min));
      h.emplace_back("max", json::Value(data.max));
    }
    json::Array sparse;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (data.buckets[i] == 0) continue;
      sparse.push_back(json::Value(
          json::Array{json::Value(i), json::Value(data.buckets[i])}));
    }
    h.emplace_back("buckets", json::Value(std::move(sparse)));
    histograms_obj.emplace_back(name, json::Value(std::move(h)));
  }
  json::Object root;
  root.emplace_back("counters", json::Value(std::move(counters_obj)));
  root.emplace_back("histograms", json::Value(std::move(histograms_obj)));
  return json::Value(std::move(root));
}

Snapshot Snapshot::from_json(const json::Value& v) {
  Snapshot snap;
  if (const json::Value* c = v.find("counters")) {
    for (const auto& [name, value] : c->as_object()) {
      snap.counters[name] = static_cast<std::uint64_t>(value.as_number());
    }
  }
  if (const json::Value* hs = v.find("histograms")) {
    for (const auto& [name, h] : hs->as_object()) {
      HistogramData data;
      data.count = static_cast<std::uint64_t>(h.number_or("count", 0.0));
      data.sum = h.number_or("sum", 0.0);
      if (data.count > 0) {
        data.min = h.number_or("min", 0.0);
        data.max = h.number_or("max", 0.0);
      }
      if (const json::Value* sparse = h.find("buckets")) {
        for (const json::Value& entry : sparse->as_array()) {
          const json::Array& pair = entry.as_array();
          if (pair.size() != 2) {
            throw std::runtime_error("obs: malformed histogram bucket entry");
          }
          const auto index = static_cast<std::size_t>(pair[0].as_number());
          if (index >= kHistogramBuckets) {
            throw std::runtime_error("obs: histogram bucket out of range");
          }
          data.buckets[index] =
              static_cast<std::uint64_t>(pair[1].as_number());
        }
      }
      snap.histograms[name] = data;
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Registry

struct Histogram::Cell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};

  void reset() {
    count.store(0, std::memory_order_relaxed);
    sum.store(0.0, std::memory_order_relaxed);
    min.store(std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    max.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }

  HistogramData data() const {
    HistogramData d;
    d.count = count.load(std::memory_order_relaxed);
    d.sum = sum.load(std::memory_order_relaxed);
    d.min = min.load(std::memory_order_relaxed);
    d.max = max.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      d.buckets[i] = buckets[i].load(std::memory_order_relaxed);
    }
    return d;
  }
};

void Histogram::observe(double value) {
  if (cell_ == nullptr) return;
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  cell_->buckets[histogram_bucket(value)].fetch_add(
      1, std::memory_order_relaxed);
  if (!std::isfinite(value)) return;
  cell_->sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(cell_->min, value);
  atomic_max(cell_->max, value);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // unique_ptr cells: handle addresses stay stable across map rehash/insert.
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>,
           std::less<>>
      counters;
  std::map<std::string, std::unique_ptr<Histogram::Cell>, std::less<>>
      histograms;
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name),
                      std::make_unique<std::atomic<std::uint64_t>>(0))
             .first;
  }
  return Counter(it->second.get());
}

Histogram Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<Histogram::Cell>())
             .first;
  }
  return Histogram(it->second.get());
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Snapshot snap;
  for (const auto& [name, cell] : impl_->counters) {
    snap.counters[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : impl_->histograms) {
    snap.histograms[name] = cell->data();
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, cell] : impl_->counters) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : impl_->histograms) cell->reset();
}

void Registry::absorb(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counter(name).add(value);
  for (const auto& [name, data] : other.histograms) {
    Histogram::Cell& cell = *histogram(name).cell_;
    cell.count.fetch_add(data.count, std::memory_order_relaxed);
    cell.sum.fetch_add(data.sum, std::memory_order_relaxed);
    atomic_min(cell.min, data.min);
    atomic_max(cell.max, data.max);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      cell.buckets[i].fetch_add(data.buckets[i], std::memory_order_relaxed);
    }
  }
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

// ---------------------------------------------------------------------------
// ScopedTimer

namespace {
thread_local std::string tl_span_path;
}  // namespace

ScopedTimer::ScopedTimer(std::string_view name, Registry& registry)
    : registry_(&registry),
      prev_length_(tl_span_path.size()),
      start_(std::chrono::steady_clock::now()) {
  if (!tl_span_path.empty()) tl_span_path += '/';
  tl_span_path += name;
}

ScopedTimer::~ScopedTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  registry_->histogram("time/" + tl_span_path).observe(seconds);
  tl_span_path.resize(prev_length_);
}

std::string ScopedTimer::current_path() { return tl_span_path; }

}  // namespace pgmcml::obs
