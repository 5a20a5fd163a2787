// Content-addressed characterization cache.
//
// The paper's flow is characterize-once / compose-many: every cell is
// SPICE-characterized a single time and every downstream stage (library
// views, kernel composition, benches) reuses the numbers.  ResultCache makes
// that literal for this repo: any deterministic SPICE-derived result --
// a cell characterization, a bias-sweep point, a Monte-Carlo sample, a
// kernel extraction -- is stored as JSON under a stable 128-bit content key
// (see key.hpp), behind an in-memory LRU front and an optional on-disk
// store, so a warm bench run skips every redundant transistor-level solve
// while returning bitwise-identical results.
//
// Properties:
//   * Hits are exact: payloads round-trip every double bitwise (the JSON
//     writer emits 17 significant digits), so warm results equal cold ones.
//   * Loads are corruption-tolerant: a truncated, garbled or wrong-schema
//     entry is a miss (counted as `cache.corrupt`), never a crash.
//   * Writes are atomic (write-to-temp + rename), so two processes sharing
//     one cache directory -- a CI cache restore racing a warm run, say --
//     can only ever observe complete entries.  Content addressing makes the
//     race benign: both writers produce the same bytes for the same key.
//   * Instrumented: `cache.hit` / `cache.miss` / `cache.evict` /
//     `cache.store` / `cache.corrupt` / `cache.bytes_read` /
//     `cache.bytes_written` counters land in the global pgmcml::obs
//     registry and therefore in every bench manifest.
//
// The process-wide instance (ResultCache::global()) is DISABLED unless the
// PGMCML_CACHE_DIR environment variable names a directory (created on
// demand).  Tests that assert solver behaviour therefore see the raw
// engine by default; benches opt in by exporting the variable.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "pgmcml/cache/key.hpp"
#include "pgmcml/obs/json.hpp"

namespace pgmcml::cache {

struct CacheOptions {
  /// Master switch; a default-constructed cache is a no-op (get() always
  /// misses without counting, put() is ignored).
  bool enabled = false;
  /// On-disk store directory; empty keeps the cache memory-only.  Created
  /// (recursively) on configure.
  std::string dir;
  /// Capacity of the in-memory LRU front, in entries.  Evicted entries
  /// remain on disk and re-enter memory on their next hit.
  std::size_t max_memory_entries = 512;
};

/// Thread-safe content-addressed result store.  See the file comment.
class ResultCache {
 public:
  /// Disabled cache (every get() is a silent miss).
  ResultCache() = default;
  explicit ResultCache(CacheOptions options) { configure(std::move(options)); }

  /// Re-points the cache (clears the memory front, keeps any disk store
  /// that `options.dir` names).  Creates the directory when needed; on
  /// failure to create it the cache degrades to memory-only.
  void configure(CacheOptions options);

  bool enabled() const;
  const CacheOptions& options() const { return options_; }

  /// Looks `key` up in memory, then on disk.  A disk hit is promoted into
  /// the memory front.  Any malformed or mismatching on-disk entry is
  /// counted corrupt and reported as a miss.
  std::optional<obs::json::Value> get(const CacheKey& key);

  /// Stores `payload` under `key` in the memory front and (when a dir is
  /// configured) on disk.  Failures to persist are non-fatal: the entry
  /// still serves from memory for this process's lifetime.
  void put(const CacheKey& key, const obs::json::Value& payload);

  /// The cache-or-compute step every cached flow goes through: returns
  /// `decode(payload)` on a hit, otherwise `compute()`, storing
  /// `encode(result)` under `key`.  A payload `decode` rejects (nullopt) is
  /// recomputed and overwritten; a disabled cache just computes.
  template <typename Compute, typename Encode, typename Decode>
  auto get_or_compute(const CacheKey& key, Compute&& compute, Encode&& encode,
                      Decode&& decode) -> decltype(compute()) {
    if (!enabled()) return compute();
    if (std::optional<obs::json::Value> hit = get(key)) {
      if (auto value = decode(*hit)) return *std::move(value);
    }
    auto value = compute();
    put(key, encode(value));
    return value;
  }

  /// Drops the in-memory front (the disk store is untouched).  Tests use
  /// this to force the disk-load path.
  void clear_memory();

  /// Monotone per-instance counters (the obs registry aggregates the same
  /// events process-wide under the `cache.*` names).
  struct Stats {
    std::uint64_t hits = 0;       ///< memory + disk hits
    std::uint64_t misses = 0;     ///< lookups that found nothing usable
    std::uint64_t stores = 0;     ///< successful put()s
    std::uint64_t evictions = 0;  ///< LRU entries dropped from memory
    std::uint64_t corrupt = 0;    ///< on-disk entries rejected on load
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  /// The process-wide cache used by the characterization/kernel flows.
  /// First use configures it from PGMCML_CACHE_DIR: unset or empty keeps it
  /// disabled.  Benches and tests may reconfigure it at runtime.
  static ResultCache& global();

 private:
  std::string entry_path(const CacheKey& key) const;
  void insert_memory_locked(const CacheKey& key, obs::json::Value payload);

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct MemoryEntry {
    CacheKey key;
    obs::json::Value payload;
  };

  mutable std::mutex mutex_;
  CacheOptions options_;
  /// LRU order, most recent first; the map indexes into it.
  std::list<MemoryEntry> lru_;
  std::unordered_map<CacheKey, std::list<MemoryEntry>::iterator, KeyHash> map_;
  Stats stats_;
};

}  // namespace pgmcml::cache
