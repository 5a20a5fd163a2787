// Path-qualified, schema-checked traversal of configuration documents.
//
// Every config document is an obs::json::Value; Reader wraps one node of it
// together with its JSON-pointer-style path ("table2.json#/design/iss"), so
// every validation failure names the exact location and expectation instead
// of a bare "bad config".  Typed getters reject wrong types, non-finite
// numbers, out-of-range integers and unknown enum labels; documents are
// closed-world (reject_unknown_keys catches typos like "fanuot" loudly
// instead of silently ignoring them).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::config {

/// Schema version accepted by this build; every document carries it as
/// "pgmcml_schema" so a future incompatible layout is rejected loudly.
inline constexpr std::int64_t kSchemaVersion = 1;

/// Thrown on any validation failure; what() is "<path>: <problem>".
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& path, const std::string& what)
      : std::runtime_error(path + ": " + what), path_(path) {}
  /// Document-relative location of the failure, e.g. "cfg.json#/plan/traces".
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Reader {
 public:
  /// Wraps `v` (not owned; must outlive the Reader) rooted at `path`.
  Reader(const obs::json::Value& v, std::string path);

  const obs::json::Value& value() const { return *v_; }
  const std::string& path() const { return path_; }
  [[noreturn]] void fail(const std::string& what) const;

  bool has(std::string_view key) const;
  /// Required object member; fails when missing.
  Reader child(std::string_view key) const;
  std::optional<Reader> optional_child(std::string_view key) const;

  // --- node-typed accessors (fail with the node's own path) ----------------
  bool as_bool() const;
  double as_finite_number() const;
  const std::string& as_string() const;
  /// Array elements, each with its "[i]" path suffix.
  std::vector<Reader> elements() const;

  // --- member accessors ----------------------------------------------------
  std::string require_string(std::string_view key) const;
  double require_number(std::string_view key) const;  ///< finite, any sign
  double require_positive(std::string_view key) const;
  std::int64_t require_int(std::string_view key, std::int64_t lo,
                           std::int64_t hi) const;

  std::string string_or(std::string_view key, std::string fallback) const;
  double number_or(std::string_view key, double fallback) const;
  double positive_or(std::string_view key, double fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback,
                      std::int64_t lo, std::int64_t hi) const;
  bool bool_or(std::string_view key, bool fallback) const;

  /// String member that must match one of `labels`; returns its index.
  std::size_t require_enum(std::string_view key,
                           std::initializer_list<std::string_view> labels) const;
  /// Like require_enum but returns `fallback` when the member is absent.
  std::size_t enum_or(std::string_view key,
                      std::initializer_list<std::string_view> labels,
                      std::size_t fallback) const;

  /// Fails when the object holds a member not listed in `allowed` -- the
  /// closed-world check that turns a typo into an error, not a default.
  void reject_unknown_keys(
      std::initializer_list<std::string_view> allowed) const;

 private:
  const obs::json::Object& as_object() const;
  const obs::json::Value* find_member(std::string_view key) const;
  [[noreturn]] void fail_at(std::string_view key,
                            const std::string& what) const;

  const obs::json::Value* v_;
  std::string path_;
};

/// Checks the common document envelope -- the node is an object,
/// "pgmcml_schema" equals kSchemaVersion, and "kind" equals `expect_kind`
/// (any registered kind when empty) -- and returns a Reader rooted at
/// `doc_label` for the body.
Reader open_document(const obs::json::Value& doc, std::string_view expect_kind,
                     const std::string& doc_label);

/// Reads and parses `path`; ConfigError on I/O or JSON syntax problems (the
/// parse error's offset is included).
obs::json::Value load_json_file(const std::string& path);

}  // namespace pgmcml::config
