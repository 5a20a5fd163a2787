#include "pgmcml/config/reader.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace pgmcml::config {

namespace {

std::string join(std::initializer_list<std::string_view> labels) {
  std::string out;
  for (std::string_view l : labels) {
    if (!out.empty()) out += " | ";
    out += l;
  }
  return out;
}

const char* type_name(const obs::json::Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return "bool";
  if (v.is_number()) return "number";
  if (v.is_string()) return "string";
  if (v.is_array()) return "array";
  return "object";
}

}  // namespace

Reader::Reader(const obs::json::Value& v, std::string path)
    : v_(&v), path_(std::move(path)) {}

void Reader::fail(const std::string& what) const {
  throw ConfigError(path_, what);
}

void Reader::fail_at(std::string_view key, const std::string& what) const {
  throw ConfigError(path_ + "/" + std::string(key), what);
}

const obs::json::Object& Reader::as_object() const {
  if (!v_->is_object()) {
    fail(std::string("expected an object, got ") + type_name(*v_));
  }
  return v_->as_object();
}

const obs::json::Value* Reader::find_member(std::string_view key) const {
  as_object();  // type check with a path-qualified error
  return v_->find(key);
}

bool Reader::has(std::string_view key) const {
  return find_member(key) != nullptr;
}

Reader Reader::child(std::string_view key) const {
  const obs::json::Value* m = find_member(key);
  if (m == nullptr) fail_at(key, "required member is missing");
  return Reader(*m, path_ + "/" + std::string(key));
}

std::optional<Reader> Reader::optional_child(std::string_view key) const {
  const obs::json::Value* m = find_member(key);
  if (m == nullptr) return std::nullopt;
  return Reader(*m, path_ + "/" + std::string(key));
}

bool Reader::as_bool() const {
  if (!v_->is_bool()) {
    fail(std::string("expected a bool, got ") + type_name(*v_));
  }
  return v_->as_bool();
}

double Reader::as_finite_number() const {
  if (!v_->is_number()) {
    fail(std::string("expected a number, got ") + type_name(*v_));
  }
  const double d = v_->as_number();
  if (!std::isfinite(d)) fail("number must be finite");
  return d;
}

const std::string& Reader::as_string() const {
  if (!v_->is_string()) {
    fail(std::string("expected a string, got ") + type_name(*v_));
  }
  return v_->as_string();
}

std::vector<Reader> Reader::elements() const {
  if (!v_->is_array()) {
    fail(std::string("expected an array, got ") + type_name(*v_));
  }
  const obs::json::Array& arr = v_->as_array();
  std::vector<Reader> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.emplace_back(arr[i], path_ + "[" + std::to_string(i) + "]");
  }
  return out;
}

std::string Reader::require_string(std::string_view key) const {
  return child(key).as_string();
}

double Reader::require_number(std::string_view key) const {
  return child(key).as_finite_number();
}

double Reader::require_positive(std::string_view key) const {
  const Reader c = child(key);
  const double d = c.as_finite_number();
  if (d <= 0.0) c.fail("must be > 0");
  return d;
}

std::int64_t Reader::require_int(std::string_view key, std::int64_t lo,
                                 std::int64_t hi) const {
  const Reader c = child(key);
  const double d = c.as_finite_number();
  if (d != std::floor(d)) c.fail("must be an integer");
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    c.fail("must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]");
  }
  return static_cast<std::int64_t>(d);
}

std::string Reader::string_or(std::string_view key,
                              std::string fallback) const {
  const std::optional<Reader> c = optional_child(key);
  return c.has_value() ? c->as_string() : std::move(fallback);
}

double Reader::number_or(std::string_view key, double fallback) const {
  const std::optional<Reader> c = optional_child(key);
  return c.has_value() ? c->as_finite_number() : fallback;
}

double Reader::positive_or(std::string_view key, double fallback) const {
  const std::optional<Reader> c = optional_child(key);
  if (!c.has_value()) return fallback;
  const double d = c->as_finite_number();
  if (d <= 0.0) c->fail("must be > 0");
  return d;
}

std::int64_t Reader::int_or(std::string_view key, std::int64_t fallback,
                            std::int64_t lo, std::int64_t hi) const {
  if (!has(key)) return fallback;
  return require_int(key, lo, hi);
}

bool Reader::bool_or(std::string_view key, bool fallback) const {
  const std::optional<Reader> c = optional_child(key);
  return c.has_value() ? c->as_bool() : fallback;
}

std::size_t Reader::require_enum(
    std::string_view key,
    std::initializer_list<std::string_view> labels) const {
  const Reader c = child(key);
  const std::string& s = c.as_string();
  std::size_t i = 0;
  for (std::string_view l : labels) {
    if (s == l) return i;
    ++i;
  }
  c.fail("unknown value '" + s + "' (expected one of: " + join(labels) + ")");
}

std::size_t Reader::enum_or(std::string_view key,
                            std::initializer_list<std::string_view> labels,
                            std::size_t fallback) const {
  if (!has(key)) return fallback;
  return require_enum(key, labels);
}

void Reader::reject_unknown_keys(
    std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, unused] : as_object()) {
    bool known = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail_at(key, "unknown member (expected one of: " + join(allowed) + ")");
    }
  }
}

Reader open_document(const obs::json::Value& doc, std::string_view expect_kind,
                     const std::string& doc_label) {
  Reader r(doc, doc_label);
  if (!doc.is_object()) r.fail("a config document must be a JSON object");
  const std::int64_t schema =
      r.require_int("pgmcml_schema", 0, std::numeric_limits<std::int64_t>::max());
  if (schema != kSchemaVersion) {
    r.child("pgmcml_schema")
        .fail("unsupported schema version " + std::to_string(schema) +
              " (this build reads version " + std::to_string(kSchemaVersion) +
              ")");
  }
  const std::string kind = r.require_string("kind");
  if (expect_kind.empty()) {
    static constexpr std::string_view kKnown[] = {
        "technology", "cell_variant", "plan", "experiment", "request"};
    bool known = false;
    for (std::string_view k : kKnown) known = known || kind == k;
    if (!known) {
      r.child("kind").fail("unknown document kind '" + kind + "'");
    }
  } else if (kind != expect_kind) {
    r.child("kind").fail("expected kind '" + std::string(expect_kind) +
                         "', got '" + kind + "'");
  }
  return r;
}

obs::json::Value load_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ConfigError(path, "cannot open file");
  }
  std::string text;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) throw ConfigError(path, "I/O error while reading");
  try {
    return obs::json::Value::parse(text);
  } catch (const obs::json::ParseError& e) {
    throw ConfigError(path, std::string("JSON parse error: ") + e.what());
  }
}

}  // namespace pgmcml::config
