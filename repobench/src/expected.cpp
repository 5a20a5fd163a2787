#include "expected.hpp"

#include <stdexcept>

namespace repobench {

namespace json = pgmcml::obs::json;

json::Value load_expected(const std::string& path) {
  if (path.empty()) return json::Value(json::Object{});
  std::optional<json::Value> v = json::load_file(path);
  if (!v || !v->is_object()) {
    throw std::runtime_error("unreadable expected-values file " + path);
  }
  return *v;
}

const json::Value* find_expected(const json::Value& table,
                                 const std::string& workload,
                                 std::uint64_t seed) {
  const json::Value* w = table.find(workload);
  if (w == nullptr || !w->is_object()) return nullptr;
  return w->find(std::to_string(seed));
}

void compare_pinned(Outcome& out, const json::Value& pinned,
                    const json::Value& actual, const std::string& path) {
  if (pinned.is_object()) {
    for (const auto& [key, value] : pinned.as_object()) {
      const json::Value* a = actual.is_object() ? actual.find(key) : nullptr;
      if (a == nullptr) {
        out.fail_check(path + "/" + key + ": missing from the run");
        continue;
      }
      compare_pinned(out, value, *a, path + "/" + key);
    }
    return;
  }
  bool same = false;
  if (pinned.is_number() && actual.is_number()) {
    same = close_rel(pinned.as_number(), actual.as_number());
  } else {
    same = pinned.dump() == actual.dump();
  }
  if (!same) {
    out.fail_check(path + ": expected " + pinned.dump() + ", got " +
                   actual.dump());
  }
}

}  // namespace repobench
