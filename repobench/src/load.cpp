#include "load.hpp"

#include <cstdio>

#include "common.hpp"
#include "pgmcml/config/technology.hpp"
#include "pgmcml/mcml/cells.hpp"
#include "pgmcml/util/rng.hpp"

namespace repobench {

namespace json = pgmcml::obs::json;

namespace {

const std::vector<std::string>& cell_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (pgmcml::mcml::CellKind k : pgmcml::mcml::all_cells()) {
      n.push_back(pgmcml::mcml::to_string(k));
    }
    return n;
  }();
  return names;
}

}  // namespace

double cold_iss(std::uint64_t seed, std::uint64_t client,
                std::uint64_t ordinal) {
  // 0.1 nA steps above a seeded base near the paper's 50 uA point.
  const double base = 44e-6 + 2e-6 * (derive(seed, 300) % 1000) / 1000.0;
  return base + 1e-10 * static_cast<double>(ordinal * 64 + client + 1);
}

RequestSpec request_at(std::uint64_t seed, std::uint64_t client,
                       std::uint64_t k) {
  RequestSpec spec;
  char id[48];
  std::snprintf(id, sizeof id, "c%llu-%llu",
                static_cast<unsigned long long>(client),
                static_cast<unsigned long long>(k));
  spec.id = std::string(id);
  const std::uint64_t session = k / kSessionRequests;
  const std::uint64_t pos = k % kSessionRequests;
  spec.cold = pos == 0;
  if (pos <= 1) {
    spec.iss = cold_iss(seed, client, session);
  } else {
    // Burst: the nominal fill or any session of this client so far.
    pgmcml::util::Rng rng =
        pgmcml::util::Rng::stream(derive(seed, 200 + client), k);
    const std::uint64_t pick = rng.bounded(session + 2);
    spec.iss = pick == 0 ? kNominalIss : cold_iss(seed, client, pick - 1);
  }
  return spec;
}

RequestSpec warm_fill_spec() {
  RequestSpec spec;
  spec.id = "warm-fill";
  return spec;
}

json::Value experiment_doc(const RequestSpec& spec) {
  json::Object variant;
  variant.emplace_back("pgmcml_schema", std::int64_t{1});
  variant.emplace_back("kind", "cell_variant");
  variant.emplace_back("name", "operating-point");
  variant.emplace_back("style", "mcml");
  variant.emplace_back("iss", spec.iss);

  json::Array cells;
  for (const std::string& c : cell_names()) cells.emplace_back(c);
  json::Object plan;
  plan.emplace_back("pgmcml_schema", std::int64_t{1});
  plan.emplace_back("kind", "plan");
  plan.emplace_back("name", "characterize");
  plan.emplace_back("task", "characterize");
  plan.emplace_back("cells", json::Value(std::move(cells)));

  json::Object e;
  e.emplace_back("pgmcml_schema", std::int64_t{1});
  e.emplace_back("kind", "experiment");
  e.emplace_back("name", "daemon-mixed");
  e.emplace_back("technology",
                 pgmcml::config::technology_to_json(
                     pgmcml::spice::TechnologyParams::builtin90(
                         pgmcml::spice::Corner::kTypical)));
  e.emplace_back("design", json::Value(std::move(variant)));
  e.emplace_back("plan", json::Value(std::move(plan)));
  return json::Value(std::move(e));
}

ResponseClass classify(const pgmcml::config::Response& r,
                       const std::string& request_id,
                       const std::string* expected_report) {
  using pgmcml::config::ResponseStatus;
  switch (r.status) {
    case ResponseStatus::kRejected:
      return ResponseClass::kRejected;
    case ResponseStatus::kExpired:
      return ResponseClass::kExpired;
    case ResponseStatus::kError:
      return ResponseClass::kError;
    case ResponseStatus::kOk:
      break;
  }
  if (r.id != request_id) return ResponseClass::kMismatch;
  if (expected_report != nullptr && r.report.dump() != *expected_report) {
    return ResponseClass::kMismatch;
  }
  return ResponseClass::kOk;
}

}  // namespace repobench
