#include "pgmcml/spice/solve_error.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace pgmcml::spice {

const char* to_string(SolveErrorKind kind) {
  switch (kind) {
    case SolveErrorKind::kNone: return "none";
    case SolveErrorKind::kSingularMatrix: return "singular-matrix";
    case SolveErrorKind::kNonFiniteValues: return "non-finite-values";
    case SolveErrorKind::kNewtonMaxIter: return "newton-max-iter";
    case SolveErrorKind::kTimestepUnderflow: return "timestep-underflow";
    case SolveErrorKind::kDcNoConvergence: return "dc-no-convergence";
    case SolveErrorKind::kInvalidInput: return "invalid-input";
  }
  return "unknown";
}

std::string SolveError::describe() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << to_string(kind);
  if (!message.empty()) os << ": " << message;
  if (time > 0.0) os << " (t=" << time << ")";
  return os.str();
}

void EngineStats::merge(const EngineStats& other) {
  for (const EngineCounter& c : kEngineCounters) {
    this->*c.member += other.*c.member;
  }
}

void FlowDiagnostics::record_retry(const std::string& stage,
                                   const std::string& error) {
  ++retries;
  incidents.push_back({stage, error, false});
}

void FlowDiagnostics::record_recovery(const std::string& stage) {
  ++recovered;
  // Upgrade the matching retry incident (most recent for this stage).
  for (auto it = incidents.rbegin(); it != incidents.rend(); ++it) {
    if (it->stage == stage) {
      it->recovered = true;
      return;
    }
  }
  incidents.push_back({stage, "", true});
}

void FlowDiagnostics::record_skip(const std::string& stage,
                                  const std::string& error) {
  ++skipped;
  incidents.push_back({stage, error, false});
}

void FlowDiagnostics::merge(const FlowDiagnostics& other) {
  attempts += other.attempts;
  retries += other.retries;
  recovered += other.recovered;
  skipped += other.skipped;
  incidents.insert(incidents.end(), other.incidents.begin(),
                   other.incidents.end());
  engine.merge(other.engine);
}

namespace {

/// A counter field.  A value no u64 holds (negative, 2^64 or more, NaN) is
/// a malformed document: casting it would be undefined behaviour.
std::uint64_t u64_field(const obs::json::Value& v, std::string_view key) {
  const double x = v.number_or(key, 0.0);
  if (!(x >= 0.0 && x < 18446744073709551616.0)) {
    throw std::runtime_error("diagnostics: field '" + std::string(key) +
                             "' is not a count");
  }
  return static_cast<std::uint64_t>(x);
}

}  // namespace

obs::json::Value EngineStats::to_json_value() const {
  obs::json::Object o;
  for (const EngineCounter& c : kEngineCounters) {
    o.emplace_back(c.json_key, static_cast<std::uint64_t>(this->*c.member));
  }
  return obs::json::Value(std::move(o));
}

EngineStats EngineStats::from_json_value(const obs::json::Value& v) {
  EngineStats s;
  for (const EngineCounter& c : kEngineCounters) {
    s.*c.member = u64_field(v, c.json_key);
  }
  return s;
}

obs::json::Value FlowDiagnostics::to_json_value() const {
  obs::json::Object o;
  o.emplace_back("attempts", static_cast<std::uint64_t>(attempts));
  o.emplace_back("retries", static_cast<std::uint64_t>(retries));
  o.emplace_back("recovered", static_cast<std::uint64_t>(recovered));
  o.emplace_back("skipped", static_cast<std::uint64_t>(skipped));
  obs::json::Array inc;
  for (const FlowIncident& i : incidents) {
    obs::json::Object io;
    io.emplace_back("stage", i.stage);
    io.emplace_back("error", i.error);
    io.emplace_back("recovered", i.recovered);
    inc.emplace_back(std::move(io));
  }
  o.emplace_back("incidents", obs::json::Value(std::move(inc)));
  o.emplace_back("engine", engine.to_json_value());
  return obs::json::Value(std::move(o));
}

FlowDiagnostics FlowDiagnostics::from_json_value(const obs::json::Value& v) {
  FlowDiagnostics d;
  d.attempts = u64_field(v, "attempts");
  d.retries = u64_field(v, "retries");
  d.recovered = u64_field(v, "recovered");
  d.skipped = u64_field(v, "skipped");
  if (const obs::json::Value* inc = v.find("incidents")) {
    for (const obs::json::Value& i : inc->as_array()) {
      FlowIncident out;
      out.stage = i.string_or("stage", "");
      out.error = i.string_or("error", "");
      if (const obs::json::Value* r = i.find("recovered")) {
        out.recovered = r->as_bool();
      }
      d.incidents.push_back(std::move(out));
    }
  }
  if (const obs::json::Value* eng = v.find("engine")) {
    d.engine = EngineStats::from_json_value(*eng);
  }
  return d;
}

}  // namespace pgmcml::spice
