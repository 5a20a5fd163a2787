// daemon-mixed load generation: the seeded request sequence each closed-loop
// client sends, and the classification of every response.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgmcml/config/request.hpp"
#include "pgmcml/obs/json.hpp"

namespace repobench {

/// Requests per session.  The mix follows the daemon's documented use
/// (EXPERIMENTS.md "Service mode", bench_service): a session asks for one
/// whole-library characterization cold, repeats it warm, then sends a
/// 16-request burst, so 1 request in 18 is cold.
inline constexpr std::uint64_t kSessionRequests = 18;
/// Nominal tail current of the MCML design [A]; set-up fills the warm tier
/// with the whole library at this operating point.
inline constexpr double kNominalIss = 50e-6;

/// One characterize request for every cell of the library (Table 2) at one
/// MCML operating point, named by its tail current.  A cold request asks
/// for an operating point that no earlier request of the run used, so it
/// misses the cache, runs SPICE for 16 cells and stores the results; a warm
/// request repeats an operating point the cache already holds.
struct RequestSpec {
  bool cold = false;
  double iss = kNominalIss;  ///< tail current of the cell variant [A]
  std::string id;
};

/// Tail current of the `ordinal`-th cold operating point of `client` in the
/// run seeded with `seed`: distinct for every (client, ordinal).
double cold_iss(std::uint64_t seed, std::uint64_t client,
                std::uint64_t ordinal);

/// Request `k` of client `client` for the run seeded with `seed`; a pure
/// function of its arguments.  Session j = k / kSessionRequests opens with
/// the cold request for cold_iss(seed, client, j) and repeats it warm; the
/// burst's requests each pick, seeded, one operating point the cache holds
/// by then (the nominal fill or one of the client's sessions so far).
RequestSpec request_at(std::uint64_t seed, std::uint64_t client,
                       std::uint64_t k);

/// The experiment document a request carries.
pgmcml::obs::json::Value experiment_doc(const RequestSpec& spec);

/// The experiment that fills the warm tier: every cell, nominal design.
RequestSpec warm_fill_spec();

/// How the load generator counts one response.
enum class ResponseClass { kOk, kRejected, kExpired, kError, kMismatch };

/// kMismatch when the response answers another request id, or when
/// `expected_report` is given and the report differs from it byte for byte.
ResponseClass classify(const pgmcml::config::Response& r,
                       const std::string& request_id,
                       const std::string* expected_report);

inline bool is_failure(ResponseClass c) { return c != ResponseClass::kOk; }

}  // namespace repobench
