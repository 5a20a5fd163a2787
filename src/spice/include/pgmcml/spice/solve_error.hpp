// Typed failure taxonomy and diagnostics for the analysis engines.
//
// Every analog solve in the pipeline (DC operating points, transients, the
// sweeps and acquisitions built on them) reports failure through a
// SolveError carrying a machine-checkable kind, and success/failure alike
// through EngineStats counting what the solver had to do (Newton iterations,
// fallbacks, recovery-ladder rungs).  Flow-level callers aggregate per-point
// outcomes into a FlowDiagnostics that benches emit as JSON, so a stiff or
// degenerate circuit becomes a recorded, diagnosable event instead of a
// silent sentinel or an abort.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::spice {

/// Why a solve failed.  kNone means success.
enum class SolveErrorKind {
  kNone = 0,
  kSingularMatrix,      ///< LU pivot below the singularity threshold
  kNonFiniteValues,     ///< NaN/Inf in the Newton iterate or system
  kNewtonMaxIter,       ///< Newton-Raphson hit the iteration cap
  kTimestepUnderflow,   ///< transient ladder exhausted below dt_min
  kDcNoConvergence,     ///< direct + gmin-stepping + source-stepping all failed
  kInvalidInput,        ///< malformed options or initial state
};

/// Short stable identifier ("singular-matrix", "newton-max-iter", ...).
const char* to_string(SolveErrorKind kind);

/// Structured solve failure: kind + human-readable context.
struct SolveError {
  SolveErrorKind kind = SolveErrorKind::kNone;
  std::string message;
  double time = 0.0;  ///< transient time of the failure (0 for DC)

  bool ok() const { return kind == SolveErrorKind::kNone; }
  /// "kind: message" (with "at t=..." appended for transient failures).
  std::string describe() const;
};

/// Per-analysis effort and recovery counters.  Populated by every DC and
/// transient solve; flow layers merge them across points.
struct EngineStats {
  std::size_t newton_iterations = 0;  ///< total NR iterations
  std::size_t newton_failures = 0;    ///< NR runs that did not converge
  /// Full LU factorizations that SUCCEEDED (dense, or sparse with fresh
  /// pivoting).  Failed attempts count in lu_factorization_failures instead,
  /// so the counter never claims work that produced no factor.
  std::size_t lu_factorizations = 0;
  std::size_t lu_factorization_failures = 0;  ///< singular/non-finite attempts
  std::size_t lu_solves = 0;          ///< forward/back substitutions run
  /// Sparse-backend structure reuse: symbolic analyses run (once per new
  /// topology per workspace) and successful pattern-replay refactorizations
  /// (the per-iteration hot path).  Same success-only discipline as
  /// lu_factorizations.
  std::size_t symbolic_analyses = 0;
  std::size_t numeric_refactors = 0;
  std::size_t steps_accepted = 0;     ///< transient steps accepted
  std::size_t steps_rejected = 0;     ///< transient steps rejected
  std::size_t gmin_step_stages = 0;   ///< DC gmin-stepping stages run
  std::size_t source_step_stages = 0; ///< DC source-stepping stages run
  std::size_t dt_floor_breaches = 0;  ///< ladder rung 1: dt pushed below dt_min
  std::size_t gmin_boosts = 0;        ///< ladder rung 2: temporary gmin boost
  std::size_t be_fallback_steps = 0;  ///< ladder rung 3: steps integrated in
                                      ///< the backward-Euler fallback mode
  std::size_t recovered_steps = 0;    ///< steps accepted via a ladder rung
  std::size_t faults_injected = 0;    ///< FaultPlan injections consumed

  void merge(const EngineStats& other);

  /// Exact field-for-field JSON object (every counter, zero or not) --
  /// the round-trip representation the result cache persists.
  obs::json::Value to_json_value() const;
  /// Inverse of to_json_value (missing fields read as 0).  Throws on a
  /// field no u64 holds.
  static EngineStats from_json_value(const obs::json::Value& v);
};

/// One EngineStats counter: its member, its JSON key and the obs counter the
/// engine publishes it under.
struct EngineCounter {
  std::size_t EngineStats::*member;
  const char* json_key;
  const char* obs_name;
};

/// The single list of engine counters.  merge, the JSON round trip and the
/// obs publication all walk it, so a new counter is one new row.  Keys and
/// their order are persisted by the result cache, and bench manifests read
/// the obs names: neither may change.
inline constexpr EngineCounter kEngineCounters[] = {
    {&EngineStats::newton_iterations, "newton_iterations",
     "spice.newton_iterations"},
    {&EngineStats::newton_failures, "newton_failures", "spice.newton_failures"},
    {&EngineStats::lu_factorizations, "lu_factorizations",
     "spice.lu_factorizations"},
    {&EngineStats::lu_factorization_failures, "lu_factorization_failures",
     "spice.lu_factorization_failures"},
    {&EngineStats::lu_solves, "lu_solves", "spice.lu_solves"},
    {&EngineStats::symbolic_analyses, "symbolic_analyses",
     "spice.symbolic_analyses"},
    {&EngineStats::numeric_refactors, "numeric_refactors",
     "spice.numeric_refactors"},
    {&EngineStats::steps_accepted, "steps_accepted", "spice.steps_accepted"},
    {&EngineStats::steps_rejected, "steps_rejected", "spice.steps_rejected"},
    {&EngineStats::gmin_step_stages, "gmin_step_stages",
     "spice.gmin_step_stages"},
    {&EngineStats::source_step_stages, "source_step_stages",
     "spice.source_step_stages"},
    {&EngineStats::dt_floor_breaches, "dt_floor_breaches",
     "spice.ladder.dt_floor_breaches"},
    {&EngineStats::gmin_boosts, "gmin_boosts", "spice.ladder.gmin_boosts"},
    {&EngineStats::be_fallback_steps, "be_fallback_steps",
     "spice.ladder.be_fallback_steps"},
    {&EngineStats::recovered_steps, "recovered_steps",
     "spice.ladder.recovered_steps"},
    {&EngineStats::faults_injected, "faults_injected", "spice.faults_injected"},
};

/// One recorded failure (or recovery) at the flow level.
struct FlowIncident {
  std::string stage;      ///< e.g. "characterize:BUF", "trace:17"
  std::string error;      ///< rendered SolveError / exception text
  bool recovered = false; ///< a retry succeeded; the point was not lost
};

/// Aggregated outcome of a multi-point flow stage (a sweep, a Monte-Carlo
/// run, a trace acquisition): how many points were attempted, retried,
/// recovered or skipped, with the engine-effort totals underneath.
struct FlowDiagnostics {
  std::size_t attempts = 0;  ///< points attempted
  std::size_t retries = 0;   ///< retry attempts issued
  std::size_t recovered = 0; ///< points saved by a retry
  std::size_t skipped = 0;   ///< points abandoned after the retry
  std::vector<FlowIncident> incidents;
  EngineStats engine;

  bool clean() const { return retries == 0 && skipped == 0; }

  void record_attempt() { ++attempts; }
  /// A first attempt failed and a retry was issued.
  void record_retry(const std::string& stage, const std::string& error);
  /// The retry succeeded: upgrade the incident to recovered.
  void record_recovery(const std::string& stage);
  /// The retry failed too: the point is skipped.
  void record_skip(const std::string& stage, const std::string& error);

  /// Index-ordered merge (callers collect per-point diagnostics in a vector
  /// and merge serially, keeping the aggregate thread-count invariant).
  void merge(const FlowDiagnostics& other);

  /// Complete JSON form -- counters, incidents and the full EngineStats --
  /// such that from_json_value(to_json_value()) == *this field for field.
  /// This is what the result cache stores so a warm hit replays the same
  /// diagnostics a cold run would have produced, and what benches and
  /// reports emit as their `diagnostics` section.
  obs::json::Value to_json_value() const;
  /// Inverse of to_json_value.  Throws on a malformed document (the cache
  /// treats that as a corrupt entry / miss).
  static FlowDiagnostics from_json_value(const obs::json::Value& v);
};

}  // namespace pgmcml::spice
