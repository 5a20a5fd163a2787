// Plan documents: what to run -- a characterization pass, a bias sweep, a
// Monte-Carlo study, a DPA flow or a distributed trace campaign -- parsed
// into the existing typed option structs.
//
// Document shape (kind "plan"), discriminated by "task":
//
//   { "pgmcml_schema": 1, "kind": "plan", "name": "table2",
//     "task": "characterize",
//     "cells": "all",                // or ["BUF", "AND2", ...]
//     "fanout": 1 }
//
//   { ..., "task": "bias_sweep",
//     "currents": [1e-05, 2e-05, 5e-05, 0.0001] }
//
//   { ..., "task": "monte_carlo",
//     "cell": "BUF", "samples": 32, "seed": 1234 }
//
//   { ..., "task": "dpa_flow",
//     "traces": 2000, "samples": 900, "key": 43, "seed": 7,
//     "dt": 2e-12, "noise_sigma": 2e-06,
//     "gate_per_operation": true, "spice_kernels": false,
//     "fixed_plaintext": -1, "batch_size": 64,
//     "acquisition": "dynamic",        // or "static" (quiescent holds)
//     "attacks": ["cpa", "dpa", "mtd", "mlpa"] }
//
//   { ..., "task": "campaign",
//     "traces": 4096, "samples": 600, "key": 43, "seed": 7,
//     "dt": 2e-12, "noise_sigma": 2e-06, "fixed_plaintext": 82,
//     "gate_per_operation": true, "spice_kernels": false,
//     "attacks": ["cpa", "dpa", "tvla", "mtd", "static_power", "mlpa"],
//     "shard_size": 0, "workers": 4, "checkpoint_every": 256,
//     "batch_size": 64, "spool_dir": "campaign-spool",
//     "max_restarts": 3, "worker_threads": 1 }
//
// In both attack lists "cpa" and "dpa" are always computed and accepted for
// self-documentation; "mtd" maps to compute_mtd, "tvla" (campaign only) to
// CampaignOptions::tvla, and "mlpa" to the multi-linear partitioning attack.
// "static_power" is the quiescent-leakage attack.  A dpa_flow mounts it on
// every "acquisition": "static" run, so there it is self-documentation and
// is rejected without a static acquisition (the attack averages quiescent
// holds, not transient traces); a campaign maps it to
// CampaignOptions::static_power and runs the static phase as its own seed+2
// acquisition, so no acquisition key exists there.  Every numeric member is
// optional and defaults to the option struct's own default.
#pragma once

#include <string>
#include <vector>

#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/config/reader.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/mcml/cells.hpp"

namespace pgmcml::config {

enum class PlanTask {
  kCharacterize,
  kBiasSweep,
  kMonteCarlo,
  kDpaFlow,
  kCampaign,
};

std::string to_string(PlanTask task);

struct CharacterizePlan {
  std::vector<mcml::CellKind> cells;  ///< Table 2 order; "all" -> all 16
  int fanout = 1;
};

struct BiasSweepPlan {
  std::vector<double> currents;  ///< tail currents [A], at least one
};

struct MonteCarloPlan {
  mcml::CellKind cell = mcml::CellKind::kBuf;
  std::size_t samples = 32;
  std::uint64_t seed = 1234;
};

/// One parsed plan document.  Exactly the member selected by `task` is
/// meaningful; the option structs for dpa_flow / campaign carry the style
/// member unset (kCmos default) -- the experiment layer stamps the cell
/// variant's style in.
struct Plan {
  std::string name;
  PlanTask task = PlanTask::kCharacterize;
  CharacterizePlan characterize;
  BiasSweepPlan bias_sweep;
  MonteCarloPlan monte_carlo;
  core::DpaFlowOptions dpa_flow;
  campaign::CampaignOptions campaign;
};

/// Parses and validates one plan document.
Plan plan_from_json(const obs::json::Value& doc, const std::string& doc_label);

}  // namespace pgmcml::config
