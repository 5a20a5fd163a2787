#include "pgmcml/config/plan.hpp"

#include <limits>
#include <utility>

namespace pgmcml::config {

namespace {

mcml::CellKind parse_cell(const Reader& node) {
  const std::string& name = node.as_string();
  const mcml::CellInfo* info = mcml::find_cell(name);
  if (info == nullptr) node.fail("unknown cell '" + name + "'");
  return info->kind;
}

std::vector<mcml::CellKind> parse_cells(const Reader& r) {
  const std::optional<Reader> member = r.optional_child("cells");
  if (!member.has_value()) return mcml::all_cells();
  if (member->value().is_string()) {
    if (member->as_string() != "all") {
      member->fail("expected \"all\" or an array of cell names");
    }
    return mcml::all_cells();
  }
  std::vector<mcml::CellKind> out;
  for (const Reader& e : member->elements()) out.push_back(parse_cell(e));
  if (out.empty()) member->fail("must name at least one cell");
  return out;
}

/// An optional attack the "attacks" array can switch on, beyond the
/// always-on cpa/dpa pair, and the flag it sets.
using AttackToggle = std::pair<std::string_view, bool*>;

/// Reads the "attacks" array.  "cpa"/"dpa" are always-on and accepted for
/// self-documentation; the plan kind's `toggles` are set to whether they are
/// listed.  Names the kind does not offer are still recognized, with a
/// kind-specific error.
void parse_attacks(const Reader& r,
                   std::initializer_list<AttackToggle> toggles) {
  const std::optional<Reader> member = r.optional_child("attacks");
  if (!member.has_value()) return;
  for (const AttackToggle& t : toggles) *t.second = false;
  for (const Reader& e : member->elements()) {
    const std::string& a = e.as_string();
    if (a == "cpa" || a == "dpa") continue;
    bool* flag = nullptr;
    for (const AttackToggle& t : toggles) {
      if (t.first == a) flag = t.second;
    }
    if (flag != nullptr) {
      *flag = true;
    } else if (a == "tvla") {
      e.fail("'tvla' is only available in campaign plans");
    } else {
      e.fail("unknown attack '" + a +
             "' (expected one of: cpa | dpa | tvla | mtd | static_power | "
             "mlpa)");
    }
  }
}

constexpr std::int64_t kMaxCount = 1 << 30;

std::uint8_t byte_or(const Reader& r, std::string_view key,
                     std::uint8_t fallback) {
  return static_cast<std::uint8_t>(r.int_or(key, fallback, 0, 255));
}

std::uint64_t seed_or(const Reader& r, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(r.int_or(
      "seed", static_cast<std::int64_t>(fallback), 0,
      std::numeric_limits<std::int64_t>::max()));
}

/// Members shared by dpa_flow and campaign plans (traces / samples /
/// key / seed / dt / noise_sigma / gating / kernels / batch size).
template <typename Options>
void parse_acquisition(const Reader& r, Options& o) {
  o.num_traces = static_cast<std::size_t>(
      r.int_or("traces", static_cast<std::int64_t>(o.num_traces), 1,
               kMaxCount));
  o.samples = static_cast<std::size_t>(r.int_or(
      "samples", static_cast<std::int64_t>(o.samples), 1, kMaxCount));
  o.key = byte_or(r, "key", o.key);
  o.seed = seed_or(r, o.seed);
  o.dt = r.positive_or("dt", o.dt);
  o.noise_sigma = r.number_or("noise_sigma", o.noise_sigma);
  if (o.noise_sigma < 0.0) r.child("noise_sigma").fail("must be >= 0");
  o.gate_per_operation = r.bool_or("gate_per_operation", o.gate_per_operation);
  o.spice_kernels = r.bool_or("spice_kernels", o.spice_kernels);
  o.batch_size = static_cast<std::size_t>(r.int_or(
      "batch_size", static_cast<std::int64_t>(o.batch_size), 1, kMaxCount));
}

}  // namespace

std::string to_string(PlanTask task) {
  switch (task) {
    case PlanTask::kCharacterize: return "characterize";
    case PlanTask::kBiasSweep: return "bias_sweep";
    case PlanTask::kMonteCarlo: return "monte_carlo";
    case PlanTask::kDpaFlow: return "dpa_flow";
    case PlanTask::kCampaign: return "campaign";
  }
  return "characterize";
}

Plan plan_from_json(const obs::json::Value& doc,
                    const std::string& doc_label) {
  const Reader r = open_document(doc, "plan", doc_label);
  Plan p;
  p.name = r.require_string("name");
  if (p.name.empty()) r.child("name").fail("must not be empty");
  p.task = static_cast<PlanTask>(r.require_enum(
      "task",
      {"characterize", "bias_sweep", "monte_carlo", "dpa_flow", "campaign"}));

  switch (p.task) {
    case PlanTask::kCharacterize: {
      r.reject_unknown_keys(
          {"pgmcml_schema", "kind", "name", "task", "cells", "fanout"});
      p.characterize.cells = parse_cells(r);
      p.characterize.fanout =
          static_cast<int>(r.int_or("fanout", p.characterize.fanout, 1, 64));
      break;
    }
    case PlanTask::kBiasSweep: {
      r.reject_unknown_keys(
          {"pgmcml_schema", "kind", "name", "task", "currents"});
      const Reader currents = r.child("currents");
      for (const Reader& e : currents.elements()) {
        const double iss = e.as_finite_number();
        if (iss <= 0.0) e.fail("tail current must be > 0");
        p.bias_sweep.currents.push_back(iss);
      }
      if (p.bias_sweep.currents.empty()) {
        currents.fail("must hold at least one tail current");
      }
      break;
    }
    case PlanTask::kMonteCarlo: {
      r.reject_unknown_keys({"pgmcml_schema", "kind", "name", "task", "cell",
                             "samples", "seed"});
      p.monte_carlo.cell = parse_cell(r.child("cell"));
      p.monte_carlo.samples = static_cast<std::size_t>(r.int_or(
          "samples", static_cast<std::int64_t>(p.monte_carlo.samples), 1,
          kMaxCount));
      p.monte_carlo.seed = seed_or(r, p.monte_carlo.seed);
      break;
    }
    case PlanTask::kDpaFlow: {
      r.reject_unknown_keys({"pgmcml_schema", "kind", "name", "task",
                             "traces", "samples", "key", "seed", "dt",
                             "noise_sigma", "gate_per_operation",
                             "spice_kernels", "fixed_plaintext", "batch_size",
                             "attacks", "acquisition"});
      core::DpaFlowOptions& o = p.dpa_flow;
      // An experiment reports verdicts only, so it never holds its traces.
      o.keep_traces = false;
      parse_acquisition(r, o);
      o.fixed_plaintext =
          static_cast<int>(r.int_or("fixed_plaintext", o.fixed_plaintext,
                                    -1, 255));
      o.acquisition = r.enum_or("acquisition", {"dynamic", "static"}, 0) == 1
                          ? core::AcquisitionMode::kStatic
                          : core::AcquisitionMode::kDynamic;
      // A static acquisition always mounts the static-power attack, so
      // listing it only documents the plan -- and contradicts a dynamic one.
      bool static_power = false;
      parse_attacks(r, {{"mtd", &o.compute_mtd},
                        {"static_power", &static_power},
                        {"mlpa", &o.compute_mlpa}});
      if (static_power && o.acquisition != core::AcquisitionMode::kStatic) {
        r.child("attacks").fail(
            "'static_power' requires \"acquisition\": \"static\" (the attack "
            "averages quiescent holds, not transient traces)");
      }
      break;
    }
    case PlanTask::kCampaign: {
      r.reject_unknown_keys(
          {"pgmcml_schema", "kind", "name", "task", "traces", "samples",
           "key", "seed", "dt", "noise_sigma", "gate_per_operation",
           "spice_kernels", "fixed_plaintext", "batch_size", "attacks",
           "shard_size", "workers", "checkpoint_every", "spool_dir",
           "max_restarts", "worker_threads"});
      campaign::CampaignOptions& o = p.campaign;
      parse_acquisition(r, o);
      o.fixed_plaintext = byte_or(r, "fixed_plaintext", o.fixed_plaintext);
      parse_attacks(r, {{"mtd", &o.compute_mtd},
                        {"tvla", &o.tvla},
                        {"static_power", &o.static_power},
                        {"mlpa", &o.mlpa}});
      o.shard_size = static_cast<std::size_t>(r.int_or(
          "shard_size", static_cast<std::int64_t>(o.shard_size), 0,
          kMaxCount));
      o.num_workers = static_cast<std::size_t>(r.int_or(
          "workers", static_cast<std::int64_t>(o.num_workers), 1, 1024));
      o.checkpoint_every = static_cast<std::size_t>(r.int_or(
          "checkpoint_every", static_cast<std::int64_t>(o.checkpoint_every),
          1, kMaxCount));
      o.spool_dir = r.string_or("spool_dir", o.spool_dir);
      if (o.spool_dir.empty()) {
        r.child("spool_dir").fail("must not be empty");
      }
      o.max_restarts = static_cast<std::size_t>(r.int_or(
          "max_restarts", static_cast<std::int64_t>(o.max_restarts), 0,
          1024));
      o.worker_threads = static_cast<std::size_t>(r.int_or(
          "worker_threads", static_cast<std::int64_t>(o.worker_threads), 1,
          256));
      break;
    }
  }
  return p;
}

}  // namespace pgmcml::config
