#include "pgmcml/config/experiment.hpp"

#include "pgmcml/config/request.hpp"
#include "pgmcml/mcml/montecarlo.hpp"

namespace pgmcml::config {

namespace {

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string resolve_ref(const std::string& base_dir, const std::string& ref) {
  if (!ref.empty() && ref.front() == '/') return ref;
  return base_dir + "/" + ref;
}

/// A member that is either an inline sub-document or a base_dir-relative
/// path to one.  Returns the document value plus the label its errors
/// should carry (the referenced file's path, or the member's own path).
struct ResolvedDoc {
  obs::json::Value owned;  ///< holds the document when loaded from a file
  const obs::json::Value* doc = nullptr;
  std::string label;
};

ResolvedDoc resolve_doc(const Reader& parent, std::string_view key,
                        const std::string& base_dir) {
  const Reader member = parent.child(key);
  ResolvedDoc out;
  if (member.value().is_string()) {
    const std::string path = resolve_ref(base_dir, member.as_string());
    out.owned = load_json_file(path);
    out.doc = &out.owned;
    out.label = path;
  } else {
    out.doc = &member.value();
    out.label = member.path();
  }
  return out;
}

const char* style_label(cells::LogicStyle s) {
  switch (s) {
    case cells::LogicStyle::kCmos: return "cmos";
    case cells::LogicStyle::kMcml: return "mcml";
    case cells::LogicStyle::kPgMcml: return "pgmcml";
  }
  return "pgmcml";
}

cells::CellLibrary make_library(const Experiment& e, const Reader* where) {
  if (e.variant.style == cells::LogicStyle::kCmos) {
    if (e.characterized_library && where != nullptr) {
      where->fail(
          "the CMOS reference library has no transistor-level "
          "characterization; use \"library\": \"calibrated\"");
    }
    return cells::CellLibrary::cmos90();
  }
  if (e.characterized_library) {
    return cells::CellLibrary::characterized(e.variant.style,
                                             e.resolved_design());
  }
  return e.variant.style == cells::LogicStyle::kMcml
             ? cells::CellLibrary::mcml90()
             : cells::CellLibrary::pgmcml90();
}

obs::json::Value stats_to_json(const util::RunningStats& s) {
  obs::json::Object o;
  o.emplace_back("count", static_cast<std::uint64_t>(s.count()));
  o.emplace_back("mean", s.mean());
  o.emplace_back("stddev", s.stddev());
  o.emplace_back("min", s.min());
  o.emplace_back("max", s.max());
  return obs::json::Value(std::move(o));
}

void add_plan_to_key(cache::KeyBuilder& kb, const Plan& p) {
  kb.add("plan.task", to_string(p.task));
  switch (p.task) {
    case PlanTask::kCharacterize:
      kb.add("plan.fanout", p.characterize.fanout);
      kb.add("plan.cells",
             static_cast<std::uint64_t>(p.characterize.cells.size()));
      for (mcml::CellKind kind : p.characterize.cells) {
        kb.add("plan.cell", mcml::to_string(kind));
      }
      break;
    case PlanTask::kBiasSweep:
      kb.add("plan.points",
             static_cast<std::uint64_t>(p.bias_sweep.currents.size()));
      for (double iss : p.bias_sweep.currents) kb.add("plan.iss", iss);
      break;
    case PlanTask::kMonteCarlo:
      kb.add("plan.cell", mcml::to_string(p.monte_carlo.cell));
      kb.add("plan.samples",
             static_cast<std::uint64_t>(p.monte_carlo.samples));
      kb.add("plan.seed", p.monte_carlo.seed);
      break;
    case PlanTask::kDpaFlow: {
      const core::DpaFlowOptions& o = p.dpa_flow;
      kb.add("plan.traces", static_cast<std::uint64_t>(o.num_traces));
      kb.add("plan.samples", static_cast<std::uint64_t>(o.samples));
      kb.add("plan.key", static_cast<std::uint64_t>(o.key));
      kb.add("plan.seed", o.seed);
      kb.add("plan.dt", o.dt);
      kb.add("plan.noise_sigma", o.noise_sigma);
      kb.add("plan.gate_per_operation", o.gate_per_operation);
      kb.add("plan.spice_kernels", o.spice_kernels);
      kb.add("plan.fixed_plaintext",
             static_cast<std::int64_t>(o.fixed_plaintext));
      kb.add("plan.mtd", o.compute_mtd);
      kb.add("plan.acquisition",
             o.acquisition == core::AcquisitionMode::kStatic ? "static"
                                                             : "dynamic");
      kb.add("plan.mlpa", o.compute_mlpa);
      break;
    }
    case PlanTask::kCampaign: {
      const campaign::CampaignOptions& o = p.campaign;
      kb.add("plan.traces", static_cast<std::uint64_t>(o.num_traces));
      kb.add("plan.samples", static_cast<std::uint64_t>(o.samples));
      kb.add("plan.key", static_cast<std::uint64_t>(o.key));
      kb.add("plan.seed", o.seed);
      kb.add("plan.dt", o.dt);
      kb.add("plan.noise_sigma", o.noise_sigma);
      kb.add("plan.gate_per_operation", o.gate_per_operation);
      kb.add("plan.spice_kernels", o.spice_kernels);
      kb.add("plan.fixed_plaintext",
             static_cast<std::uint64_t>(o.fixed_plaintext));
      kb.add("plan.tvla", o.tvla);
      kb.add("plan.mtd", o.compute_mtd);
      kb.add("plan.static_power", o.static_power);
      kb.add("plan.mlpa", o.mlpa);
      kb.add("plan.shard_size", static_cast<std::uint64_t>(o.shard_size));
      break;
    }
  }
}

}  // namespace

mcml::McmlDesign Experiment::resolved_design() const {
  mcml::McmlDesign d = variant.design;
  d.tech = spice::Technology(technology);
  return d;
}

campaign::CampaignOptions Experiment::resolved_campaign() const {
  campaign::CampaignOptions o = plan.campaign;
  o.style = variant.style;
  return o;
}

Experiment experiment_from_json(const obs::json::Value& doc,
                                const std::string& doc_label,
                                const std::string& base_dir) {
  const Reader r = open_document(doc, "experiment", doc_label);
  r.reject_unknown_keys({"pgmcml_schema", "kind", "name", "technology",
                         "design", "plan", "library"});
  Experiment e;
  e.name = r.require_string("name");
  if (e.name.empty()) r.child("name").fail("must not be empty");

  const ResolvedDoc tech = resolve_doc(r, "technology", base_dir);
  e.technology = technology_params_from_json(*tech.doc, tech.label);
  try {
    e.technology.validate();
  } catch (const std::invalid_argument& ex) {
    throw ConfigError(tech.label, ex.what());
  }

  const ResolvedDoc design = resolve_doc(r, "design", base_dir);
  e.variant = cell_variant_from_json(*design.doc, design.label);

  const ResolvedDoc plan = resolve_doc(r, "plan", base_dir);
  e.plan = plan_from_json(*plan.doc, plan.label);

  e.characterized_library =
      r.enum_or("library", {"calibrated", "characterized"}, 0) == 1;
  if (e.characterized_library &&
      e.variant.style == cells::LogicStyle::kCmos) {
    r.child("library")
        .fail("\"characterized\" requires an MCML-family style");
  }
  return e;
}

Experiment load_experiment_file(const std::string& path) {
  const obs::json::Value doc = load_json_file(path);
  return experiment_from_json(doc, path, dirname_of(path));
}

cache::CacheKey experiment_digest(const Experiment& e) {
  cache::KeyBuilder kb("config.experiment");
  kb.add("name", e.name);
  kb.add("style", style_label(e.variant.style));
  kb.add("variant", e.variant.name);
  kb.add("library.characterized", e.characterized_library);
  mcml::add_design_to_key(kb, e.resolved_design());
  add_plan_to_key(kb, e.plan);
  return kb.key();
}

obs::json::Value run_experiment(const Experiment& e) {
  return run_experiment(e, RunControl{});
}

obs::json::Value run_experiment(const Experiment& e,
                                const RunControl& control) {
  const auto check_cancel = [&control](const std::string& where) {
    if (control.cancelled && control.cancelled()) throw CancelledError(where);
  };
  check_cancel("start");
  obs::json::Object report;
  report.emplace_back("experiment", e.name);
  report.emplace_back("digest", experiment_digest(e).hex());
  report.emplace_back("technology", e.technology.name);
  report.emplace_back("corner", e.technology.corner_label);
  report.emplace_back("style", style_label(e.variant.style));
  report.emplace_back("variant", e.variant.name);
  report.emplace_back("task", to_string(e.plan.task));

  switch (e.plan.task) {
    case PlanTask::kCharacterize: {
      if (e.variant.style == cells::LogicStyle::kCmos) {
        throw ConfigError(e.name,
                          "plan 'characterize' needs an MCML-family style; "
                          "the CMOS reference has no transistor-level model");
      }
      const mcml::McmlDesign design = e.resolved_design();
      obs::json::Array cells;
      for (mcml::CellKind kind : e.plan.characterize.cells) {
        check_cancel("cell " + mcml::to_string(kind));
        const mcml::CellCharacterization ch =
            mcml::characterize_cell(kind, design, e.plan.characterize.fanout);
        obs::json::Value row = mcml::to_json(ch);
        row.set("cell", mcml::to_string(kind));
        cells.push_back(std::move(row));
      }
      report.emplace_back("cells", obs::json::Value(std::move(cells)));
      break;
    }
    case PlanTask::kBiasSweep: {
      if (e.variant.style == cells::LogicStyle::kCmos) {
        throw ConfigError(e.name,
                          "plan 'bias_sweep' needs an MCML-family style");
      }
      const std::vector<mcml::BufferSweepPoint> points =
          mcml::sweep_buffer_bias(e.resolved_design(),
                                  e.plan.bias_sweep.currents);
      obs::json::Array out;
      for (const mcml::BufferSweepPoint& pt : points) {
        out.push_back(mcml::to_json(pt));
      }
      report.emplace_back("sweep", obs::json::Value(std::move(out)));
      break;
    }
    case PlanTask::kMonteCarlo: {
      if (e.variant.style == cells::LogicStyle::kCmos) {
        throw ConfigError(e.name,
                          "plan 'monte_carlo' needs an MCML-family style");
      }
      const mcml::MonteCarloResult mc = mcml::monte_carlo_characterize(
          e.plan.monte_carlo.cell, e.resolved_design(),
          static_cast<int>(e.plan.monte_carlo.samples),
          e.plan.monte_carlo.seed);
      obs::json::Object out;
      out.emplace_back("cell", mcml::to_string(e.plan.monte_carlo.cell));
      out.emplace_back("samples", mc.samples);
      out.emplace_back("failures", mc.failures);
      out.emplace_back("delay", stats_to_json(mc.delay));
      out.emplace_back("static_current", stats_to_json(mc.static_current));
      out.emplace_back("swing", stats_to_json(mc.swing));
      out.emplace_back("sleep_current", stats_to_json(mc.sleep_current));
      report.emplace_back("monte_carlo", obs::json::Value(std::move(out)));
      break;
    }
    case PlanTask::kDpaFlow: {
      const cells::CellLibrary library = make_library(e, nullptr);
      const core::DpaFlowResult r = core::run_dpa_flow(library, e.plan.dpa_flow);
      obs::json::Object out;
      out.emplace_back("key_rank", r.key_rank);
      out.emplace_back("margin", r.margin);
      out.emplace_back("mtd", static_cast<std::uint64_t>(r.mtd));
      out.emplace_back("mean_current", r.mean_current);
      out.emplace_back("traces",
                       static_cast<std::uint64_t>(e.plan.dpa_flow.num_traces));
      r.add_json(out);
      report.emplace_back("dpa_flow", obs::json::Value(std::move(out)));
      break;
    }
    case PlanTask::kCampaign: {
      const campaign::CampaignResult r =
          campaign::run_campaign(e.resolved_campaign());
      report.emplace_back("campaign", r.to_json());
      break;
    }
  }
  return obs::json::Value(std::move(report));
}

void validate_document_file(const std::string& path) {
  const obs::json::Value doc = load_json_file(path);
  // Envelope first (object / schema version / known kind), then the
  // kind-specific schema.
  open_document(doc, "", path);
  const std::string kind = Reader(doc, path).require_string("kind");
  if (kind == "technology") {
    const spice::TechnologyParams p = technology_params_from_json(doc, path);
    try {
      p.validate();
    } catch (const std::invalid_argument& ex) {
      throw ConfigError(path, ex.what());
    }
  } else if (kind == "cell_variant") {
    cell_variant_from_json(doc, path);
  } else if (kind == "plan") {
    plan_from_json(doc, path);
  } else if (kind == "testbench") {
    testbench_from_json(doc, path);
  } else if (kind == "request") {
    request_from_json(doc, path, dirname_of(path));
  } else {
    experiment_from_json(doc, path, dirname_of(path));
  }
}

}  // namespace pgmcml::config
