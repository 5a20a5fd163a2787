// The declarative experiment layer: path-qualified validation, the four
// document kinds, and the two acceptance properties of the config refactor:
//
//   1. The checked-in default technology config reconstructs the compiled-in
//      90 nm technology BITWISE -- device parameters, characterization
//      results, and cache keys are all identical, so enabling the config
//      path invalidates nothing.
//   2. A different node (the FinFET-like corner set) flows through the same
//      code end-to-end and produces DIFFERENT cache keys, so config-driven
//      results stay content-addressed.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "pgmcml/config/design.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/config/plan.hpp"
#include "pgmcml/config/reader.hpp"
#include "pgmcml/config/technology.hpp"
#include "pgmcml/mcml/characterize.hpp"

#ifndef PGMCML_SOURCE_DIR
#error "PGMCML_SOURCE_DIR must point at the repository root"
#endif

namespace pgmcml::config {
namespace {

const std::string kConfigsDir =
    std::string(PGMCML_SOURCE_DIR) + "/examples/configs";

obs::json::Value parse(const std::string& text) {
  return obs::json::Value::parse(text);
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Reader / envelope

TEST(ConfigReader, MissingMemberNamesItsPath) {
  const obs::json::Value doc = parse(R"({"a": {"b": 1}})");
  const Reader r(doc, "cfg.json");
  const std::string what =
      error_of([&] { r.child("a").child("missing"); });
  EXPECT_NE(what.find("cfg.json/a/missing"), std::string::npos) << what;
  EXPECT_NE(what.find("missing"), std::string::npos) << what;
}

TEST(ConfigReader, TypeMismatchNamesExpectationAndActual) {
  const obs::json::Value doc = parse(R"({"iss": "fifty"})");
  const Reader r(doc, "cfg.json");
  const std::string what = error_of([&] { r.require_number("iss"); });
  EXPECT_NE(what.find("cfg.json/iss"), std::string::npos) << what;
  EXPECT_NE(what.find("number"), std::string::npos) << what;
  EXPECT_NE(what.find("string"), std::string::npos) << what;
}

TEST(ConfigReader, UnknownKeyIsRejectedWithTheAllowedSet) {
  const obs::json::Value doc = parse(R"({"fanuot": 4})");
  const Reader r(doc, "cfg.json");
  const std::string what =
      error_of([&] { r.reject_unknown_keys({"fanout", "cells"}); });
  EXPECT_NE(what.find("cfg.json/fanuot"), std::string::npos) << what;
  EXPECT_NE(what.find("fanout"), std::string::npos) << what;
}

TEST(ConfigReader, EnumRejectsUnknownLabel) {
  const obs::json::Value doc = parse(R"({"style": "cmso"})");
  const Reader r(doc, "cfg.json");
  const std::string what = error_of(
      [&] { r.require_enum("style", {"cmos", "mcml", "pgmcml"}); });
  EXPECT_NE(what.find("cmso"), std::string::npos) << what;
  EXPECT_NE(what.find("pgmcml"), std::string::npos) << what;
}

TEST(ConfigReader, IntRangeAndIntegralityAreEnforced) {
  const obs::json::Value doc = parse(R"({"n": 2.5, "big": 300})");
  const Reader r(doc, "cfg.json");
  EXPECT_THROW(r.require_int("n", 0, 10), ConfigError);
  EXPECT_THROW(r.require_int("big", 0, 255), ConfigError);
}

TEST(ConfigReader, ArrayElementsCarryIndexedPaths) {
  const obs::json::Value doc = parse(R"({"xs": [1, "two"]})");
  const Reader r(doc, "cfg.json");
  const std::vector<Reader> xs = r.child("xs").elements();
  ASSERT_EQ(xs.size(), 2u);
  const std::string what = error_of([&] { xs[1].as_finite_number(); });
  EXPECT_NE(what.find("cfg.json/xs[1]"), std::string::npos) << what;
}

TEST(ConfigEnvelope, RejectsWrongSchemaVersionAndKind) {
  EXPECT_THROW(open_document(parse(R"({"kind": "plan"})"), "plan", "d"),
               ConfigError);
  EXPECT_THROW(
      open_document(parse(R"({"pgmcml_schema": 99, "kind": "plan"})"),
                    "plan", "d"),
      ConfigError);
  EXPECT_THROW(
      open_document(parse(R"({"pgmcml_schema": 1, "kind": "plan"})"),
                    "technology", "d"),
      ConfigError);
  EXPECT_THROW(
      open_document(parse(R"({"pgmcml_schema": 1, "kind": "recipe"})"), "",
                    "d"),
      ConfigError);
  EXPECT_THROW(open_document(parse("[1, 2]"), "plan", "d"), ConfigError);
}

// ---------------------------------------------------------------------------
// Technology documents

TEST(TechnologyConfig, RoundTripsBuiltinCornersBitwise) {
  for (const spice::Corner corner :
       {spice::Corner::kTypical, spice::Corner::kFast,
        spice::Corner::kSlow}) {
    const spice::TechnologyParams original =
        spice::TechnologyParams::builtin90(corner);
    // Serialize, print, re-parse, re-read: the full on-disk round trip.
    const obs::json::Value doc =
        parse(technology_to_json(original).dump(2));
    const spice::TechnologyParams restored =
        technology_params_from_json(doc, "roundtrip");
    EXPECT_EQ(restored.name, original.name);
    EXPECT_EQ(restored.corner_label, original.corner_label);
    EXPECT_EQ(restored.vdd, original.vdd);
    EXPECT_EQ(restored.lmin, original.lmin);
    EXPECT_EQ(restored.avt, original.avt);
    EXPECT_EQ(restored.akp, original.akp);
    const auto check = [](const spice::DeviceModel& a,
                          const spice::DeviceModel& b) {
      EXPECT_EQ(a.vth0, b.vth0);
      EXPECT_EQ(a.kp, b.kp);
      EXPECT_EQ(a.lambda, b.lambda);
      EXPECT_EQ(a.n_sub, b.n_sub);
      EXPECT_EQ(a.gamma, b.gamma);
      EXPECT_EQ(a.phi, b.phi);
      EXPECT_EQ(a.cox_area, b.cox_area);
      EXPECT_EQ(a.cov_width, b.cov_width);
      EXPECT_EQ(a.cj_width, b.cj_width);
    };
    check(restored.nmos_lvt, original.nmos_lvt);
    check(restored.nmos_hvt, original.nmos_hvt);
    check(restored.pmos_lvt, original.pmos_lvt);
    check(restored.pmos_hvt, original.pmos_hvt);
  }
}

TEST(TechnologyConfig, CheckedInDefaultConfigEqualsBuiltinBitwise) {
  // THE acceptance property: the file under examples/configs/ reconstructs
  // the compiled-in technology exactly, so the config path is a pure
  // re-plumbing, not a new model.
  const spice::Technology from_file = technology_from_json(
      load_json_file(kConfigsDir + "/technology-cmos90.json"),
      "technology-cmos90.json");
  const spice::Technology builtin{spice::Corner::kTypical};
  EXPECT_EQ(from_file.vdd(), builtin.vdd());
  EXPECT_EQ(from_file.lmin(), builtin.lmin());
  EXPECT_EQ(from_file.avt(), builtin.avt());
  EXPECT_EQ(from_file.akp(), builtin.akp());
  for (const spice::VtFlavor flavor :
       {spice::VtFlavor::kLowVt, spice::VtFlavor::kHighVt}) {
    const spice::MosParams na = from_file.nmos(flavor, 1e-6, 0.2e-6);
    const spice::MosParams nb = builtin.nmos(flavor, 1e-6, 0.2e-6);
    EXPECT_EQ(na.vth0, nb.vth0);
    EXPECT_EQ(na.kp, nb.kp);
    EXPECT_EQ(na.lambda, nb.lambda);
    EXPECT_EQ(na.n_sub, nb.n_sub);
    EXPECT_EQ(na.gamma, nb.gamma);
    EXPECT_EQ(na.phi, nb.phi);
    EXPECT_EQ(na.cox_area, nb.cox_area);
    EXPECT_EQ(na.cov_width, nb.cov_width);
    EXPECT_EQ(na.cj_width, nb.cj_width);
    const spice::MosParams pa = from_file.pmos(flavor, 1e-6, 0.2e-6);
    const spice::MosParams pb = builtin.pmos(flavor, 1e-6, 0.2e-6);
    EXPECT_EQ(pa.vth0, pb.vth0);
    EXPECT_EQ(pa.kp, pb.kp);
  }
}

TEST(TechnologyConfig, DefaultConfigCharacterizesBitwiseIdentically) {
  // End to end through the SPICE engine: a cell characterized at the
  // config-built technology is bitwise equal to the compiled-in path.
  mcml::McmlDesign from_config;
  from_config.tech = technology_from_json(
      load_json_file(kConfigsDir + "/technology-cmos90.json"),
      "technology-cmos90.json");
  const mcml::McmlDesign builtin;  // compiled-in typical corner
  const mcml::CellCharacterization a =
      mcml::characterize_cell(mcml::CellKind::kXor2, from_config);
  const mcml::CellCharacterization b =
      mcml::characterize_cell(mcml::CellKind::kXor2, builtin);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.swing, b.swing);
  EXPECT_EQ(a.static_current, b.static_current);
  EXPECT_EQ(a.sleep_current, b.sleep_current);
  EXPECT_EQ(a.wake_time, b.wake_time);
}

TEST(TechnologyConfig, CacheKeysSeparateNodesButNotTheDefaultConfig) {
  // Content addressing: the default config keys identically to the
  // compiled-in corner; the FinFET node keys differently.
  mcml::McmlDesign builtin;
  mcml::McmlDesign from_default;
  from_default.tech = technology_from_json(
      load_json_file(kConfigsDir + "/technology-cmos90.json"), "default");
  mcml::McmlDesign finfet;
  finfet.tech = technology_from_json(
      load_json_file(kConfigsDir + "/technology-finfet7.json"), "finfet");

  const auto key_of = [](const mcml::McmlDesign& d) {
    cache::KeyBuilder kb("test.config.design");
    mcml::add_design_to_key(kb, d);
    return kb.key().hex();
  };
  EXPECT_EQ(key_of(from_default), key_of(builtin));
  EXPECT_NE(key_of(finfet), key_of(builtin));
}

TEST(TechnologyConfig, RejectsMissingDeviceAndBadValues) {
  const std::string base = R"({
    "pgmcml_schema": 1, "kind": "technology", "name": "t",
    "vdd": 1.0, "lmin": 1e-07,
    "devices": {
      "nmos_lvt": {"vth0": 0.2, "kp": 3e-04, "lambda": 0.1,
                   "n_sub": 1.4, "gamma": 0.3, "phi": 0.8},
      "nmos_hvt": {"vth0": 0.3, "kp": 3e-04, "lambda": 0.1,
                   "n_sub": 1.3, "gamma": 0.3, "phi": 0.8},
      "pmos_lvt": {"vth0": 0.2, "kp": 1e-04, "lambda": 0.2,
                   "n_sub": 1.5, "gamma": 0.3, "phi": 0.8}
    }})";
  // pmos_hvt missing.
  std::string what = error_of(
      [&] { technology_params_from_json(parse(base), "tech.json"); });
  EXPECT_NE(what.find("pmos_hvt"), std::string::npos) << what;

  // Negative kp inside a device: the error names the full path.
  std::string bad = base;
  bad.replace(bad.find("\"kp\": 3e-04"), 11, "\"kp\": -1e-04");
  what = error_of(
      [&] { technology_params_from_json(parse(bad), "tech.json"); });
  EXPECT_NE(what.find("tech.json/devices/nmos_lvt/kp"), std::string::npos)
      << what;
}

// ---------------------------------------------------------------------------
// Cell-variant documents

TEST(CellVariantConfig, ParsesFullDocumentAndDefaults) {
  const CellVariant v = cell_variant_from_json(
      load_json_file(kConfigsDir + "/cell-pgmcml-x1.json"),
      "cell-pgmcml-x1.json");
  EXPECT_EQ(v.name, "pgmcml-x1");
  EXPECT_EQ(v.style, cells::LogicStyle::kPgMcml);
  EXPECT_EQ(v.design.iss, 5e-05);
  EXPECT_EQ(v.design.gating, mcml::GatingTopology::kSeriesSleep);
  EXPECT_EQ(v.design.network_vt, spice::VtFlavor::kHighVt);
  EXPECT_EQ(v.design.load_vt, spice::VtFlavor::kLowVt);

  // Minimal document: everything defaults to the paper's operating point.
  const CellVariant m = cell_variant_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "cell_variant",
                "name": "m", "style": "mcml"})"),
      "m.json");
  const mcml::McmlDesign d;
  EXPECT_EQ(m.design.iss, d.iss);
  EXPECT_EQ(m.design.vsw, d.vsw);
  EXPECT_EQ(m.design.w_tail, d.w_tail);
  EXPECT_EQ(m.design.gating, mcml::GatingTopology::kNone);
}

TEST(CellVariantConfig, StyleAndGatingMustAgree) {
  EXPECT_THROW(
      cell_variant_from_json(
          parse(R"({"pgmcml_schema": 1, "kind": "cell_variant", "name": "x",
                    "style": "pgmcml", "gating": "none"})"),
          "x.json"),
      ConfigError);
  EXPECT_THROW(
      cell_variant_from_json(
          parse(R"({"pgmcml_schema": 1, "kind": "cell_variant", "name": "x",
                    "style": "mcml", "gating": "series_sleep"})"),
          "x.json"),
      ConfigError);
}

TEST(CellVariantConfig, RoundTripsThroughToJson) {
  const CellVariant v = cell_variant_from_json(
      load_json_file(kConfigsDir + "/cell-finfet-pgmcml.json"), "f.json");
  const CellVariant again =
      cell_variant_from_json(parse(cell_variant_to_json(v).dump()), "rt");
  EXPECT_EQ(again.name, v.name);
  EXPECT_EQ(again.style, v.style);
  EXPECT_EQ(again.design.iss, v.design.iss);
  EXPECT_EQ(again.design.vsw, v.design.vsw);
  EXPECT_EQ(again.design.w_pair, v.design.w_pair);
  EXPECT_EQ(again.design.gating, v.design.gating);
}

// ---------------------------------------------------------------------------
// Plan documents

TEST(PlanConfig, ParsesEveryTask) {
  const Plan table2 = plan_from_json(
      load_json_file(kConfigsDir + "/plan-table2.json"), "t.json");
  EXPECT_EQ(table2.task, PlanTask::kCharacterize);
  EXPECT_EQ(table2.characterize.cells.size(), mcml::all_cells().size());
  EXPECT_EQ(table2.characterize.fanout, 1);

  const Plan sweep = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "s",
                "task": "bias_sweep", "currents": [1e-05, 5e-05]})"),
      "s.json");
  EXPECT_EQ(sweep.task, PlanTask::kBiasSweep);
  EXPECT_EQ(sweep.bias_sweep.currents.size(), 2u);

  const Plan mc = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "mc",
                "task": "monte_carlo", "cell": "XOR2", "samples": 8,
                "seed": 42})"),
      "mc.json");
  EXPECT_EQ(mc.monte_carlo.cell, mcml::CellKind::kXor2);
  EXPECT_EQ(mc.monte_carlo.samples, 8u);
  EXPECT_EQ(mc.monte_carlo.seed, 42u);

  const Plan dpa = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "d",
                "task": "dpa_flow", "traces": 128, "samples": 200,
                "attacks": ["cpa", "dpa", "mtd"]})"),
      "d.json");
  EXPECT_EQ(dpa.dpa_flow.num_traces, 128u);
  EXPECT_EQ(dpa.dpa_flow.samples, 200u);
  EXPECT_TRUE(dpa.dpa_flow.compute_mtd);

  const Plan camp = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "c",
                "task": "campaign", "traces": 512, "shard_size": 128,
                "workers": 2, "attacks": ["cpa", "dpa"]})"),
      "c.json");
  EXPECT_EQ(camp.campaign.num_traces, 512u);
  EXPECT_EQ(camp.campaign.shard_size, 128u);
  EXPECT_EQ(camp.campaign.num_workers, 2u);
  // attacks given without tvla/mtd: both toggled off.
  EXPECT_FALSE(camp.campaign.tvla);
  EXPECT_FALSE(camp.campaign.compute_mtd);
}

TEST(PlanConfig, ParsesStaticPowerAndMlpaAttacks) {
  // A static-acquisition dpa_flow with both new modalities ("static_power"
  // documents the attack every static acquisition mounts).
  const Plan stat = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "sp",
                "task": "dpa_flow", "traces": 256, "samples": 200,
                "acquisition": "static",
                "attacks": ["cpa", "dpa", "static_power", "mlpa", "mtd"]})"),
      "sp.json");
  EXPECT_EQ(stat.dpa_flow.acquisition, core::AcquisitionMode::kStatic);
  EXPECT_TRUE(stat.dpa_flow.compute_mlpa);
  EXPECT_TRUE(stat.dpa_flow.compute_mtd);

  // MLPA rides a plain dynamic acquisition; acquisition defaults to dynamic.
  const Plan mlpa = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "m",
                "task": "dpa_flow", "attacks": ["cpa", "mlpa"]})"),
      "m.json");
  EXPECT_EQ(mlpa.dpa_flow.acquisition, core::AcquisitionMode::kDynamic);
  EXPECT_TRUE(mlpa.dpa_flow.compute_mlpa);

  // Campaign toggles: static_power and mlpa map to their option flags and
  // default off when an attacks list omits them.
  const Plan camp = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "c",
                "task": "campaign", "traces": 512,
                "attacks": ["cpa", "dpa", "tvla", "static_power", "mlpa"]})"),
      "c.json");
  EXPECT_TRUE(camp.campaign.static_power);
  EXPECT_TRUE(camp.campaign.mlpa);
  const Plan off = plan_from_json(
      parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "c2",
                "task": "campaign", "attacks": ["cpa"]})"),
      "c2.json");
  EXPECT_FALSE(off.campaign.static_power);
  EXPECT_FALSE(off.campaign.mlpa);
}

TEST(PlanConfig, StaticPowerRequiresStaticAcquisition) {
  // The contradiction is rejected with a path-qualified error that names
  // the fix (an acquisition of quiescent holds).
  const std::string what = error_of([&] {
    plan_from_json(
        parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                  "task": "dpa_flow", "attacks": ["static_power"]})"),
        "x.json");
  });
  EXPECT_NE(what.find("x.json/attacks"), std::string::npos) << what;
  EXPECT_NE(what.find("static"), std::string::npos) << what;

  // An unknown attack label enumerates the full closed world.
  const std::string unknown = error_of([&] {
    plan_from_json(
        parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                  "task": "dpa_flow", "attacks": ["spa"]})"),
        "x.json");
  });
  EXPECT_NE(unknown.find("static_power"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("mlpa"), std::string::npos) << unknown;

  // "acquisition" is a dpa_flow key, not a campaign key (the campaign runs
  // its static phase on its own stream).
  EXPECT_THROW(plan_from_json(
                   parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                             "task": "campaign", "acquisition": "static"})"),
                   "x.json"),
               ConfigError);
}

TEST(PlanConfig, RejectsBadPlans) {
  // Unknown cell name.
  EXPECT_THROW(plan_from_json(
                   parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                             "task": "characterize", "cells": ["NAND9"]})"),
                   "x.json"),
               ConfigError);
  // Empty sweep.
  EXPECT_THROW(plan_from_json(
                   parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                             "task": "bias_sweep", "currents": []})"),
                   "x.json"),
               ConfigError);
  // tvla is campaign-only.
  EXPECT_THROW(plan_from_json(
                   parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                             "task": "dpa_flow", "attacks": ["tvla"]})"),
                   "x.json"),
               ConfigError);
  // Unknown member under a closed-world task.
  EXPECT_THROW(plan_from_json(
                   parse(R"({"pgmcml_schema": 1, "kind": "plan", "name": "x",
                             "task": "characterize", "fanuot": 4})"),
                   "x.json"),
               ConfigError);
}

TEST(PlanConfig, ParsesTestbenchDocuments) {
  const TestbenchPlan tb = testbench_from_json(
      load_json_file(kConfigsDir + "/testbench-wake.json"), "tb.json");
  ASSERT_EQ(tb.benches.size(), 4u);
  EXPECT_EQ(tb.benches[0].cell, mcml::CellKind::kBuf);
  EXPECT_FALSE(tb.benches[0].options.asleep);
  EXPECT_TRUE(tb.benches[1].options.asleep);
  EXPECT_TRUE(tb.benches[2].options.sleep_pulse);
  EXPECT_EQ(tb.benches[2].options.sleep_rise_time, 1e-09);
  EXPECT_EQ(tb.benches[3].options.fanout, 4);

  // sleep_rise_time without mode "wake" is a contradiction, not a default.
  EXPECT_THROW(
      testbench_from_json(
          parse(R"({"pgmcml_schema": 1, "kind": "testbench", "name": "x",
                    "benches": [{"name": "b", "cell": "BUF",
                                 "sleep_rise_time": 1e-09}]})"),
          "x.json"),
      ConfigError);
}

// ---------------------------------------------------------------------------
// Experiment documents

TEST(ExperimentConfig, LoadsCheckedInExperimentsWithFileRefs) {
  const Experiment e = load_experiment_file(
      kConfigsDir + "/experiment-table2-default.json");
  EXPECT_EQ(e.name, "table2-default");
  EXPECT_EQ(e.technology.name, "cmos90");
  EXPECT_EQ(e.variant.style, cells::LogicStyle::kPgMcml);
  EXPECT_EQ(e.plan.task, PlanTask::kCharacterize);
  EXPECT_FALSE(e.characterized_library);
  // The resolved design carries the configured technology.
  EXPECT_EQ(e.resolved_design().tech.name(), "cmos90");
}

TEST(ExperimentConfig, ResolvedCampaignStampsTheVariantStyle) {
  const Experiment e = load_experiment_file(
      kConfigsDir + "/experiment-campaign-smoke.json");
  EXPECT_EQ(e.plan.task, PlanTask::kCampaign);
  EXPECT_EQ(e.variant.style, cells::LogicStyle::kCmos);
  EXPECT_EQ(e.resolved_campaign().style, cells::LogicStyle::kCmos);
  EXPECT_EQ(e.resolved_campaign().num_traces, 512u);
}

TEST(ExperimentConfig, DigestSeparatesTechnologiesAndPlans) {
  const Experiment def =
      load_experiment_file(kConfigsDir + "/experiment-table2-default.json");
  const Experiment fin =
      load_experiment_file(kConfigsDir + "/experiment-finfet-table2.json");
  EXPECT_NE(experiment_digest(def).hex(), experiment_digest(fin).hex());
  // Stable across loads.
  const Experiment def2 =
      load_experiment_file(kConfigsDir + "/experiment-table2-default.json");
  EXPECT_EQ(experiment_digest(def).hex(), experiment_digest(def2).hex());
}

TEST(ExperimentConfig, MissingRefFileIsAConfigError) {
  const std::string what = error_of([&] {
    experiment_from_json(
        parse(R"({"pgmcml_schema": 1, "kind": "experiment", "name": "x",
                  "technology": "no-such-file.json",
                  "design": {"pgmcml_schema": 1, "kind": "cell_variant",
                             "name": "v", "style": "mcml"},
                  "plan": {"pgmcml_schema": 1, "kind": "plan", "name": "p",
                           "task": "characterize"}})"),
        "x.json", "/nonexistent-dir");
  });
  EXPECT_NE(what.find("no-such-file.json"), std::string::npos) << what;
}

TEST(ExperimentConfig, CmosStyleRejectsCharacterizedLibrary) {
  EXPECT_THROW(
      experiment_from_json(
          parse(R"({"pgmcml_schema": 1, "kind": "experiment", "name": "x",
                    "library": "characterized",
                    "technology": {"pgmcml_schema": 1, "kind": "technology",
                                   "name": "t", "vdd": 1.0, "lmin": 1e-07,
                                   "devices": {
        "nmos_lvt": {"vth0": 0.2, "kp": 3e-04, "lambda": 0.1, "n_sub": 1.4,
                     "gamma": 0.3, "phi": 0.8},
        "nmos_hvt": {"vth0": 0.3, "kp": 3e-04, "lambda": 0.1, "n_sub": 1.3,
                     "gamma": 0.3, "phi": 0.8},
        "pmos_lvt": {"vth0": 0.2, "kp": 1e-04, "lambda": 0.2, "n_sub": 1.5,
                     "gamma": 0.3, "phi": 0.8},
        "pmos_hvt": {"vth0": 0.3, "kp": 1e-04, "lambda": 0.2, "n_sub": 1.4,
                     "gamma": 0.3, "phi": 0.8}}},
                    "design": {"pgmcml_schema": 1, "kind": "cell_variant",
                               "name": "v", "style": "cmos"},
                    "plan": {"pgmcml_schema": 1, "kind": "plan", "name": "p",
                             "task": "characterize"}})"),
          "x.json", "."),
      ConfigError);
}

TEST(ExperimentConfig, ValidateDocumentFileAcceptsEveryCheckedInConfig) {
  // The CI gate in miniature: every document kind validates.
  for (const char* name :
       {"technology-cmos90.json", "technology-finfet7.json",
        "cell-pgmcml-x1.json", "cell-finfet-pgmcml.json", "plan-table2.json",
        "testbench-wake.json", "experiment-table2-default.json",
        "experiment-finfet-table2.json", "experiment-bias-sweep.json",
        "experiment-dpa-smoke.json", "experiment-campaign-smoke.json"}) {
    EXPECT_NO_THROW(validate_document_file(kConfigsDir + "/" + name))
        << name;
  }
}

TEST(ExperimentConfig, FinFetExperimentCharacterizesEndToEnd) {
  // The second acceptance property: a different node runs the same flow
  // through the config layer and produces working cells.
  const Experiment e =
      load_experiment_file(kConfigsDir + "/experiment-finfet-table2.json");
  EXPECT_EQ(e.technology.name, "finfet7");
  const mcml::McmlDesign d = e.resolved_design();
  EXPECT_EQ(d.tech.vdd(), 0.8);
  const mcml::CellCharacterization ch =
      mcml::characterize_cell(mcml::CellKind::kBuf, d);
  ASSERT_TRUE(ch.ok) << ch.error;
  EXPECT_GT(ch.swing, 0.2);
  EXPECT_LT(ch.swing, 0.4);
  EXPECT_GT(ch.static_current, 1e-05);
  EXPECT_LT(ch.sleep_current, 1e-07);
}

TEST(ExperimentConfig, DuplicateKeysInAConfigFileAreRejected) {
  // The JSON hardening reaches the config layer: duplicate members in a
  // document are a loud ConfigError, never first-binding-wins.
  EXPECT_THROW(parse(R"({"pgmcml_schema": 1, "pgmcml_schema": 1})"),
               obs::json::ParseError);
}

}  // namespace
}  // namespace pgmcml::config
