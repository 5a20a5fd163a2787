// Security-margin ablation: how robust is the MCML/PG-MCML DPA resistance
// to the physical parameters behind it?  Sweeps
//   * the per-instance leg-imbalance residual (process mismatch),
//   * the supply-noise floor,
//   * the trace budget,
// and reports the CPA key rank -- mapping the boundary where current-mode
// logic *would* start to leak.  (The paper evaluates one point of this
// space; the sweep is this reproduction's extension.)
//
// It also mounts the two non-CPA attack modalities per style -- the
// static-power attack on quiescent holds (awake and gated-off windows) and
// the MLPA multi-bit attack on dynamic traces -- and gates the headline
// result: static power discloses CMOS and MCML but the PG-MCML gated-off
// window starves it.  PGMCML_BENCH_SMOKE=1 shrinks every trace budget to a
// CI-sized run.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_manifest.hpp"
#include "pgmcml/core/byte_target.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/table.hpp"

namespace {

using namespace pgmcml;
using cells::CellLibrary;

/// Mounts CPA on PG-MCML with an explicit leg-imbalance residual, streaming
/// each trace into the statistic through one reused row buffer -- the
/// sweep's memory is O(samples), independent of the trace budget.
sca::CpaResult run_cpa(double residual_sigma, std::size_t n_traces,
                       std::uint8_t key) {
  const core::ByteTarget target =
      core::reduced_aes_target(CellLibrary::pgmcml90(), key);

  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = 2e-12;
  topt.samples = 500;
  topt.residual_sigma = residual_sigma;
  topt.seed = 77;
  const power::PowerTracer tracer(target.design(), target.library(),
                                  power::default_kernels(), topt);

  util::Rng rng(13);
  sca::BinnedMoments stat(topt.samples);
  std::vector<double> row;
  for (std::size_t t = 0; t < n_traces; ++t) {
    const auto plaintext = static_cast<std::uint8_t>(rng.bounded(256));
    tracer.trace_into(target.simulate(plaintext).events(), {}, t, row);
    stat.add(plaintext, row);
  }
  return sca::BinSpectrum(stat).cpa(sca::LeakageModel::kHammingWeight);
}

/// The two non-CPA attack modalities, per style.  The static-power attack
/// runs on its own quiescent acquisition (acquisition == kStatic); MLPA
/// rides a dynamic acquisition of the same budget.  MTD 0 = never disclosed.
void print_attack_modalities(pgmcml::bench::Manifest& manifest) {
  const std::uint8_t key = 0x2b;
  const std::size_t budget = bench::smoke_mode() ? 600 : 2000;

  util::Table t("Static-power and MLPA attack modalities (" +
                std::to_string(budget) + " traces/holds per style)");
  t.header({"Style", "static awake rank", "awake MTD", "static asleep rank",
            "asleep MTD", "MLPA rank", "MLPA MTD"});
  for (const CellLibrary& lib : {CellLibrary::cmos90(), CellLibrary::mcml90(),
                                 CellLibrary::pgmcml90()}) {
    const std::string style = to_string(lib.style());

    core::DpaFlowOptions sopt;
    sopt.num_traces = budget;
    sopt.samples = 200;
    sopt.key = key;
    sopt.acquisition = core::AcquisitionMode::kStatic;
    sopt.compute_mtd = true;
    sopt.keep_traces = false;
    const core::DpaFlowResult sr = core::run_dpa_flow(lib, sopt);
    const int awake_rank = sr.static_awake.key_rank(key);
    const int asleep_rank = sr.static_asleep.key_rank(key);

    core::DpaFlowOptions mopt;
    mopt.num_traces = budget;
    mopt.samples = 300;
    mopt.key = key;
    mopt.compute_mlpa = true;
    mopt.compute_mtd = true;
    mopt.keep_traces = false;
    const core::DpaFlowResult mr = core::run_dpa_flow(lib, mopt);
    const int mlpa_rank = mr.mlpa.key_rank(key);

    const auto mtd_str = [](std::size_t mtd) {
      return mtd > 0 ? std::to_string(mtd) : std::string("-");
    };
    t.row({style, std::to_string(awake_rank), mtd_str(sr.static_awake_mtd),
           std::to_string(asleep_rank), mtd_str(sr.static_asleep_mtd),
           std::to_string(mlpa_rank), mtd_str(mr.mlpa_mtd)});

    using pgmcml::bench::Better;
    manifest.metric("static." + style + ".awake.key_rank",
                    static_cast<double>(awake_rank), Better::kNone);
    manifest.metric("static." + style + ".awake.mtd",
                    static_cast<double>(sr.static_awake_mtd), Better::kNone);
    manifest.metric("static." + style + ".asleep.key_rank",
                    static_cast<double>(asleep_rank), Better::kNone);
    manifest.metric("static." + style + ".asleep.mtd",
                    static_cast<double>(sr.static_asleep_mtd), Better::kNone);
    manifest.metric("mlpa." + style + ".key_rank",
                    static_cast<double>(mlpa_rank), Better::kNone);
    manifest.metric("mlpa." + style + ".mtd",
                    static_cast<double>(mr.mlpa_mtd), Better::kNone);
    // The gated headline verdicts (exact 0/1, compared at full strictness):
    // static power DISCLOSES every style while powered -- including both
    // MCML flavours, whose dynamic CPA resistance does not carry over to
    // leakage -- and the PG-MCML gated-off window STARVES the same attack.
    manifest.metric("static." + style + ".awake_discloses",
                    awake_rank == 0 ? 1.0 : 0.0, Better::kHigher);
    if (lib.style() == cells::LogicStyle::kPgMcml) {
      manifest.metric("static." + style + ".asleep_starved",
                      asleep_rank != 0 && sr.static_asleep_mtd == 0 ? 1.0
                                                                    : 0.0,
                      Better::kHigher);
    }
  }
  t.print();
  std::printf(
      "Reading: the static-power channel (average quiescent current per held "
      "state) defeats BOTH\nCMOS and conventional MCML -- leakage asymmetry "
      "and leg imbalance are state-dependent whenever\nthe cells are powered "
      "-- and PG-MCML's awake window leaks the same way.  Only the gated-off "
      "\nwindow starves the attack: the sleep devices leave a state-"
      "independent floor, which is the\npower-gating argument of the paper "
      "extended to static power.  MLPA is a multi-bit refinement\nof DPA and "
      "tracks its per-style verdicts.\n\n");
}

void print_security_ablation(pgmcml::bench::Manifest& manifest) {
  const std::uint8_t key = 0x2b;
  const std::size_t sweep_traces = bench::smoke_mode() ? 400 : 2000;

  util::Table t1("PG-MCML security vs leg-imbalance residual (" +
                 std::to_string(sweep_traces) + " traces)");
  t1.header({"residual sigma", "key rank", "margin"});
  for (double sigma : {0.002, 0.01, 0.05, 0.2}) {
    const auto r = run_cpa(sigma, sweep_traces, key);
    manifest.metric("residual." + util::Table::num(sigma, 3) + ".key_rank",
                    static_cast<double>(r.key_rank(key)),
                    pgmcml::bench::Better::kNone);
    t1.row({util::Table::num(sigma, 3), std::to_string(r.key_rank(key)),
            util::Table::num(r.margin(key), 4)});
  }
  t1.print();
  std::printf(
      "Reading: at realistic Pelgrom mismatch (sigma <= ~1%%) the residuals "
      "are buried and instance-random;\nat gross imbalance (>= ~20%%) the "
      "output cells' residuals align with the HW model and the key\nfalls "
      "-- the quantitative version of why MCML's DPA resistance depends on "
      "matched pairs and the\nbalanced fat-wire routing the paper's flow "
      "enforces.\n\n");

  util::Table t2("CMOS-style check: noise floor needed to hide the CMOS leak");
  t2.header({"noise sigma [uA]",
             "key rank (CMOS, " + std::to_string(sweep_traces) + " traces)"});
  spice::FlowDiagnostics flow_diag;
  for (double noise : {2e-6, 100e-6, 1e-3, 5e-3}) {
    core::DpaFlowOptions opt;
    opt.num_traces = sweep_traces;
    opt.samples = 500;
    opt.noise_sigma = noise;
    opt.keep_traces = false;  // the sweep only needs the attack statistics
    const auto r = core::run_dpa_flow(CellLibrary::cmos90(), opt);
    flow_diag.merge(r.diagnostics);
    t2.row({util::Table::num(noise * 1e6, 0), std::to_string(r.key_rank)});
  }
  t2.print();

  // Machine-readable acquisition health for the sweep above: retries and
  // skips are deterministic and gate regressions; the raw incident list
  // rides along as a section.
  manifest.metric("acquisition.retries", static_cast<double>(flow_diag.retries),
                  pgmcml::bench::Better::kLower);
  manifest.metric("acquisition.skips", static_cast<double>(flow_diag.skipped),
                  pgmcml::bench::Better::kLower);
  manifest.section("diagnostics", flow_diag.to_json_value());
  manifest.write();
  std::printf("(diagnostics: %s)\n\n",
              flow_diag.clean() ? "clean" : "incidents recorded");
  std::printf(
      "Reading: CPA averages noise away -- only mA-class noise floors "
      "(thousands of times the scope's)\nbury the CMOS leak at this trace "
      "budget, and more traces undo even that.  The structural fix\n"
      "(constant-current logic) is what actually defeats the attack.\n\n");
}

void BM_SecurityTracePoint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cpa(0.002, 16, 0x2b));
  }
}
BENCHMARK(BM_SecurityTracePoint)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  pgmcml::bench::Manifest manifest("ablation_security");
  print_attack_modalities(manifest);
  print_security_ablation(manifest);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
