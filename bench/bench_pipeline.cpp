// Pipeline-level benchmark for the parallel-execution layer: times every
// parallelized stage of the evaluation flow once with 1 worker (the serial
// fallback) and once with the configured worker count (PGMCML_THREADS or
// hardware_concurrency), checks that both runs produce bitwise-identical
// results, and emits the measurements in the shared BENCH_pipeline.json
// manifest envelope.  PGMCML_BENCH_SMOKE=1 shrinks every workload to a
// CI-sized smoke run whose deterministic counters still gate regressions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <memory>
#include <string>
#include <vector>

#include "bench_manifest.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/mcml/builder.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/mcml/montecarlo.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;
using cells::CellLibrary;

double now_seconds() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

struct StageResult {
  std::string name;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  bool deterministic = false;
  double speedup() const {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }
};

/// Runs `stage` (which returns a checksum) once at 1 thread and once at the
/// configured count, verifying the checksums match bitwise.
StageResult time_stage(const std::string& name,
                       const std::function<double()>& stage) {
  StageResult r;
  r.name = name;

  util::set_parallel_threads(1);
  double t0 = now_seconds();
  const double serial_sum = stage();
  r.serial_s = now_seconds() - t0;

  util::set_parallel_threads(0);  // env / hardware default
  t0 = now_seconds();
  const double parallel_sum = stage();
  r.parallel_s = now_seconds() - t0;

  r.deterministic = serial_sum == parallel_sum;
  std::printf("  %-16s serial %8.3f s   parallel %8.3f s   x%.2f   %s\n",
              name.c_str(), r.serial_s, r.parallel_s, r.speedup(),
              r.deterministic ? "bitwise-identical" : "MISMATCH");
  return r;
}

/// Sum of every plaintext and sample `source` streams, in stream order.
double checksum(sca::TraceSource& source) {
  double sum = 0.0;
  sca::TraceBatch batch;
  while (source.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      sum += batch.plaintexts[i];
      for (double v : batch.traces[i]) sum += v;
    }
  }
  return sum;
}

/// Swept circuit for the dc_sweep_batch stage: a CMOS inverter chain gives
/// each sweep point a real Newton solve (several nonlinear iterations over
/// a dozen unknowns), so the batch parallelism has work to amortize.
std::unique_ptr<spice::Circuit> make_swept_chain() {
  auto c = std::make_unique<spice::Circuit>();
  const spice::Technology tech;
  const auto vdd = c->node("vdd");
  c->add_vsource("VDD", vdd, c->gnd(), spice::SourceSpec::dc(tech.vdd()));
  const auto in = c->node("in");
  c->add_vsource("V1", in, c->gnd(), spice::SourceSpec::dc(0.0));
  spice::NodeId prev = in;
  for (int i = 0; i < 6; ++i) {
    const auto out = c->node("n" + std::to_string(i));
    c->add_mosfet("MP" + std::to_string(i), out, prev, vdd, vdd,
                  tech.pmos(spice::VtFlavor::kLowVt, 2e-6));
    c->add_mosfet("MN" + std::to_string(i), out, prev, c->gnd(), c->gnd(),
                  tech.nmos(spice::VtFlavor::kHighVt, 1e-6));
    c->add_capacitor("CL" + std::to_string(i), out, c->gnd(), 2e-15);
    prev = out;
  }
  return c;
}

/// The largest circuit the benches solve: a chain of power-gated MCML
/// buffers with full parasitics, driven by a differential pulse.  This is
/// the structure-reuse showcase -- one topology, thousands of Newton
/// solves over a transient window.
std::unique_ptr<spice::Circuit> make_mcml_chain(int stages) {
  using util::ns;
  using util::ps;
  auto c = std::make_unique<spice::Circuit>();
  mcml::McmlDesign d;  // PG-MCML: kSeriesSleep gating
  mcml::McmlRails rails;
  rails.vdd = c->node("vdd");
  rails.vp = c->node("vp");
  rails.vn = c->node("vn");
  rails.sleep_on = c->node("slp");
  rails.sleep_off = c->node("slpb");
  const double vdd = d.tech.vdd();
  c->add_vsource("VDD", rails.vdd, c->gnd(), spice::SourceSpec::dc(vdd));
  c->add_vsource("VP", rails.vp, c->gnd(), spice::SourceSpec::dc(d.vp));
  c->add_vsource("VN", rails.vn, c->gnd(), spice::SourceSpec::dc(d.vn));
  c->add_vsource("VSLP", rails.sleep_on, c->gnd(), spice::SourceSpec::dc(vdd));
  c->add_vsource("VSLPB", rails.sleep_off, c->gnd(),
                 spice::SourceSpec::dc(0.0));

  mcml::McmlCellBuilder b(*c, d, rails, "x.");
  mcml::DiffNet in = b.make_diff("in");
  c->add_vsource("VINP", in.p, c->gnd(),
                 spice::SourceSpec::pulse(d.v_low(), d.v_high(), 0.5 * ns,
                                          20 * ps, 20 * ps, 1 * ns, 2 * ns));
  c->add_vsource("VINN", in.n, c->gnd(),
                 spice::SourceSpec::pulse(d.v_high(), d.v_low(), 0.5 * ns,
                                          20 * ps, 20 * ps, 1 * ns, 2 * ns));
  mcml::DiffNet net = in;
  for (int i = 0; i < stages; ++i) net = b.buffer_stage(net);
  c->add_capacitor("CLP", net.p, c->gnd(), 5e-15);
  c->add_capacitor("CLN", net.n, c->gnd(), 5e-15);
  return c;
}

}  // namespace

int main() {
  bench::Manifest manifest("pipeline");
  const bool smoke = bench::smoke_mode();
  const std::size_t nthreads = util::parallel_threads();
  std::printf("Pipeline benchmark: 1 thread vs %zu threads%s\n\n", nthreads,
              smoke ? " (smoke mode)" : "");

  // Fixed, modest workloads: large enough to expose the per-stage costs,
  // small enough to finish in minutes on one core.  Smoke mode shrinks them
  // to CI scale; the baselines under bench/baselines/ are smoke-mode runs.
  core::DpaFlowOptions acq_opt;
  acq_opt.num_traces = smoke ? 48 : 192;
  acq_opt.samples = smoke ? 200 : 400;

  // The CPA and MTD stages attack a fixed trace set acquired once up front.
  const sca::TraceSet cpa_input =
      core::run_dpa_flow(CellLibrary::cmos90(), acq_opt).traces;

  std::vector<StageResult> stages;

  stages.push_back(time_stage("acquire", [&] {
    return checksum(
        *core::make_acquisition_source(CellLibrary::pgmcml90(), acq_opt));
  }));

  stages.push_back(time_stage("cpa", [&] {
    sca::BinnedMoments stat(cpa_input.samples_per_trace());
    for (std::size_t i = 0; i < cpa_input.num_traces(); ++i) {
      stat.add(cpa_input.plaintext(i), cpa_input.trace(i));
    }
    const sca::CpaResult r =
        sca::BinSpectrum(stat).cpa(sca::LeakageModel::kHammingWeight);
    double sum = 0.0;
    for (double v : r.peak_correlation) sum += v;
    return sum;
  }));

  stages.push_back(time_stage("mtd", [&] {
    // Checkpointed single-pass MTD over the same traces: one statistic
    // stream, checked for first place at the grid points, no prefix reruns.
    sca::BinnedMoments stat(cpa_input.samples_per_trace());
    sca::FirstPlace first = sca::first_place(acq_opt.key, /*mlpa=*/false);
    sca::MtdTracker tracker(
        cpa_input.num_traces(),
        [&](const sca::TraceBatch& b) { stat.add_batch(b); },
        [&] { return first(stat, nullptr); });
    sca::TraceSetSource source(cpa_input);
    sca::TraceBatch batch;
    while (source.next(batch)) tracker.add_batch(batch);
    tracker.finish();
    return static_cast<double>(tracker.mtd());
  }));

  stages.push_back(time_stage("montecarlo", [&] {
    const mcml::MonteCarloResult r = mcml::monte_carlo_characterize(
        mcml::CellKind::kBuf, mcml::McmlDesign{}, smoke ? 3 : 6);
    return r.delay.mean() + r.swing.mean() + r.static_current.mean() +
           static_cast<double>(r.failures);
  }));

  stages.push_back(time_stage("bias_sweep", [&] {
    const auto pts =
        mcml::sweep_buffer_bias(mcml::McmlDesign{}, {35e-6, 50e-6, 75e-6});
    double sum = 0.0;
    for (const auto& pt : pts) sum += pt.delay_fo1 + pt.delay_fo4 + pt.vn;
    return sum;
  }));

  const int sweep_points = smoke ? 512 : 2048;
  stages.push_back(time_stage("dc_sweep_batch", [&] {
    std::vector<double> values;
    for (int i = 0; i <= sweep_points; ++i) {
      values.push_back(i * (0.7 / sweep_points));
    }
    const auto results = spice::dc_sweep_batch(make_swept_chain, "V1", values);
    double sum = 0.0;
    for (const auto& r : results) {
      for (double v : r.x) sum += v;
    }
    return sum;
  }));

  util::set_parallel_threads(0);

  // --- sparse-vs-dense solver comparison ------------------------------------
  // One single-threaded transient over the largest bench circuit, run on
  // both backends.  The sparse structure-reusing path must beat the dense
  // reference by a wide margin, and the two must agree on the answer.
  const int chain_stages = smoke ? 24 : 48;
  const double chain_window = (smoke ? 2.0 : 4.0) * util::ns;
  util::set_parallel_threads(1);
  double dense_s = 0.0, sparse_s = 0.0, sparse_solves = 0.0;
  double parity_diff = 0.0, fill_in = 0.0, unknowns = 0.0;
  spice::NewtonWorkspace chain_ws;
  std::vector<double> final_state[2];
  {
    auto c = make_mcml_chain(chain_stages);
    spice::TranOptions opt;
    opt.dt_max = 10 * util::ps;
    opt.backend = spice::SolverBackend::kDense;
    const double t0 = now_seconds();
    const spice::TranResult tr = spice::transient(*c, chain_window, opt);
    dense_s = now_seconds() - t0;
    if (!tr.ok) {
      std::fprintf(stderr, "dense chain transient failed: %s\n",
                   tr.error.c_str());
      return 1;
    }
    final_state[0] = tr.final_state;
    unknowns = static_cast<double>(tr.final_state.size());
  }
  {
    auto c = make_mcml_chain(chain_stages);
    spice::TranOptions opt;
    opt.dt_max = 10 * util::ps;
    opt.backend = spice::SolverBackend::kSparse;
    const double t0 = now_seconds();
    const spice::TranResult tr =
        spice::transient(*c, chain_window, opt, chain_ws);
    sparse_s = now_seconds() - t0;
    if (!tr.ok) {
      std::fprintf(stderr, "sparse chain transient failed: %s\n",
                   tr.error.c_str());
      return 1;
    }
    final_state[1] = tr.final_state;
    sparse_solves = static_cast<double>(tr.stats.lu_solves);
    fill_in = chain_ws.sparse.fill_in_ratio();
  }
  for (std::size_t i = 0; i < final_state[0].size(); ++i) {
    parity_diff =
        std::max(parity_diff, std::fabs(final_state[0][i] - final_state[1][i]));
  }

  // Refactor-vs-factorize micro-ratio on the chain's own matrix: the
  // workspace still holds the last assembled values, so the replay path is
  // timed against full pivoting on the real system.
  double refactor_ratio = 0.0;
  {
    const std::span<const double> vals(chain_ws.values.data(),
                                       chain_ws.sparse.pattern_nnz());
    const int reps = 200;
    double t0 = now_seconds();
    for (int i = 0; i < reps; ++i) chain_ws.sparse.refactor(vals);
    const double refactor_t = now_seconds() - t0;
    t0 = now_seconds();
    for (int i = 0; i < reps; ++i) chain_ws.sparse.factorize(vals);
    const double factor_t = now_seconds() - t0;
    refactor_ratio = factor_t > 0.0 ? refactor_t / factor_t : 0.0;
  }
  const double chain_speedup = sparse_s > 0.0 ? dense_s / sparse_s : 0.0;
  const double solves_per_sec = sparse_s > 0.0 ? sparse_solves / sparse_s : 0.0;
  std::printf(
      "\nSparse solver (PG-MCML chain, %d stages, %.0f unknowns):\n"
      "  dense %8.3f s   sparse %8.3f s   x%.2f   %.0f solves/s\n"
      "  fill-in %.3f   refactor/factorize time %.3f   max |dV| %.2e\n",
      chain_stages, unknowns, dense_s, sparse_s, chain_speedup, solves_per_sec,
      fill_in, refactor_ratio, parity_diff);

  util::set_parallel_threads(0);

  // One full flow run for the diagnostics block: acquisition health
  // (retries/skips and engine-effort totals) goes to the manifest alongside
  // the timings, so a degraded-but-passing run is visible to machines too.
  core::DpaFlowOptions diag_opt = acq_opt;
  diag_opt.num_traces = smoke ? 32 : 64;
  const core::DpaFlowResult diag_flow =
      core::run_dpa_flow(CellLibrary::pgmcml90(), diag_opt);
  std::printf("\nFlow diagnostics: %s\n",
              diag_flow.diagnostics.clean() ? "clean" : "incidents recorded");

  // Timings are machine-dependent (CI ignores "*.serial_s"/"*.parallel_s"/
  // "*.speedup"); determinism flags and acquisition health are exact and
  // gate regressions at any machine speed.
  obs::json::Array stage_rows;
  for (const StageResult& s : stages) {
    manifest.metric("stage." + s.name + ".serial_s", s.serial_s,
                    bench::Better::kLower);
    manifest.metric("stage." + s.name + ".parallel_s", s.parallel_s,
                    bench::Better::kLower);
    manifest.metric("stage." + s.name + ".speedup", s.speedup(),
                    bench::Better::kHigher);
    manifest.metric("stage." + s.name + ".deterministic",
                    s.deterministic ? 1.0 : 0.0, bench::Better::kHigher);
    obs::json::Object row;
    row.emplace_back("name", s.name);
    row.emplace_back("serial_s", s.serial_s);
    row.emplace_back("parallel_s", s.parallel_s);
    row.emplace_back("speedup", s.speedup());
    row.emplace_back("deterministic", s.deterministic);
    stage_rows.emplace_back(std::move(row));
  }
  // Sparse-solver block.  Timings and throughput are machine-dependent (CI
  // ignores "sparse.*_s", the speedup, solves_per_sec and the micro-ratio);
  // the unknown count, fill-in ratio and backend parity are exact.
  manifest.metric("sparse.transient_dense_s", dense_s, bench::Better::kLower);
  manifest.metric("sparse.transient_sparse_s", sparse_s, bench::Better::kLower);
  manifest.metric("sparse.transient_speedup", chain_speedup,
                  bench::Better::kHigher);
  manifest.metric("sparse.solves_per_sec", solves_per_sec,
                  bench::Better::kHigher);
  manifest.metric("sparse.refactor_vs_factor_ratio", refactor_ratio,
                  bench::Better::kLower);
  manifest.metric("sparse.fill_in_ratio", fill_in, bench::Better::kLower);
  manifest.metric("sparse.unknowns", unknowns, bench::Better::kNone);
  manifest.metric("sparse.parity", parity_diff < 5e-3 ? 1.0 : 0.0,
                  bench::Better::kHigher);
  manifest.metric("acquisition.retries",
                  static_cast<double>(diag_flow.diagnostics.retries),
                  bench::Better::kLower);
  manifest.metric("acquisition.skips",
                  static_cast<double>(diag_flow.diagnostics.skipped),
                  bench::Better::kLower);
  manifest.metric("flow.key_rank", static_cast<double>(diag_flow.key_rank),
                  bench::Better::kNone);
  manifest.section("stages", obs::json::Value(std::move(stage_rows)));
  manifest.section("diagnostics", diag_flow.diagnostics.to_json_value());
  if (!manifest.write()) return 1;

  for (const StageResult& s : stages) {
    if (!s.deterministic) {
      std::fprintf(stderr, "stage %s: serial/parallel results differ\n",
                   s.name.c_str());
      return 1;
    }
  }
  return 0;
}
