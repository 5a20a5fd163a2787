// The full AES-128 core through the memoized acquisition source
// (DpaFlowOptions::target = kAesCore): the stream must equal one fresh
// simulation per trace, bit for bit, at any thread count and batch size,
// and a long run must simulate each plaintext byte at most once.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::core {
namespace {

using cells::CellLibrary;

/// One acquired trace: its plaintext and its samples.
using Trace = std::pair<std::uint8_t, std::vector<double>>;

/// The bench's full-core setup on a shorter grid.
DpaFlowOptions aes_core_options() {
  DpaFlowOptions opt;
  opt.target = AttackTarget::kAesCore;
  opt.num_traces = 64;
  opt.seed = 17;
  opt.dt = 4e-12;
  opt.samples = 200;
  opt.gate_per_operation = false;
  return opt;
}

/// The oracle, built without the source or its ByteTarget: every trace
/// precharges a fresh simulator of the mapped core (every input low), drives
/// byte 0 of the state with plaintext ^ key, and is the tracer's trace() of
/// the resulting events.
std::vector<Trace> per_trace_reference(const CellLibrary& library,
                                       const DpaFlowOptions& opt) {
  const synth::MapResult mapped = map_aes_core(library);
  const netlist::Design& design = mapped.design;
  const std::vector<netlist::NetId> st = design.input_bus("st", 128);
  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = opt.dt;
  topt.samples = opt.samples;
  topt.noise_sigma = opt.noise_sigma;
  topt.seed = opt.seed;
  const power::PowerTracer tracer(design, library, power::default_kernels(),
                                  topt);

  std::vector<Trace> out;
  for (std::size_t t = 0; t < opt.num_traces; ++t) {
    const auto plaintext =
        static_cast<std::uint8_t>(util::Rng::stream(opt.seed, t).bounded(256));
    netlist::LogicSim sim(design, &library);
    std::vector<std::pair<netlist::NetId, bool>> precharge;
    for (const netlist::NetId n : design.inputs()) {
      precharge.emplace_back(n, false);
    }
    sim.apply_and_settle(precharge);
    sim.clear_events();
    sim.run_until(0.5e-9);
    const unsigned state0 = plaintext ^ opt.key;
    std::vector<std::pair<netlist::NetId, bool>> stimulus;
    for (int b = 0; b < 8; ++b) {
      stimulus.emplace_back(st[b], (state0 >> b) & 1);
    }
    sim.apply_and_settle(stimulus);
    out.emplace_back(plaintext, tracer.trace(sim.events(), {}, t));
  }
  return out;
}

std::vector<Trace> drain(AcquisitionSource& source) {
  std::vector<Trace> out;
  sca::TraceBatch batch;
  while (source.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.emplace_back(batch.plaintexts[i],
                       std::vector<double>(batch.traces[i].begin(),
                                           batch.traces[i].end()));
    }
  }
  return out;
}

TEST(AesCoreSource, MemoizedStreamMatchesPerTraceSimulation) {
  for (const CellLibrary& library :
       {CellLibrary::cmos90(), CellLibrary::pgmcml90()}) {
    const DpaFlowOptions opt = aes_core_options();
    const std::vector<Trace> reference = per_trace_reference(library, opt);
    for (const std::size_t threads : {1u, 4u}) {
      util::set_parallel_threads(threads);
      for (const std::size_t batch : {1u, 7u}) {
        DpaFlowOptions run = opt;
        run.batch_size = batch;
        const std::string what = library.name() +
                                 " threads=" + std::to_string(threads) +
                                 " batch=" + std::to_string(batch);
        const std::vector<Trace> got =
            drain(*make_acquisition_source(library, run));
        ASSERT_EQ(got.size(), reference.size()) << what;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(got[i].first, reference[i].first) << what << " " << i;
          // vector == compares doubles with ==: bitwise for these traces.
          EXPECT_TRUE(got[i].second == reference[i].second)
              << what << " trace " << i;
        }
      }
    }
  }
  util::set_parallel_threads(0);
}

TEST(AesCoreSource, LongRunFillsOneMemoEntryPerPlaintext) {
  DpaFlowOptions opt = aes_core_options();
  opt.num_traces = 3000;
  opt.samples = 32;
  opt.keep_traces = false;
  std::set<int> plaintexts;
  for (std::size_t t = 0; t < opt.num_traces; ++t) {
    plaintexts.insert(
        static_cast<int>(util::Rng::stream(opt.seed, t).bounded(256)));
  }
  const obs::Counter fills =
      obs::Registry::global().counter("core.acquisition.simulations");
  const std::uint64_t before = fills.value();
  const DpaFlowResult result = run_dpa_flow(CellLibrary::cmos90(), opt);
  const std::uint64_t simulated = fills.value() - before;
  EXPECT_LE(simulated, 256u);
  EXPECT_EQ(simulated, plaintexts.size());
  EXPECT_TRUE(result.diagnostics.clean());
}

}  // namespace
}  // namespace pgmcml::core
