// Security-evaluator workflow: mount a correlation power attack against the
// reduced AES target in each logic style and watch the key rank evolve with
// the number of traces -- the experiment behind Fig. 6.
//
// The campaign streams once through the acquisition source; every table row
// scores the same growing statistic, so the rank-vs-traces curve costs
// one pass and one batch of resident traces instead of eight prefix reruns
// over a materialized trace matrix.
//
// Usage: ./build/examples/cpa_attack [traces]   (default 3000)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pgmcml;
  const std::size_t budget = argc > 1 ? std::atoll(argv[1]) : 3000;
  const std::uint8_t secret_key = 0x2b;
  const std::size_t checkpoint = std::max<std::size_t>(1, budget / 8);

  std::printf("Attacking sbox(p ^ k), secret key = 0x%02x, up to %zu traces\n\n",
              secret_key, budget);

  for (const cells::CellLibrary& lib :
       {cells::CellLibrary::cmos90(), cells::CellLibrary::mcml90(),
        cells::CellLibrary::pgmcml90()}) {
    core::DpaFlowOptions opt;
    opt.num_traces = budget;
    opt.key = secret_key;
    opt.samples = 600;
    opt.batch_size = checkpoint;  // one scoring per streamed batch
    auto source = core::make_acquisition_source(lib, opt);

    util::Table t("CPA vs trace count -- " + lib.name());
    t.header({"traces", "key rank", "best guess", "corr(true)", "margin"});
    sca::BinnedMoments stat(opt.samples);
    const auto score = [&] {
      return sca::BinSpectrum(stat).cpa(sca::LeakageModel::kHammingWeight);
    };
    sca::TraceBatch batch;
    while (source->next(batch)) {
      stat.add_batch(batch);
      const sca::CpaResult r = score();
      t.row({std::to_string(stat.num_traces()),
             std::to_string(r.key_rank(secret_key)),
             std::to_string(r.best_guess),
             util::Table::num(r.peak_correlation[secret_key], 4),
             util::Table::num(r.margin(secret_key), 4)});
    }
    t.print();

    const sca::CpaResult final_r = score();
    if (final_r.key_rank(secret_key) == 0) {
      std::printf(">>> %s: KEY DISCLOSED (0x%02x)\n\n", lib.name().c_str(),
                  final_r.best_guess);
    } else {
      std::printf(">>> %s: key not distinguishable (rank %d of 256)\n\n",
                  lib.name().c_str(), final_r.key_rank(secret_key));
    }
  }
  return 0;
}
