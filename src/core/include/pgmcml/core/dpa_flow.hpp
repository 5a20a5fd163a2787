// End-to-end DPA evaluation flow (Section 6 / Fig. 6 of the paper):
//
//   synthesize a one-byte target (byte_target.hpp) for a logic style: the
//   reduced AES (AddRoundKey + S-box) or the full AES-128 core
//   -> simulate it for a stream of plaintexts under a fixed secret key
//   -> compose the supply-current trace of every run (1 ps-class grid)
//   -> mount CPA with the Hamming-weight-of-S-box-output model
//   -> report key rank, distinguishability margin, and traces-to-disclosure.
//
// The expected outcome, as in the paper: CMOS discloses the key, MCML and
// PG-MCML do not, and the sleep machinery does not weaken PG-MCML.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/spice/solve_error.hpp"

namespace pgmcml::core {

/// What the acquisition measures per trace.
enum class AcquisitionMode {
  /// Transient supply-current trace of the evaluation (the Fig. 6 setup).
  kDynamic,
  /// Quiescent leakage current while the circuit HOLDS each state: the
  /// samples are repeated DC measurements, laid out as [awake hold | asleep
  /// hold] (see sca::static_window_bounds).  For power-gated libraries the
  /// second window measures the gated-off floor; non-gated libraries keep
  /// holding, so both windows see the same physics.  This is the
  /// measurement a static-power attack (Bhandari et al.) averages.
  kStatic,
};

/// The circuit a flow attacks (byte_target.hpp).
enum class AttackTarget {
  /// AddRoundKey + S-box, the paper's Fig. 6 target.
  kReducedAes,
  /// The full AES-128 core, first round, plaintext byte 0 chosen.
  kAesCore,
};

/// Seed perturbation of a static acquisition's noise: sample j of trace t
/// adds gaussian(0, noise_sigma + supply_noise_ratio * level) drawn in order
/// from util::Rng::stream(seed ^ kStaticNoiseStream, t), decorrelated from
/// the plaintext stream util::Rng::stream(seed, t).
inline constexpr std::uint64_t kStaticNoiseStream = 0x57a71cc0ffeeULL;

struct DpaFlowOptions {
  AttackTarget target = AttackTarget::kReducedAes;
  std::size_t num_traces = 2000;
  /// Global index of the first trace this source produces.  Rng streams,
  /// noise nonces, and the fault hook are keyed on the GLOBAL index
  /// (first_trace + local offset), so a source over [k, k + n) emits traces
  /// bitwise identical to traces k..k+n-1 of a source over [0, N) -- the
  /// contract that lets a sharded campaign split and resume ranges freely.
  std::size_t first_trace = 0;
  std::uint8_t key = 0x2b;
  std::uint64_t seed = 7;
  /// Trace grid: 2 ps steps covering the evaluation window after the
  /// plaintext edge (paper: 1 ps / 1 uA resolution; 2 ps keeps the 256x256
  /// full sweep tractable while oversampling every kernel).
  double dt = 2e-12;
  std::size_t samples = 900;
  double noise_sigma = 2e-6;
  /// PG-MCML: wrap each operation in a wake/sleep window (the sleep signal
  /// toggling with the data is part of what Fig. 6 shows is harmless).
  bool gate_per_operation = true;
  bool keep_time_curves = false;
  bool compute_mtd = false;
  /// Transient traces (dynamic attacks) or quiescent holds, on which the
  /// flow also mounts the static-power attack on both gating windows.
  AcquisitionMode acquisition = AcquisitionMode::kDynamic;
  /// Mount the MLPA multi-bit attack on the acquired traces (any mode).
  bool compute_mlpa = false;
  /// When in [0, 255], every acquisition uses this fixed plaintext byte
  /// (for the TVLA fixed class); -1 = random plaintexts.  Other values are
  /// rejected.
  int fixed_plaintext = -1;
  /// Use SPICE-extracted current kernels instead of the analytic defaults.
  bool spice_kernels = false;
  /// Traces produced (and resident) per streaming batch.  The acquisition
  /// source holds one batch of row buffers plus, for a dynamic acquisition,
  /// its 256-row per-plaintext memo, so the flow's trace memory is at most
  /// (batch_size + 256) * samples doubles regardless of num_traces.
  std::size_t batch_size = sca::kDefaultTraceBatch;
  /// Copy the streamed traces into DpaFlowResult::traces.  Disable for large
  /// campaigns that only need the attack statistics: the flow then never
  /// materializes the trace matrix (the attack results are bitwise identical
  /// either way).
  bool keep_traces = true;
  /// Test-only fault hook, called as (trace_index, attempt) before each
  /// trace is simulated; a throw from here fails that attempt.  The
  /// acquisition retries a failed trace once, then skips it and records the
  /// incident — it never aborts the flow.  Keyed on the trace index, so the
  /// same traces fail at any thread count.
  std::function<void(std::size_t, int)> acquisition_fault_hook;
};

/// The verdicts against options.key (MLPA when compute_mlpa, the static
/// windows for a kStatic acquisition, MTDs when compute_mtd), plus what the
/// acquisition produced.
struct DpaFlowResult : sca::AttackVerdicts {
  sca::TraceSet traces;
  netlist::Design::Stats stats;
  double mean_current = 0.0;  ///< average supply current over all traces [A]
  /// Aggregated acquisition outcomes: kernel-extraction retries, per-trace
  /// retries/skips, engine-effort totals.  clean() when nothing failed.
  spice::FlowDiagnostics diagnostics;
};

/// Streaming acquisition of `options.target`: a TraceSource that produces
/// `options.batch_size` traces per next() call into reused row buffers, so
/// an arbitrarily long campaign holds one batch in memory, plus a memo of at
/// most 256 noiseless rows (one simulation per plaintext byte; the key is
/// fixed).
/// Trace indices are global -- Rng streams, noise nonces, and the fault hook
/// are keyed on the campaign index -- so the stream is bitwise identical to
/// the materialized acquisition at any thread count and any batch size.
/// Failed traces are retried once, then skipped (excluded from the batch)
/// and recorded in diagnostics(), exactly as the batch flow did.
/// The constructor throws std::invalid_argument when batch_size or samples
/// is 0, or fixed_plaintext lies outside [-1, 255].
class AcquisitionSource : public sca::TraceSource {
 public:
  /// Aggregated outcomes so far: kernel extraction plus every batch
  /// produced.  reset() rewinds this to the post-construction state.
  virtual const spice::FlowDiagnostics& diagnostics() const = 0;
  /// Mean supply current over the traces produced so far [A].
  virtual double mean_current() const = 0;
  /// Traces ATTEMPTED so far (skipped traces included): the resume cursor a
  /// checkpointing consumer persists.  A new source with first_trace
  /// advanced by this count continues the identical global trace sequence.
  /// One next() call can consume more than one batch_size when every trace
  /// of a batch is skipped, so consumers must read this, not infer it.
  virtual std::size_t traces_consumed() const = 0;
  /// Synthesis stats of the mapped target.
  virtual const netlist::Design::Stats& design_stats() const = 0;
  /// Re-ranges the source onto global traces [first_trace, first_trace +
  /// num_traces) and rewinds it: reset() plus a new range, diagnostics back
  /// to the post-construction state.  Synthesis, the precharge, the tracer
  /// and the plaintext memo are kept, so a plaintext already simulated is
  /// not simulated again; the stream that follows is bitwise the one a
  /// fresh source over that range produces.  The fault hook is the one the
  /// source was built with: a caller that re-ranges it per lease has the
  /// hook read the current lease.
  virtual void seek(std::size_t first_trace, std::size_t num_traces) = 0;
};

std::unique_ptr<AcquisitionSource> make_acquisition_source(
    const cells::CellLibrary& library, const DpaFlowOptions& options = {});

/// Acquires traces of `options.target` and mounts the attacks.
/// Single-pass: one streamed acquisition feeds the statistic and the
/// checkpointed MTD tracker simultaneously.
DpaFlowResult run_dpa_flow(const cells::CellLibrary& library,
                           const DpaFlowOptions& options = {});

}  // namespace pgmcml::core
