// The three benchmark workloads.  Each runs its untraced end-to-end
// measurement (RunConfig::trace == false) or its traced run, which reports
// the per-layer metrics and prints a layer table.
#pragma once

#include "common.hpp"
#include "pgmcml/cells/library.hpp"

namespace repobench {

/// The three logic styles the trace workloads run, in this order.
inline const char* const kStyleNames[] = {"CMOS", "MCML", "PG-MCML"};
inline std::vector<pgmcml::cells::CellLibrary> style_libraries() {
  return {pgmcml::cells::CellLibrary::cmos90(),
          pgmcml::cells::CellLibrary::mcml90(),
          pgmcml::cells::CellLibrary::pgmcml90()};
}

Outcome run_fig6_stream(const RunConfig& cfg);
Outcome run_campaign_fork(const RunConfig& cfg);
Outcome run_daemon_mixed(const RunConfig& cfg);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.  A
/// traced run reports all of them; a layer the workload does not exercise
/// reads 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Adds every per-layer metric to `out`, taking the value from `values`
/// (name -> value) and 0 for names absent there.
void emit_layer_metrics(Outcome& out,
                        const std::vector<std::pair<std::string, double>>&
                            values);

}  // namespace repobench
