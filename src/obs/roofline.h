// Roofline attribution over a recorded trace.
//
// Folds the per-node KernelCounters aggregates of a TraceRecorder against a
// device's two ceilings (peak GFLOPS, peak DRAM GB/s) into the analysis a
// hardware vendor's profiler would print: for every op, how close it ran to
// the roofline at its arithmetic intensity, which term bounded it, and a
// ranked "where the milliseconds go" table — the paper's Sec. 3.2
// microarchitectural argument (occupancy, DRAM traffic, relaunch overhead)
// turned into per-op numbers.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/timing_model.h"

namespace igc::obs {

/// One op (trace span) scored against the device roofline.
struct RooflineRow {
  std::string name;  // node name
  std::string op;    // op kind
  sim::OpCategory category = sim::OpCategory::kOther;
  sim::Lane lane = sim::Lane::kGpu;
  sim::KernelCounters counters;
  double ms = 0.0;             // span duration (== counters.ms)
  double pct_of_serial = 0.0;  // share of the run's serial time
  /// Device ceiling at this op's arithmetic intensity:
  /// min(peak_gflops, peak_gbps * AI). 0 for ops that do no flops.
  double roof_gflops = 0.0;
  /// Achieved fraction of the binding ceiling: achieved/roof GFLOPS for ops
  /// with flops, achieved/peak GB/s for pure data movers, 0 for opaque
  /// (fixed-charge) sections.
  double pct_of_roof = 0.0;
};

struct RooflineReport {
  std::string model;
  std::string platform;
  double peak_gflops = 0.0;
  double peak_gbps = 0.0;
  /// The device's ridge point (flops/byte where the two ceilings meet).
  double ridge_intensity = 0.0;
  double serial_ms = 0.0;
  /// Serial ms attributed to each BoundKind (indexed by BoundKind).
  double bound_ms[sim::kNumBoundKinds] = {};
  /// The BoundKind holding the most serial time.
  sim::BoundKind top_bottleneck = sim::BoundKind::kCompute;
  /// All counted ops, ranked by ms descending.
  std::vector<RooflineRow> rows;

  /// The human-readable report: device ceilings, bottleneck split, and the
  /// top `top_k` ops with their roofline scores.
  std::string str(int top_k = 16) const;
};

/// Builds the report from `rec`'s spans against `gpu`'s ceilings. Spans with
/// no counted launches (nothing charged) are skipped.
RooflineReport roofline_report(const TraceRecorder& rec,
                               const sim::DeviceSpec& gpu);

/// Per-op counter table (the `--counters` view): one line per op with the
/// raw profiler numbers, ranked by ms descending.
std::string counters_table(const TraceRecorder& rec, int top_k = 16);

}  // namespace igc::obs
