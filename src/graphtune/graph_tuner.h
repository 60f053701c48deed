// Graph-level layout tuning (Sec. 3.2.3 "Graph-level tuning: Graph Tuner",
// after Liu et al. [26]).
//
// Every convolution may run in plain NCHW or in a channel-blocked NCHW[x]c
// layout. Blocked layouts make the kernel faster (contiguous SIMD loads)
// but converting between layouts costs memory traffic. The graph tuner runs
// dynamic programming over the conv nodes in topological order, weighing
// tuned kernel time per (workload, layout) against the transform overhead on
// every producer->consumer edge, and returns the per-conv layout choice that
// minimizes estimated end-to-end time.
//
// The DP is exact on chains and trees (each producer feeding one conv). For
// multi-consumer producers the upstream cost is apportioned across
// consumers, the standard approximation for DAGs.
#pragma once

#include <map>
#include <vector>

#include "graph/graph.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"
#include "tune/tuner.h"

namespace igc::graphtune {

struct GraphTuneResult {
  /// Chosen layout block per conv node id (1 = plain NCHW).
  std::map<int, int> layout_of_conv;
  /// Estimated conv + transform time with the chosen layouts.
  double tuned_ms = 0.0;
  /// Estimated conv time with every conv in NCHW (no transforms).
  double nchw_ms = 0.0;
};

/// Candidate layout blocks for one conv workload on one device: 1 plus the
/// blocks from {4, 8, 16} that divide both channel counts (per group).
std::vector<int> layout_candidates(const ops::Conv2dParams& p,
                                   const sim::DeviceSpec& dev);

/// Cost of transforming a tensor of `numel` elements between two layouts
/// (0 when equal).
double transform_cost_ms(const sim::DeviceSpec& dev, int64_t numel,
                         int from_block, int to_block);

/// Tunes every conv workload under every candidate layout (records land in
/// `db`) and solves the layout-assignment DP.
GraphTuneResult tune_graph_layouts(const graph::Graph& g,
                                   const sim::DeviceSpec& dev,
                                   tune::TuneDb& db,
                                   const tune::TuneOptions& opts = {});

/// The one rule for which schedule each conv node runs: its tuned config
/// from `db` under the layout block `layouts` chose for it (1 when absent),
/// or the hand-written template when `db` is null or has no record (Table 5
/// "Before"). Either way the config carries its `layout_block` knob, which
/// is what the executor runs the conv in. Keyed by conv node id; this is
/// the map graph::ExecOptions::conv_schedules requires.
std::map<int, tune::ScheduleConfig> resolve_conv_schedules(
    const graph::Graph& g, const sim::DeviceSpec& dev,
    const std::map<int, int>& layouts, const tune::TuneDb* db);

}  // namespace igc::graphtune
