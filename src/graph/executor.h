// The heterogeneous graph executor.
//
// Runs an optimized graph against a simulated platform by walking its nodes
// in topological (id) order on the calling thread — one in-order queue, the
// paper's executor. Simulated latency is the serial sum of every kernel
// charge. Each run also reports the critical-path makespan of a per-lane
// schedule (GPU queue, companion CPU, copy engine — see sim::LaneSchedule):
// the latency the same charges would give if independent nodes overlapped
// across devices. Every node draws its synthetic data from a private Rng
// seeded from (input seed, node name), so outputs do not depend on node ids.
//
// The graph must be compact: every node reaches the output, as compile()
// guarantees. execute() rejects a graph with an unreachable node.
//
// Intermediate tensors can come from a plan-backed BufferArena (see
// src/tensor/arena.h) sized by plan_memory(): buffers are recycled across
// nodes within a run and, when the caller keeps the arena (CompiledModel
// does), across repeated runs — steady-state serving then performs no
// intermediate heap allocations for node outputs.
//
// Two execution modes for numerics:
//   * numerics on  — every operator computes its real output (tests,
//     examples, small inputs);
//   * numerics off — compute-heavy tensor ops propagate shapes only while
//     still charging their cost; vision ops always run functionally, on
//     synthetic-but-realistic detection inputs from the workload generator,
//     because their cost depends on the data distribution. This mode makes
//     full-size model benchmarks (SSD at 512x512) cheap on the host.
#pragma once

#include <map>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/memory_planner.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"
#include "tune/config.h"

namespace igc::codegen::jit {
struct DispatchTable;
}

namespace igc::graph {

/// The one categorization rule behind every breakdown: ExecResult's
/// per-category fields, ClockEvent tags, and trace spans all derive from it.
/// A CPU-placed operator (other than the copies around it) is a fallback op
/// (Sec. 3.1.2) whatever its kind.
sim::OpCategory categorize(OpKind kind, Place place);

struct ExecOptions {
  bool compute_numerics = true;
  /// Sec. 3.1 optimizations on vision ops; off = Table 4 "Before".
  bool optimized_vision_ops = true;
  /// The schedule each conv node runs, keyed by node id — required, and
  /// must cover every conv node (execute() throws igc::Error otherwise).
  /// Build it with graphtune::resolve_conv_schedules: a tuning database
  /// gives the tuned schedules, a null one the hand-written templates
  /// (Table 5 "Before"). Each schedule's `layout_block` knob is the
  /// activation layout its conv runs in (1 = NCHW); layout transforms are
  /// charged where neighbouring blocks differ.
  const std::map<int, tune::ScheduleConfig>* conv_schedules = nullptr;

  /// Back node outputs with a plan_memory()-sized buffer arena instead of
  /// fresh heap tensors. When `arena` is null a private arena is built for
  /// the run; pass a persistent arena (plus its plan) to reuse buffers
  /// across runs.
  bool use_arena = false;
  /// Persistent arena and the memory plan it was sized from. Both or
  /// neither (validated at execute() entry); ignored unless use_arena.
  /// Concurrent runs must not share one.
  BufferArena* arena = nullptr;
  const MemoryPlan* plan = nullptr;

  /// Host-JIT dispatch table for this graph (codegen/jit_lower.h). Nodes
  /// present in the table compute their numerics through compiled host
  /// kernels — bit-identical to the reference implementations — writing
  /// straight into their output buffer; absent nodes (and every node when
  /// null) take the reference path. Simulated charges and counters are
  /// unaffected either way.
  const codegen::jit::DispatchTable* jit = nullptr;

  /// When set, one TraceSpan per executed node is appended to this recorder
  /// (simulated lane windows, host dispatch times, category, shapes, bytes,
  /// chosen conv schedule). Spans are recorded in the post-run merge, so
  /// tracing never perturbs outputs. The recorder must outlive the run;
  /// concurrent runs must not share one.
  obs::TraceRecorder* trace = nullptr;
};

struct ExecResult {
  Tensor output;
  /// Simulated end-to-end latency: the serial sum of every node's charge.
  double latency_ms = 0.0;
  /// Serial sum of every node's charge (== latency_ms).
  double serial_ms = 0.0;
  /// Per-lane critical-path makespan: the latency if independent nodes
  /// overlapped across device lanes. Never more than serial_ms.
  double critical_path_ms = 0.0;
  /// Per-category breakdown of the serial sum, attributed by categorize():
  /// conv / vision / copies / CPU-fallback ops / everything else. The five
  /// fields sum to serial_ms.
  double conv_ms = 0.0;
  double vision_ms = 0.0;
  double copy_ms = 0.0;
  double fallback_ms = 0.0;
  double other_ms = 0.0;
  /// High-water mark of live node-output bytes (arena + heap) during the
  /// run. With an arena this is bounded by MemoryPlan::total_bytes().
  int64_t peak_intermediate_bytes = 0;
  /// Capacity of the arena used (0 when use_arena is off).
  int64_t arena_bytes = 0;
  /// Physical page bytes the arena still held when the run finished (0 when
  /// use_arena is off; 0 for serving contexts that return pages to the shared
  /// pool on release).
  int64_t arena_page_bytes = 0;
  std::vector<sim::ClockEvent> events;
  /// Hardware counters merged over every charge of the run (so counters.ms
  /// equals serial_ms up to summation order).
  sim::KernelCounters counters;
};

/// Executes `g` on `platform`. `input_rng` seeds the synthetic model input
/// (and, in shapes-only mode, the synthetic detection tensors): one value is
/// drawn from it, and every node derives a private Rng from that value and
/// its stable node name. Throws igc::Error when `g` is not compact.
ExecResult execute(const Graph& g, const sim::Platform& platform,
                   const ExecOptions& opts, Rng& input_rng);

}  // namespace igc::graph
