// End-to-end executor tests: numerical equivalence across optimization
// passes, heterogeneous fallback, tuned-vs-untuned timing, the vision-op
// optimization switch, the compactness contract, the required per-node conv
// schedule map, and the plan-backed arena (bit-identical to heap runs, peak
// within the plan) with both simulated time models.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/error.h"
#include "core/rng.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/common.h"
#include "models/models.h"
#include "ops/vision/nms.h"
#include "sim/device_spec.h"
#include "tune/conv_tuner.h"

namespace igc::graph {
namespace {

using sim::PlatformId;

/// A small conv net: conv-bn-relu x2 + residual add + GAP head.
Graph small_net(Rng& rng) {
  Graph g;
  const int in = g.add_input("data", Shape{1, 8, 16, 16});
  const int c1 = models::conv_bn_act(g, rng, "c1", in, 16, 3, 1, 1);
  const int c2 = models::conv_bn_act(g, rng, "c2", c1, 16, 3, 1, 1, 1,
                                     /*relu=*/false);
  const int sum = g.add_add("res", c2, c1);
  const int act = g.add_activation("res_relu", sum, ops::Activation::kRelu);
  const int gap = g.add_global_avg_pool("gap", act);
  const int flat = g.add_flatten("flat", gap);
  const int sm = g.add_softmax("prob", flat);
  g.set_output(sm);
  return g;
}

/// The hand-written template schedules in NCHW for every conv of `g`.
std::map<int, tune::ScheduleConfig> templates(const Graph& g,
                                              PlatformId plat) {
  return graphtune::resolve_conv_schedules(g, sim::platform(plat).gpu, {},
                                           nullptr);
}

/// Runs `g`; options without conv schedules get the templates.
ExecResult run(const Graph& g, PlatformId plat, ExecOptions opts,
               uint64_t seed = 99) {
  const auto schedules = templates(g, plat);
  if (opts.conv_schedules == nullptr) opts.conv_schedules = &schedules;
  Rng rng(seed);
  return execute(g, sim::platform(plat), opts, rng);
}

TEST(Executor, ProducesOutputAndPositiveLatency) {
  Rng rng(1);
  Graph g = small_net(rng);
  ExecOptions opts;
  const ExecResult r = run(g, PlatformId::kDeepLens, opts);
  EXPECT_EQ(r.output.shape(), Shape({1, 16}));
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_FALSE(r.events.empty());
  // Softmax output sums to 1.
  double sum = 0.0;
  for (float v : r.output.span_f32()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Executor, OptimizationPassesPreserveNumerics) {
  Rng rng(2);
  Graph raw = small_net(rng);
  Graph optimized = raw;  // deep copy of nodes (tensors alias, not mutated...
  // ...except fold rewrites weights on clones of its own copy).
  // Rebuild instead to keep weights independent:
  Rng rng2(2);
  optimized = small_net(rng2);
  optimize(optimized);

  ExecOptions opts;
  const ExecResult a = run(raw, PlatformId::kJetsonNano, opts, 7);
  const ExecResult b = run(optimized, PlatformId::kJetsonNano, opts, 7);
  EXPECT_EQ(a.output.shape(), b.output.shape());
  EXPECT_LT(a.output.max_abs_diff(b.output), 1e-4f);
}

TEST(Executor, FusionReducesKernelCount) {
  Rng rng(3);
  Graph raw = small_net(rng);
  Rng rng2(3);
  Graph optimized = small_net(rng2);
  optimize(optimized);
  ExecOptions opts;
  const ExecResult a = run(raw, PlatformId::kDeepLens, opts);
  const ExecResult b = run(optimized, PlatformId::kDeepLens, opts);
  EXPECT_LT(b.events.size(), a.events.size());
  EXPECT_LT(b.latency_ms, a.latency_ms);
}

TEST(Executor, TunedConfigsBeatDefaults) {
  Rng rng(4);
  Graph g = small_net(rng);
  optimize(g);
  const auto& plat = sim::platform(PlatformId::kJetsonNano);
  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 48;
  for (int id : g.conv_node_ids()) {
    tune::tune_conv2d(g.node(id).conv, plat.gpu, 1, db, topts);
  }
  const auto tuned_schedules =
      graphtune::resolve_conv_schedules(g, plat.gpu, {}, &db);
  ExecOptions untuned;
  ExecOptions tuned;
  tuned.conv_schedules = &tuned_schedules;
  const ExecResult a = run(g, PlatformId::kJetsonNano, untuned);
  const ExecResult b = run(g, PlatformId::kJetsonNano, tuned);
  EXPECT_LT(b.conv_ms, a.conv_ms);
  // Numerics identical either way.
  EXPECT_LT(a.output.max_abs_diff(b.output), 1e-6f);
}

TEST(Executor, ShapesOnlyModeIsFastAndTimesEqualNumericMode) {
  Rng rng(5);
  Graph g = small_net(rng);
  optimize(g);
  ExecOptions numeric;
  ExecOptions shapes;
  shapes.compute_numerics = false;
  const ExecResult a = run(g, PlatformId::kAiSage, numeric);
  const ExecResult b = run(g, PlatformId::kAiSage, shapes);
  // The simulated clock must not depend on whether numerics ran (pure
  // tensor pipeline, no data-dependent ops in this net).
  EXPECT_NEAR(a.latency_ms, b.latency_ms, 1e-9);
}

// ---- vision ops in graphs --------------------------------------------------

Graph nms_graph(int64_t n) {
  Graph g;
  const int in = g.add_input("detections", Shape{1, n, 6});
  ops::NmsParams p;
  p.iou_threshold = 0.45f;
  const int nms = g.add_box_nms("nms", in, p);
  g.set_output(nms);
  return g;
}

TEST(Executor, VisionOptimizationTogglesCostNotResult) {
  Graph g = nms_graph(4000);
  ExecOptions on;
  ExecOptions off;
  off.optimized_vision_ops = false;
  const ExecResult a = run(g, PlatformId::kAiSage, on, 42);
  const ExecResult b = run(g, PlatformId::kAiSage, off, 42);
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
  EXPECT_LT(a.vision_ms, b.vision_ms);
}

TEST(Executor, CpuFallbackMatchesGpuNumerics) {
  Graph gpu_graph = nms_graph(2000);
  optimize(gpu_graph);  // nms on GPU
  Graph cpu_graph = nms_graph(2000);
  optimize(cpu_graph, {OpKind::kBoxNms});  // nms falls back to CPU

  int copies = 0;
  for (const Node& n : cpu_graph.nodes()) {
    if (n.kind == OpKind::kDeviceCopy) ++copies;
  }
  // Input is already host-side; no GPU section in this tiny graph, so no
  // copies are needed at all.
  const ExecResult a = run(gpu_graph, PlatformId::kDeepLens, {}, 11);
  const ExecResult b = run(cpu_graph, PlatformId::kDeepLens, {}, 11);
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
  EXPECT_GT(b.latency_ms, 0.0);
  (void)copies;
}

TEST(Executor, FallbackInsertsCopiesAroundGpuSections) {
  // conv (GPU) -> nms-ish chain: force activation to CPU and check copies
  // are charged.
  Rng rng(6);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const int c = models::conv_bn_act(g, rng, "c", in, 8, 3, 1, 1);
  const int gap = g.add_global_avg_pool("gap", c);
  g.set_output(gap);
  optimize(g, {OpKind::kGlobalAvgPool});
  const ExecResult r = run(g, PlatformId::kDeepLens, {});
  EXPECT_GT(r.copy_ms, 0.0);
}

TEST(Executor, SsdDetectionGraphEndToEnd) {
  Rng rng(7);
  models::Model m = models::build_ssd(rng, models::SsdBackbone::kMobileNet,
                                      /*image_size=*/128);
  optimize(m.graph);
  ExecOptions opts;
  opts.compute_numerics = false;  // backbone shapes only; detection synthetic
  const ExecResult r = run(m.graph, PlatformId::kJetsonNano, opts);
  EXPECT_EQ(r.output.shape().ndim(), 3);
  EXPECT_EQ(r.output.shape()[2], 6);
  EXPECT_GT(r.vision_ms, 0.0);
  EXPECT_GT(r.conv_ms, 0.0);
  // Output is a valid NMS result: rows are either invalid or well-formed.
  const float* o = r.output.data_f32();
  for (int64_t i = 0; i < r.output.shape()[1]; ++i) {
    if (o[i * 6] < 0.0f) continue;
    EXPECT_GE(o[i * 6 + 1], 0.0f);
    EXPECT_LE(o[i * 6 + 2], o[i * 6 + 4]);  // x1 <= x2
  }
}

TEST(Executor, YoloGraphEndToEnd) {
  Rng rng(8);
  models::Model m = models::build_yolov3(rng, /*image_size=*/128, 1, 20);
  optimize(m.graph);
  ExecOptions opts;
  opts.compute_numerics = false;
  const ExecResult r = run(m.graph, PlatformId::kAiSage, opts);
  EXPECT_EQ(r.output.shape()[2], 6);
  EXPECT_GT(r.vision_ms, 0.0);
}

TEST(Executor, LayoutBlocksChargeTransforms) {
  Rng rng(9);
  Graph g = small_net(rng);
  optimize(g);
  const auto convs = g.conv_node_ids();
  ASSERT_GE(convs.size(), 2u);
  // Alternate blocks so every conv edge needs a transform.
  std::map<int, int> layouts;
  int flip = 0;
  for (int id : convs) layouts[id] = (flip++ % 2 == 0) ? 8 : 1;
  const auto blocked_schedules = graphtune::resolve_conv_schedules(
      g, sim::platform(PlatformId::kDeepLens).gpu, layouts, nullptr);
  ExecOptions plain;
  ExecOptions blocked;
  blocked.conv_schedules = &blocked_schedules;
  const ExecResult a = run(g, PlatformId::kDeepLens, plain);
  const ExecResult b = run(g, PlatformId::kDeepLens, blocked);
  int transforms = 0;
  for (const auto& e : b.events) {
    if (e.name.rfind("layout_transform", 0) == 0) ++transforms;
  }
  EXPECT_GT(transforms, 0);
  EXPECT_LT(a.output.max_abs_diff(b.output), 1e-6f);
}

TEST(Executor, RequiresAScheduleForEveryConvNode) {
  // No per-dispatch fallback: a missing map, or a map that misses one conv
  // node, is a caller error on the heap and the arena path alike.
  Rng rng(11);
  Graph g = small_net(rng);
  optimize(g);
  const sim::Platform& plat = sim::platform(PlatformId::kDeepLens);
  auto partial = templates(g, PlatformId::kDeepLens);
  ASSERT_GE(partial.size(), 2u);
  partial.erase(partial.begin());
  for (const bool arena : {false, true}) {
    ExecOptions opts;
    opts.use_arena = arena;
    Rng r1(1);
    EXPECT_THROW(execute(g, plat, opts, r1), Error) << "arena " << arena;
    opts.conv_schedules = &partial;
    Rng r2(1);
    EXPECT_THROW(execute(g, plat, opts, r2), Error) << "arena " << arena;
  }
}

TEST(Executor, RejectsGraphWithUnreachableNode) {
  // A node nothing consumes (and that is not the output) never reaches the
  // output; execute() and plan_memory() both refuse such a graph.
  Rng rng(10);
  Graph g = small_net(rng);
  g.add_activation("orphan", g.output() - 1, ops::Activation::kRelu);
  ExecOptions opts;
  EXPECT_THROW(run(g, PlatformId::kDeepLens, opts), Error);
  opts.use_arena = true;
  EXPECT_THROW(run(g, PlatformId::kDeepLens, opts), Error);
  EXPECT_THROW(plan_memory(g), Error);

  EXPECT_EQ(dead_node_elimination_pass(g), 1);
  const MemoryPlan plan = plan_memory(g);
  for (int buf : plan.buffer_of_node) EXPECT_GE(buf, 0);
  EXPECT_EQ(run(g, PlatformId::kDeepLens, opts).output.shape(), Shape({1, 16}));
}

TEST(Executor, BuildsLocalArenaWhenNoneProvided) {
  // use_arena without a caller-provided arena/plan sizes a private arena
  // from the executor's own plan_memory() call.
  Rng model_rng(0x5eed);
  models::Model m = models::build_squeezenet(model_rng, 64);
  optimize(m.graph);
  const sim::Platform& plat = sim::platform(PlatformId::kDeepLens);

  const auto schedules = templates(m.graph, PlatformId::kDeepLens);
  ExecOptions opts;
  opts.conv_schedules = &schedules;
  Rng rng_a(0x11);
  const ExecResult plain = execute(m.graph, plat, opts, rng_a);

  opts.use_arena = true;
  Rng rng_b(0x11);
  const ExecResult arena = execute(m.graph, plat, opts, rng_b);

  ASSERT_TRUE(arena.output.shape() == plain.output.shape());
  EXPECT_EQ(arena.output.max_abs_diff(plain.output), 0.0f);
  EXPECT_EQ(arena.arena_bytes, plan_memory(m.graph).total_bytes());
  EXPECT_LE(arena.peak_intermediate_bytes, arena.arena_bytes);
}

}  // namespace
}  // namespace igc::graph

namespace igc {
namespace {

CompiledModel compile_fast(models::Model model, const sim::Platform& plat,
                           std::set<graph::OpKind> fallback = {}) {
  CompileOptions copts;
  copts.tune_trials = 8;
  copts.cpu_fallback_ops = std::move(fallback);
  return compile(std::move(model), plat, copts);
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  EXPECT_EQ(a.max_abs_diff(b), 0.0f) << what;
}

/// An arena run must reproduce the heap run: same output bits and the same
/// per-node charges, so the same serial sum and critical path.
void check_arena_matches_heap(const CompiledModel& cm, bool numerics) {
  RunOptions ropts;
  ropts.input_seed = 0x515;
  ropts.compute_numerics = numerics;
  const RunResult heap = cm.run(ropts);
  ropts.use_arena = true;
  const RunResult arena = cm.run(ropts);
  const std::string what = cm.model_name() + " arena";
  expect_bit_identical(arena.output, heap.output, what);
  EXPECT_DOUBLE_EQ(arena.latency_ms, arena.serial_ms) << what;
  EXPECT_DOUBLE_EQ(arena.serial_ms, heap.serial_ms) << what;
  EXPECT_DOUBLE_EQ(arena.critical_path_ms, heap.critical_path_ms) << what;
}

TEST(CompiledRun, ArenaMatchesHeapAcrossModels) {
  const sim::Platform& deeplens = sim::platform(sim::PlatformId::kDeepLens);
  const sim::Platform& nano = sim::platform(sim::PlatformId::kJetsonNano);
  Rng rng(0x5eed);
  check_arena_matches_heap(
      compile_fast(models::build_mobilenet(rng, 64), deeplens), true);
  check_arena_matches_heap(
      compile_fast(models::build_squeezenet(rng, 64), deeplens), true);
  check_arena_matches_heap(
      compile_fast(models::build_inception_v1(rng, 64), deeplens), true);
  check_arena_matches_heap(compile_fast(models::build_resnet50(rng, 64), nano),
                           true);
  check_arena_matches_heap(
      compile_fast(models::build_fcn_resnet50(rng, 64, 1, 5), nano), true);
  // Shapes-only is where placeholder handling matters: arena slabs are
  // deliberately left uninitialized because no op reads them. CPU fallback
  // adds device-copy nodes and a second execution lane.
  check_arena_matches_heap(
      compile_fast(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                   deeplens, {graph::OpKind::kSsdDetection}),
      false);
  check_arena_matches_heap(
      compile_fast(models::build_yolov3(rng, 128, 1, 20), deeplens,
                   {graph::OpKind::kYoloDecode, graph::OpKind::kBoxNms}),
      false);
}

TEST(CompiledRun, PeakIntermediateBytesRespectsPlan) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  for (CompiledModel cm :
       {compile_fast(models::build_inception_v1(rng, 64), plat),
        compile_fast(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                     plat, {graph::OpKind::kSsdDetection})}) {
    const int64_t plan_bytes = cm.memory_plan().total_bytes();
    RunOptions ropts;
    ropts.compute_numerics = false;
    ropts.use_arena = true;
    const RunResult r = cm.run(ropts);
    EXPECT_GT(r.peak_intermediate_bytes, 0) << cm.model_name();
    EXPECT_LE(r.peak_intermediate_bytes, plan_bytes) << cm.model_name();
    EXPECT_EQ(r.arena_bytes, plan_bytes) << cm.model_name();
  }
}

TEST(CompiledRun, CriticalPathNeverExceedsSerialSum) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  for (CompiledModel cm :
       {compile_fast(models::build_inception_v1(rng, 64), plat),
        compile_fast(models::build_mobilenet(rng, 64), plat)}) {
    const RunResult r = cm.run(0x515, false);
    EXPECT_DOUBLE_EQ(r.latency_ms, r.serial_ms);
    EXPECT_LE(r.critical_path_ms, r.serial_ms * (1.0 + 1e-12));
    EXPECT_GT(r.critical_path_ms, 0.0);
  }
}

TEST(CompiledRun, HeterogeneousGraphOverlapsLanes) {
  // With the YOLO decode heads on the companion CPU, decode of the shallow
  // scale and its device copies overlap remaining GPU backbone work in the
  // lane schedule, so the critical path must beat the serial sum strictly.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompiledModel cm =
      compile_fast(models::build_yolov3(rng, 128, 1, 20), plat,
                   {graph::OpKind::kYoloDecode, graph::OpKind::kBoxNms});
  const RunResult r = cm.run(0x515, false);
  EXPECT_LT(r.critical_path_ms, r.serial_ms);
}

TEST(CompiledRun, RepeatedArenaRunsAreDeterministic) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompiledModel cm = compile_fast(models::build_inception_v1(rng, 64), plat);
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.use_arena = true;
  const RunResult first = cm.run(ropts);
  for (int i = 0; i < 3; ++i) {
    const RunResult again = cm.run(ropts);  // reuses the serving arena
    expect_bit_identical(again.output, first.output, "repeat run");
    EXPECT_DOUBLE_EQ(again.latency_ms, first.latency_ms);
    EXPECT_EQ(again.arena_bytes, first.arena_bytes);
  }
  // Different seeds must still produce different inputs (the arena does not
  // leak one run's data into the next run's observable output).
  ropts.input_seed = 0x9999;
  ropts.compute_numerics = true;
  const RunResult other = cm.run(ropts);
  ropts.input_seed = 0x515;
  const RunResult base = cm.run(ropts);
  ASSERT_TRUE(other.output.shape() == base.output.shape());
  EXPECT_GT(other.output.max_abs_diff(base.output), 0.0f);
}

}  // namespace
}  // namespace igc
