// Graph-level ROIAlign: a two-stage-detector-style ROI head through the
// executor, on GPU and on the CPU fallback.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/common.h"
#include "ops/vision/roi_align.h"
#include "sim/device_spec.h"

namespace igc::graph {
namespace {

/// Backbone conv -> ROIAlign over fixed proposals -> per-ROI classifier.
Graph roi_head_graph(Rng& rng, Tensor* rois_out) {
  Graph g;
  const int img = g.add_input("data", Shape{1, 3, 32, 32});
  const int feat = models::conv_bn_act(g, rng, "backbone", img, 8, 3, 1, 1);
  const int rois = g.add_input("rois", Shape{3, 5});
  ops::RoiAlignParams rp;
  rp.pooled_h = rp.pooled_w = 4;
  const int pooled = g.add_roi_align("roi_align", feat, rois, rp);
  g.set_output(pooled);
  if (rois_out) {
    *rois_out = Tensor::from_vector(
        Shape{3, 5},
        {0, 2, 2, 20, 20, 0, 0, 0, 31, 31, 0, 8, 10, 18, 25});
  }
  return g;
}

/// Executes `g` with the template conv schedules.
ExecResult run(const Graph& g, sim::PlatformId id, uint64_t seed) {
  const sim::Platform& plat = sim::platform(id);
  const auto schedules =
      graphtune::resolve_conv_schedules(g, plat.gpu, {}, nullptr);
  ExecOptions opts;
  opts.conv_schedules = &schedules;
  Rng in_rng(seed);
  return execute(g, plat, opts, in_rng);
}

TEST(RoiGraph, ShapesAndExecution) {
  Rng rng(1);
  Graph g = roi_head_graph(rng, nullptr);
  EXPECT_EQ(g.node(g.output()).out_shape, Shape({3, 8, 4, 4}));
  optimize(g);
  const ExecResult r = run(g, sim::PlatformId::kJetsonNano, 2);
  EXPECT_EQ(r.output.shape(), Shape({3, 8, 4, 4}));
  EXPECT_GT(r.vision_ms, 0.0);
  for (float v : r.output.span_f32()) EXPECT_TRUE(std::isfinite(v));
}

TEST(RoiGraph, CpuFallbackMatchesGpu) {
  Rng rng1(3), rng2(3);
  Graph gpu_g = roi_head_graph(rng1, nullptr);
  Graph cpu_g = roi_head_graph(rng2, nullptr);
  optimize(gpu_g);
  optimize(cpu_g, {OpKind::kRoiAlign});
  const auto a = run(gpu_g, sim::PlatformId::kDeepLens, 4);
  const auto b = run(cpu_g, sim::PlatformId::kDeepLens, 4);
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
}

TEST(RoiGraph, RejectsMalformedRois) {
  Rng rng(5);
  Graph g;
  const int img = g.add_input("data", Shape{1, 3, 16, 16});
  const int feat = models::conv_bn_act(g, rng, "c", img, 4, 3, 1, 1);
  const int bad_rois = g.add_input("rois", Shape{3, 4});  // needs 5 columns
  ops::RoiAlignParams rp;
  EXPECT_THROW(g.add_roi_align("roi", feat, bad_rois, rp), Error);
}

TEST(GraphSummary, ListsLiveNodesWithPlacement) {
  Rng rng(6);
  Graph g = roi_head_graph(rng, nullptr);
  optimize(g);
  const std::string s = g.summary();
  EXPECT_NE(s.find("roi_align"), std::string::npos);
  EXPECT_NE(s.find("conv2d"), std::string::npos);
  EXPECT_NE(s.find("gpu"), std::string::npos);
  // Folded scale-shift nodes are hidden (dead after bypass).
  EXPECT_EQ(s.find("scale_shift"), std::string::npos);
}

}  // namespace
}  // namespace igc::graph
