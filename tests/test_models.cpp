// Structural tests of the model zoo: conv counts, FLOP totals, output
// shapes, and small-size end-to-end execution.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"

namespace igc::models {
namespace {

TEST(ResNet50, StructureAndFlops) {
  Rng rng(1);
  Model m = build_resnet50(rng);
  EXPECT_EQ(m.name, "ResNet50_v1");
  // 1 stem + 16 blocks x 3 convs + 4 projection convs = 53 convs.
  EXPECT_EQ(m.graph.conv_node_ids().size(), 53u);
  // ~4.1 GMACs at 224x224 = ~8.2 GFLOPs with multiply-add counted as 2.
  const double gflops = static_cast<double>(m.graph.total_conv_flops()) / 1e9;
  EXPECT_NEAR(gflops, 8.2, 0.6);
  EXPECT_EQ(m.graph.node(m.graph.output()).out_shape, Shape({1, 1000}));
}

TEST(MobileNet, StructureAndFlops) {
  Rng rng(2);
  Model m = build_mobilenet(rng);
  // 1 stem + 13 x (depthwise + pointwise) = 27 convs.
  EXPECT_EQ(m.graph.conv_node_ids().size(), 27u);
  const double gflops = static_cast<double>(m.graph.total_conv_flops()) / 1e9;
  EXPECT_NEAR(gflops, 1.1, 0.2);  // 0.57 GMACs
  int depthwise = 0;
  for (int id : m.graph.conv_node_ids()) {
    if (m.graph.node(id).conv.is_depthwise()) ++depthwise;
  }
  EXPECT_EQ(depthwise, 13);
}

TEST(SqueezeNet, StructureAndFlops) {
  Rng rng(3);
  Model m = build_squeezenet(rng);
  // conv1 + 8 fires x 3 + conv10 = 26 convs.
  EXPECT_EQ(m.graph.conv_node_ids().size(), 26u);
  const double gflops = static_cast<double>(m.graph.total_conv_flops()) / 1e9;
  EXPECT_NEAR(gflops, 1.7, 0.6);
  EXPECT_EQ(m.graph.node(m.graph.output()).out_shape, Shape({1, 1000}));
}

TEST(Ssd, MobileNetBackboneStructure) {
  Rng rng(4);
  Model m = build_ssd(rng, SsdBackbone::kMobileNet, 512);
  EXPECT_EQ(m.name, "SSD_MobileNet1.0");
  const auto& out = m.graph.node(m.graph.output());
  EXPECT_EQ(out.kind, graph::OpKind::kSsdDetection);
  EXPECT_EQ(out.out_shape[2], 6);
  // Seven scales -> 14 head convs on top of the backbone.
  EXPECT_GT(m.graph.conv_node_ids().size(), 27u + 14u);
  // Anchor count matches the head shapes; SSD512 has ~24.5k anchors.
  EXPECT_EQ(out.anchors.shape()[0], out.out_shape[1]);
  EXPECT_GT(out.out_shape[1], 20000);
  EXPECT_LT(out.out_shape[1], 30000);
}

TEST(Ssd, ResNetBackboneAndSmallInput) {
  Rng rng(5);
  Model m = build_ssd(rng, SsdBackbone::kResNet50, 300);
  EXPECT_EQ(m.name, "SSD_ResNet50");
  m.graph.validate();
  const auto& out = m.graph.node(m.graph.output());
  EXPECT_EQ(out.anchors.shape()[0], out.out_shape[1]);
}

TEST(Yolov3, StructureAndHeads) {
  Rng rng(6);
  Model m = build_yolov3(rng, 512);
  int decodes = 0, nms = 0;
  for (const auto& n : m.graph.nodes()) {
    if (n.kind == graph::OpKind::kYoloDecode) ++decodes;
    if (n.kind == graph::OpKind::kBoxNms) ++nms;
  }
  EXPECT_EQ(decodes, 3);
  EXPECT_EQ(nms, 1);
  // Darknet-53 has 52 convs; heads add more.
  EXPECT_GT(m.graph.conv_node_ids().size(), 60u);
  // Anchor count: (16^2 + 32^2 + 64^2) * 3 at 512 input.
  EXPECT_EQ(m.graph.node(m.graph.output()).out_shape[1],
            3 * (16 * 16 + 32 * 32 + 64 * 64));
  EXPECT_THROW(build_yolov3(rng, 300), Error);  // not divisible by 32
}

TEST(Zoo, BuildAllBothInputRegimes) {
  Rng rng(7);
  const auto large = build_all(rng, false);
  EXPECT_EQ(large.size(), 6u);
  Rng rng2(8);
  const auto small = build_all(rng2, true);
  // Detection inputs shrink on the Mali platform (Table 2 note).
  EXPECT_EQ(small[3].graph.node(0).out_shape[2], 300);
  EXPECT_EQ(large[3].graph.node(0).out_shape[2], 512);
  EXPECT_EQ(small[5].graph.node(0).out_shape[2], 320);
}

TEST(Zoo, ClassificationModelsExecuteNumerically) {
  // Tiny input keeps the reference conv fast while touching every op kind.
  Rng rng(9);
  Model m = build_mobilenet(rng, /*image_size=*/64, 1, 10);
  graph::optimize(m.graph);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const auto schedules =
      graphtune::resolve_conv_schedules(m.graph, plat.gpu, {}, nullptr);
  graph::ExecOptions opts;
  opts.conv_schedules = &schedules;
  Rng in_rng(10);
  const auto r = graph::execute(m.graph, plat, opts, in_rng);
  EXPECT_EQ(r.output.shape(), Shape({1, 10}));
  double sum = 0.0;
  for (float v : r.output.span_f32()) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Zoo, DeterministicConstruction) {
  Rng a(42), b(42);
  Model ma = build_squeezenet(a);
  Model mb = build_squeezenet(b);
  ASSERT_EQ(ma.graph.num_nodes(), mb.graph.num_nodes());
  for (int i = 0; i < ma.graph.num_nodes(); ++i) {
    const auto& na = ma.graph.node(i);
    const auto& nb = mb.graph.node(i);
    EXPECT_EQ(na.kind, nb.kind);
    if (na.weight.defined()) {
      EXPECT_EQ(na.weight.max_abs_diff(nb.weight), 0.0f);
    }
  }
}

}  // namespace
}  // namespace igc::models
