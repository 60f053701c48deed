// Tests for transposed convolution and the FCN-8s segmentation model.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "ops/nn/conv2d.h"
#include "ops/nn/conv2d_transpose.h"
#include "sim/device_spec.h"

namespace igc::ops {
namespace {

TEST(Conv2dTranspose, ShapeArithmetic) {
  Conv2dTransposeParams p;
  p.in_h = p.in_w = 8;
  p.kernel = 4;
  p.stride = 2;
  p.pad = 1;
  EXPECT_EQ(p.out_h(), 16);
  p.kernel = 16;
  p.stride = 8;
  p.pad = 4;
  EXPECT_EQ(p.out_h(), 64);
}

TEST(Conv2dTranspose, Stride1IsCorrelationWithFullPad) {
  // k=1 s=1: a transposed conv is a plain per-pixel channel mix.
  Conv2dTransposeParams p;
  p.in_channels = 2;
  p.out_channels = 1;
  p.in_h = p.in_w = 3;
  p.kernel = 1;
  p.stride = 1;
  Tensor in = Tensor::from_vector(
      Shape{1, 2, 3, 3},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 60, 70, 80, 90});
  Tensor w = Tensor::from_vector(Shape{2, 1, 1, 1}, {2.0f, 0.5f});
  Tensor out = conv2d_transpose_reference(in, w, nullptr, p);
  EXPECT_FLOAT_EQ(out.data_f32()[0], 1 * 2.0f + 10 * 0.5f);
  EXPECT_FLOAT_EQ(out.data_f32()[8], 9 * 2.0f + 90 * 0.5f);
}

TEST(Conv2dTranspose, ScatterStampHandComputed) {
  // One input pixel, k=2 s=2: the output is the 2x2 kernel scaled by it.
  Conv2dTransposeParams p;
  p.in_channels = 1;
  p.out_channels = 1;
  p.in_h = p.in_w = 1;
  p.kernel = 2;
  p.stride = 2;
  Tensor in = Tensor::full(Shape{1, 1, 1, 1}, 3.0f);
  Tensor w = Tensor::from_vector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor out = conv2d_transpose_reference(in, w, nullptr, p);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.data_f32()[0], 3.0f);
  EXPECT_FLOAT_EQ(out.data_f32()[3], 12.0f);
}

TEST(Conv2dTranspose, BilinearWeightsUpsampleConstantExactly) {
  // Bilinear 2x upsampling of a constant image must stay constant in the
  // interior (k=4, s=2, p=1, FCN-style).
  const int64_t c = 3;
  Conv2dTransposeParams p;
  p.in_channels = p.out_channels = c;
  p.in_h = p.in_w = 6;
  p.kernel = 4;
  p.stride = 2;
  p.pad = 1;
  Tensor in = Tensor::full(Shape{1, c, 6, 6}, 2.0f);
  Tensor w = bilinear_upsample_weights(c, 4);
  Tensor out = conv2d_transpose_reference(in, w, nullptr, p);
  EXPECT_EQ(out.shape(), Shape({1, c, 12, 12}));
  // Interior pixels (away from the border halo) keep the constant.
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t y = 2; y < 10; ++y) {
      for (int64_t x = 2; x < 10; ++x) {
        EXPECT_NEAR(out.at4(0, ch, y, x), 2.0f, 1e-5f);
      }
    }
  }
}

TEST(Conv2dTranspose, BilinearWeightsInterpolateLinearRamp) {
  // Upsampling a ramp f(x)=x with bilinear weights keeps it linear inside.
  Conv2dTransposeParams p;
  p.in_channels = p.out_channels = 1;
  p.in_h = p.in_w = 8;
  p.kernel = 4;
  p.stride = 2;
  p.pad = 1;
  Tensor in = Tensor::zeros(Shape{1, 1, 8, 8});
  for (int64_t y = 0; y < 8; ++y) {
    for (int64_t x = 0; x < 8; ++x) {
      in.at4(0, 0, y, x) = static_cast<float>(x);
    }
  }
  Tensor w = bilinear_upsample_weights(1, 4);
  Tensor out = conv2d_transpose_reference(in, w, nullptr, p);
  // Interior columns advance by 0.5 per output pixel.
  for (int64_t x = 4; x < 11; ++x) {
    const float delta = out.at4(0, 0, 8, x + 1) - out.at4(0, 0, 8, x);
    EXPECT_NEAR(delta, 0.5f, 1e-5f);
  }
}

TEST(Conv2dTranspose, CostModelSane) {
  Conv2dTransposeParams p;
  p.in_channels = 21;
  p.out_channels = 21;
  p.in_h = p.in_w = 28;
  p.kernel = 4;
  p.stride = 2;
  p.pad = 1;
  for (const auto& plat : sim::all_platforms()) {
    const auto k = conv2d_transpose_kernel_cost(p, plat.gpu);
    EXPECT_GT(k.flops, 0);
    EXPECT_GT(sim::estimate_latency_ms(plat.gpu, k), 0.0);
  }
}

}  // namespace
}  // namespace igc::ops

namespace igc::models {
namespace {

TEST(Fcn, StructureAndShapes) {
  Rng rng(1);
  Model m = build_fcn_resnet50(rng, 224, 1, 21);
  EXPECT_EQ(m.name, "FCN8s_ResNet50");
  // Full-resolution per-pixel logits.
  EXPECT_EQ(m.graph.node(m.graph.output()).out_shape, Shape({1, 21, 224, 224}));
  int deconvs = 0;
  for (const auto& n : m.graph.nodes()) {
    if (n.kind == graph::OpKind::kConv2dTranspose) ++deconvs;
  }
  EXPECT_EQ(deconvs, 3);  // 2x, 2x, 8x
  EXPECT_THROW(build_fcn_resnet50(rng, 100), Error);  // not 32-aligned
}

TEST(Fcn, ExecutesEndToEndOnSimulator) {
  Rng rng(2);
  Model m = build_fcn_resnet50(rng, 64, 1, 5);
  graph::optimize(m.graph);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kAiSage);
  const auto schedules =
      graphtune::resolve_conv_schedules(m.graph, plat.gpu, {}, nullptr);
  graph::ExecOptions opts;
  opts.compute_numerics = true;  // small input: full numerics
  opts.conv_schedules = &schedules;
  Rng in_rng(3);
  const auto r = graph::execute(m.graph, plat, opts, in_rng);
  EXPECT_EQ(r.output.shape(), Shape({1, 5, 64, 64}));
  EXPECT_GT(r.latency_ms, 0.0);
  // Logits are finite everywhere.
  for (float v : r.output.span_f32()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace igc::models
