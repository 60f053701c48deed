// Tests for the top-level compile/run facade.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

CompileOptions fast_opts() {
  CompileOptions o;
  o.tune_trials = 24;
  return o;
}

TEST(Compiler, CompileAndRunClassification) {
  Rng rng(1);
  const auto& plat = sim::platform(sim::PlatformId::kJetsonNano);
  CompiledModel cm =
      compile(models::build_squeezenet(rng, 64, 1, 10), plat, fast_opts());
  EXPECT_EQ(cm.model_name(), "SqueezeNet1.0");
  EXPECT_GT(cm.tune_db().size(), 0u);
  const RunResult r = cm.run();
  EXPECT_EQ(r.output.shape(), Shape({1, 10}));
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_NEAR(r.conv_ms + r.vision_ms + r.copy_ms + r.other_ms, r.latency_ms,
              1e-6);
}

TEST(Compiler, RunIsDeterministicPerSeed) {
  Rng rng(2);
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  CompiledModel cm =
      compile(models::build_mobilenet(rng, 64, 1, 10), plat, fast_opts());
  const RunResult a = cm.run(7);
  const RunResult b = cm.run(7);
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  const RunResult c = cm.run(8);
  EXPECT_GT(c.output.max_abs_diff(a.output), 0.0f);  // different input
}

TEST(Compiler, SkipTuningIsSlower) {
  Rng rng(3);
  const auto& plat = sim::platform(sim::PlatformId::kAiSage);
  CompileOptions tuned = fast_opts();
  CompileOptions untuned = fast_opts();
  untuned.skip_tuning = true;
  CompiledModel a =
      compile(models::build_squeezenet(rng, 64, 1, 10), plat, tuned);
  Rng rng2(3);
  CompiledModel b =
      compile(models::build_squeezenet(rng2, 64, 1, 10), plat, untuned);
  EXPECT_LT(a.run(1, false).latency_ms, b.run(1, false).latency_ms);
  EXPECT_EQ(b.tune_db().size(), 0u);
}

TEST(Compiler, WarmDatabaseSkipsSearch) {
  Rng rng(4);
  const auto& plat = sim::platform(sim::PlatformId::kJetsonNano);
  CompiledModel first =
      compile(models::build_mobilenet(rng, 64, 1, 10), plat, fast_opts());
  // Second compile warm-started from the first's records: identical results.
  CompileOptions warm = fast_opts();
  warm.warm_db = &first.tune_db();
  Rng rng2(4);
  CompiledModel second =
      compile(models::build_mobilenet(rng2, 64, 1, 10), plat, warm);
  EXPECT_DOUBLE_EQ(first.run(1, false).latency_ms,
                   second.run(1, false).latency_ms);
}

TEST(Compiler, SkipTuningEmitsTheTemplatesItRuns) {
  // A warm database must not leak into a skip_tuning compile: its kernel
  // sources and its latency both come from the hand-written templates, the
  // same as a cold skip_tuning compile.
  const auto& plat = sim::platform(sim::PlatformId::kJetsonNano);
  CompileOptions tuned_opts;
  tuned_opts.tune_trials = 8;
  Rng rng(8);
  const CompiledModel tuned =
      compile(models::build_mobilenet(rng, 64, 1, 10), plat, tuned_opts);
  CompileOptions cold_opts;
  cold_opts.skip_tuning = true;
  Rng rng2(8);
  const CompiledModel cold =
      compile(models::build_mobilenet(rng2, 64, 1, 10), plat, cold_opts);
  CompileOptions warm_opts = cold_opts;
  warm_opts.warm_db = &tuned.tune_db();
  Rng rng3(8);
  const CompiledModel warm =
      compile(models::build_mobilenet(rng3, 64, 1, 10), plat, warm_opts);

  // Kernels whose source differs from the cold compile's.
  const auto cold_srcs = cold.generated_sources();
  const auto differing = [&](const CompiledModel& cm) {
    int n = 0;
    for (const auto& [key, src] : cm.generated_sources()) {
      n += cold_srcs.count(key) == 0 || cold_srcs.at(key) != src;
    }
    return n;
  };
  EXPECT_GT(differing(tuned), 0);  // the warm records are not templates
  EXPECT_EQ(differing(warm), 0);
  EXPECT_EQ(warm.generated_sources().size(), cold_srcs.size());
  EXPECT_DOUBLE_EQ(warm.run(1, false).latency_ms,
                   cold.run(1, false).latency_ms);
}

TEST(Compiler, CpuFallbackOptionPlacesOps) {
  Rng rng(5);
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  CompileOptions opts = fast_opts();
  opts.cpu_fallback_ops = {graph::OpKind::kSsdDetection};
  CompiledModel cm = compile(
      models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128), plat, opts);
  EXPECT_GT(cm.pass_stats().cpu_nodes, 1);  // input + the detection head
  const RunResult r = cm.run(1, false);
  EXPECT_GT(r.copy_ms, 0.0);
  EXPECT_EQ(r.output.shape()[2], 6);
}

TEST(Compiler, GeneratedSourcesMatchPlatformDialect) {
  Rng rng(6);
  CompiledModel nano = compile(models::build_squeezenet(rng, 64, 1, 10),
                               sim::platform(sim::PlatformId::kJetsonNano),
                               fast_opts());
  const auto cuda_srcs = nano.generated_sources();
  EXPECT_GT(cuda_srcs.size(), 10u);
  for (const auto& [key, src] : cuda_srcs) {
    EXPECT_NE(src.find("__global__"), std::string::npos) << key;
  }
  Rng rng2(6);
  CompiledModel intel = compile(models::build_squeezenet(rng2, 64, 1, 10),
                                sim::platform(sim::PlatformId::kDeepLens),
                                fast_opts());
  for (const auto& [key, src] : intel.generated_sources()) {
    EXPECT_NE(src.find("__kernel"), std::string::npos) << key;
  }
}

TEST(Compiler, MemoryPlanAvailable) {
  Rng rng(7);
  CompiledModel cm = compile(models::build_mobilenet(rng, 64, 1, 10),
                             sim::platform(sim::PlatformId::kAiSage),
                             fast_opts());
  const graph::MemoryPlan plan = cm.memory_plan();
  EXPECT_GT(plan.buffer_bytes.size(), 0u);
  EXPECT_LT(plan.total_bytes(), plan.unshared_bytes);
}

}  // namespace
}  // namespace igc
