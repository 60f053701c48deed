// Timed model set-up and the per-layer report shared by every workload.
#include <atomic>
#include <filesystem>

#include "bench.h"
#include "core/rng.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"

namespace perfbench {

namespace {

/// Weights are part of the model, not of the workload's inputs: every build
/// uses this seed, whatever the run seed.
constexpr uint64_t kWeightSeed = 0x5eed;

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

std::string net_name(Net n) {
  switch (n) {
    case Net::kInceptionV1: return "InceptionV1";
    case Net::kMobileNet: return "MobileNet1.0";
    case Net::kSsdMobileNet: return "SSD_MobileNet1.0";
  }
  return "?";
}

int64_t net_classes(Net n) { return n == Net::kSsdMobileNet ? 20 : 1000; }

bool net_is_detector(Net n) { return n == Net::kSsdMobileNet; }

std::unique_ptr<igc::CompiledModel> build_and_compile(
    const ModelShape& shape, igc::Backend backend,
    const std::string& kernel_cache_dir, SetupStats* stats) {
  auto& reg = igc::obs::MetricsRegistry::global();
  auto& trials = reg.counter("tune.trials");
  auto& invocations = reg.counter("jit.toolchain_invocations");
  auto& toolchain = reg.histogram("jit.toolchain_ms");
  const int64_t trials0 = trials.value();
  const int64_t invocations0 = invocations.value();
  const double toolchain0 = toolchain.sum();

  const double t0 = now_ms();
  igc::Rng rng(kWeightSeed);
  igc::models::Model model;
  switch (shape.net) {
    case Net::kInceptionV1:
      model = igc::models::build_inception_v1(rng, shape.image, shape.batch);
      break;
    case Net::kMobileNet:
      model = igc::models::build_mobilenet(rng, shape.image, shape.batch);
      break;
    case Net::kSsdMobileNet:
      model = igc::models::build_ssd(rng, igc::models::SsdBackbone::kMobileNet,
                                     shape.image, shape.batch);
      break;
  }
  const double t1 = now_ms();
  igc::CompileOptions copts;
  copts.backend = backend;
  copts.kernel_cache_dir = kernel_cache_dir;
  if (net_is_detector(shape.net)) {
    copts.cpu_fallback_ops = {igc::graph::OpKind::kSsdDetection};
  }
  auto cm = std::make_unique<igc::CompiledModel>(igc::compile(
      std::move(model), igc::sim::platform(igc::sim::PlatformId::kDeepLens),
      copts));
  const double t2 = now_ms();

  if (stats != nullptr) {
    stats->build_ms += t1 - t0;
    stats->compile_ms += t2 - t1;
    for (const auto& pass : cm->pass_report()) stats->passes_ms += pass.wall_ms;
    stats->tune_trials += trials.value() - trials0;
    stats->toolchain_invocations += invocations.value() - invocations0;
    stats->toolchain_ms += toolchain.sum() - toolchain0;
    stats->jit_kernels += cm->jit_kernels();
  }
  return cm;
}

std::string fresh_cache_dir(const Args& args) {
  static std::atomic<int> next{0};
  const std::string dir =
      args.workdir + "/kcache-" + std::to_string(next.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t input_seed(uint64_t run_seed, uint64_t stream, uint64_t index) {
  igc::Rng rng(run_seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull +
               index);
  return rng.next_u64();
}

// ----- traced per-layer split -----------------------------------------------

void LayerSplit::add(const igc::obs::TraceRecorder& rec,
                     const igc::RunResult& r, double run_wall_ms,
                     bool numerics) {
  ++runs;
  wall_ms += run_wall_ms;
  for (const auto& span : rec.spans()) {
    const double ms = (span.host_end_us - span.host_start_us) / 1000.0;
    op_host_ms[span.op] += ms;
    span_ms += ms;
    if (numerics && span.op == "conv2d") {
      conv_flops += static_cast<double>(span.counters.flops);
    }
  }
  sim_conv_ms += r.conv_ms;
  sim_vision_ms += r.vision_ms;
  sim_copy_ms += r.copy_ms;
  sim_fallback_ms += r.fallback_ms;
  sim_other_ms += r.other_ms;
}

const std::vector<std::string>& reported_ops() {
  static const std::vector<std::string> ops = {
      "conv2d", "pool2d",  "concat",          "dense",         "softmax",
      "add",    "activation", "global_avg_pool", "ssd_detection", "device_copy"};
  return ops;
}

void add_layer_metrics(Result& out, const SetupStats& setup,
                       const LayerSplit& split,
                       const std::map<std::string, double>& values) {
  auto value = [&](const std::string& name) {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  const double runs = split.runs > 0 ? static_cast<double>(split.runs) : 1.0;
  auto op_ms = [&](const std::string& op) {
    auto it = split.op_host_ms.find(op);
    return it == split.op_host_ms.end() ? 0.0 : it->second;
  };

  out.add("setup.build_ms", setup.build_ms, "ms");
  out.add("setup.compile_ms", setup.compile_ms, "ms");
  out.add("setup.passes_ms", setup.passes_ms, "ms");
  out.add("tune.trials", static_cast<double>(setup.tune_trials), "count");
  out.add("jit.toolchain_ms", setup.toolchain_ms, "ms");
  out.add("jit.toolchain_invocations",
          static_cast<double>(setup.toolchain_invocations), "count");
  out.add("jit.kernels", static_cast<double>(setup.jit_kernels), "count");
  out.add("jit.node_coverage", value("jit.node_coverage"), "ratio");
  out.add("jit.fallback_reqs", value("jit.fallback_reqs"), "count");
  for (const std::string& op : reported_ops()) {
    out.add("exec." + op + ".host_ms", op_ms(op) / runs, "ms");
  }
  const double conv_ms = op_ms("conv2d");
  out.add("exec.conv2d.gflops",
          conv_ms > 0.0 ? split.conv_flops / (conv_ms * 1e6) : 0.0, "GFLOP/s");
  out.add("exec.overhead_ms", (split.wall_ms - split.span_ms) / runs, "ms");
  out.add("sim.conv_ms", split.sim_conv_ms / runs, "ms");
  out.add("sim.vision_ms", split.sim_vision_ms / runs, "ms");
  out.add("sim.copy_ms", split.sim_copy_ms / runs, "ms");
  out.add("sim.fallback_ms", split.sim_fallback_ms / runs, "ms");
  out.add("sim.other_ms", split.sim_other_ms / runs, "ms");
  out.add("sim.variant_over_static", value("sim.variant_over_static"),
          "ratio");
  const double planned = value("arena.planned_bytes");
  const double live = value("arena.live_peak_bytes");
  out.add("arena.planned_mib", mib(planned), "MiB");
  out.add("arena.live_peak_mib", mib(live), "MiB");
  out.add("arena.plan_over_live", live > 0.0 ? planned / live : 0.0, "ratio");
  out.add("pool.peak_mib", mib(value("pool.peak_bytes")), "MiB");
  out.add("pool.page_allocs_per_req", value("pool.page_allocs_per_req"),
          "count");
  out.add("serve.queue_wait_ms_p50", value("serve.queue_wait_ms_p50"), "ms");
  out.add("serve.queue_wait_ms_p99", value("serve.queue_wait_ms_p99"), "ms");
  out.add("serve.dispatch_wait_ms_p50", value("serve.dispatch_wait_ms_p50"),
          "ms");
  out.add("serve.service_ms_p50", value("serve.service_ms_p50"), "ms");
  out.add("serve.batch_size_mean", value("serve.batch_size_mean"), "count");
  out.add("serve.queue_depth_peak", value("serve.queue_depth_peak"), "count");
  out.add("serve.worker_busy_pct", value("serve.worker_busy_pct"), "%");
  out.add("gen.late_ms_p99", value("gen.late_ms_p99"), "ms");
  out.add("obs.trace_overhead_pct", value("obs.trace_overhead_pct"), "%");
  // Wall-clock end-to-end figures: reported, not gated (see README.md).
  out.add("host_ms_p50", value("host_ms_p50"), "ms");
  out.add("req_per_s", value("req_per_s"), "1/s");
  out.add("e2e_ms_p50", value("e2e_ms_p50"), "ms");
  out.add("e2e_ms_p99", value("e2e_ms_p99"), "ms");
}

}  // namespace perfbench
