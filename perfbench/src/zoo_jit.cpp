// zoo_jit: one client calls run() round-robin over InceptionV1@224,
// MobileNet1.0@224 and SSD_MobileNet1.0@300 (detection tail on the CPU),
// numerics on, JIT backend, sequential executor, model-wide arena. Each model
// sees one input per seed, so every round repeats the same three requests
// and the simulated mix is fixed for a given seed.
#include <cstdio>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

const std::vector<ModelShape> kZoo = {
    {Net::kInceptionV1, 224, 1},
    {Net::kMobileNet, 224, 1},
    {Net::kSsdMobileNet, 300, 1},
};

struct Zoo {
  std::vector<std::unique_ptr<igc::CompiledModel>> models;
  std::vector<igc::RunResult> first;  // warm-up result per model
  SetupStats stats;
};

igc::RunOptions run_options(const Args& args, size_t model) {
  igc::RunOptions o;
  o.input_seed = input_seed(args.seed, model, 0);
  o.compute_numerics = true;
  o.use_arena = true;
  return o;
}

/// One timed set-up: build and compile the zoo against an empty kernel cache,
/// then warm each model up with one run().
Zoo set_up(const Args& args) {
  Zoo z;
  const std::string cache = fresh_cache_dir(args);
  for (const ModelShape& shape : kZoo) {
    z.models.push_back(
        build_and_compile(shape, igc::Backend::kJit, cache, &z.stats));
  }
  for (size_t i = 0; i < z.models.size(); ++i) {
    z.first.push_back(z.models[i]->run(run_options(args, i)));
  }
  return z;
}

}  // namespace

Result run_zoo_jit(const Args& args) {
  Result out;
  // Set-up dominates a run (the JIT toolchain compiles three modules), so
  // the untraced run repeats it twice and reports the median.
  const int setups = args.trace ? 1 : 2;
  std::vector<double> setup_s;
  Zoo zoo;
  for (int k = 0; k < setups; ++k) {
    zoo = Zoo{};  // the previous set-up is torn down outside the timing
    const double t0 = now_ms();
    zoo = set_up(args);
    setup_s.push_back((now_ms() - t0) / 1000.0);
    std::printf("# set-up %d: %.3f s\n", k + 1, setup_s.back());
  }

  // First request of each model: the JIT output against the reference
  // operators, plus the output's own invariants.
  auto& dispatches = igc::obs::MetricsRegistry::global().counter("jit.dispatches");
  std::map<std::string, double> layer;
  double covered = 0.0, live = 0.0;
  for (size_t i = 0; i < kZoo.size(); ++i) {
    const igc::CompiledModel& cm = *zoo.models[i];
    const std::string what = net_name(kZoo[i].net);
    const igc::RunResult& got = zoo.first[i];
    out.check(what + " JIT module",
              cm.jit_enabled() ? "" : "no JIT module: " + cm.jit_error());
    igc::RunOptions ref = run_options(args, i);
    ref.backend = igc::RunBackend::kInterp;
    out.check(what + " JIT vs reference operators",
              check_identical(got.output, cm.run(ref).output));
    out.check(what + " output", check_model_output(kZoo[i].net, got.output));
    out.check(what + " simulated categories", check_sim_categories(got));
    layer["arena.planned_bytes"] += static_cast<double>(got.arena_bytes);
    layer["arena.live_peak_bytes"] +=
        static_cast<double>(got.peak_intermediate_bytes);
  }

  // Timed window: whole rounds, so the mix is exactly one third per model.
  const size_t n = zoo.models.size();
  std::vector<std::vector<double>> cpu(n), wall(n), cpu_traced(n);
  std::vector<std::vector<std::pair<double, double>>> wall_at(n);  // (start, ms)
  std::vector<igc::obs::TraceRecorder> recorders(n);
  LayerSplit split;
  int64_t completed = 0, fallback_reqs = 0;
  const double t_start = now_ms();
  const double c_start = cpu_ms();
  const double deadline = t_start + args.seconds * 1000.0;
  for (int64_t round = 0; now_ms() < deadline; ++round) {
    // Traced runs alternate with untraced rounds; only untraced rounds
    // feed the end-to-end figures.
    const bool traced = args.trace && round % 2 == 1;
    for (size_t i = 0; i < n; ++i) {
      igc::RunOptions o = run_options(args, i);
      if (traced) o.trace = &recorders[i];
      ++out.attempted;
      const int64_t d0 = dispatches.value();
      const double c0 = cpu_ms();
      const double w0 = now_ms();
      igc::RunResult r;
      try {
        r = zoo.models[i]->run(o);
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back(net_name(kZoo[i].net) + " run failed: " + e.what());
        continue;
      }
      const double w1 = now_ms();
      const double c1 = cpu_ms();
      const int64_t d1 = dispatches.value();
      ++completed;
      if (d1 == d0) ++fallback_reqs;
      // The input is fixed per model, so every output and simulated latency
      // must repeat the checked first one bit for bit.
      out.check(net_name(kZoo[i].net) + " output repeat",
                check_identical(r.output, zoo.first[i].output));
      if (r.latency_ms != zoo.first[i].latency_ms) {
        out.check(net_name(kZoo[i].net) + " simulated latency repeat",
                  std::to_string(r.latency_ms) + " ms after " +
                      std::to_string(zoo.first[i].latency_ms) + " ms");
      }
      out.check(net_name(kZoo[i].net) + " simulated categories",
                check_sim_categories(r));
      if (traced) {
        cpu_traced[i].push_back(c1 - c0);
        split.add(recorders[i], r, w1 - w0, /*numerics=*/true);
        covered += static_cast<double>(d1 - d0);
        live += static_cast<double>(recorders[i].spans().size());
      } else {
        cpu[i].push_back(c1 - c0);
        wall[i].push_back(w1 - w0);
        wall_at[i].emplace_back(w0, w1 - w0);
      }
    }
  }
  const double elapsed_ms = now_ms() - t_start;
  const double cpu_total = cpu_ms() - c_start;

  std::vector<double> cpu_p50, wall_p50, wall_p99, cpu_traced_p50;
  for (size_t i = 0; i < n; ++i) {
    cpu_p50.push_back(median(cpu[i]));
    wall_p50.push_back(median(wall[i]));
    wall_p99.push_back(
        sliced_quantile(wall_at[i], t_start, args.seconds * 1000.0, 0.99));
    if (args.trace) cpu_traced_p50.push_back(median(cpu_traced[i]));
    std::printf("# %s: %zu runs, cpu p50 %.2f ms, wall p50 %.2f ms, sim %.4f ms\n",
                net_name(kZoo[i].net).c_str(), cpu[i].size(), cpu_p50.back(),
                wall_p50.back(), zoo.first[i].latency_ms);
  }
  const double completed_d = static_cast<double>(completed > 0 ? completed : 1);
  // Whole rounds of repeating requests: the mean per completed request is
  // the mean over one round.
  double sim_ms = 0.0;
  for (const igc::RunResult& r : zoo.first) sim_ms += r.latency_ms;
  sim_ms /= static_cast<double>(n);
  if (!args.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("sim_ms", sim_ms, "ms");
    out.add("cpu_ms_p50", geomean(cpu_p50), "ms");
    out.add("cpu_ms_per_req", cpu_total / completed_d, "ms");
    out.add("act_peak_mib", layer["arena.planned_bytes"] / (1024.0 * 1024.0),
            "MiB");
    return out;
  }
  // Wall-clock figures of the untraced rounds.
  layer["host_ms_p50"] = geomean(wall_p50);
  double untraced_ms = 0.0, untraced_runs = 0.0;
  for (const auto& runs : wall) {
    for (double ms : runs) untraced_ms += ms;
    untraced_runs += static_cast<double>(runs.size());
  }
  layer["req_per_s"] = untraced_runs / (untraced_ms / 1000.0);
  layer["e2e_ms_p50"] = geomean(wall_p50);
  layer["e2e_ms_p99"] = geomean(wall_p99);
  layer["jit.node_coverage"] = live > 0.0 ? covered / live : 0.0;
  layer["jit.fallback_reqs"] = static_cast<double>(fallback_reqs);
  layer["obs.trace_overhead_pct"] =
      (geomean(cpu_traced_p50) / geomean(cpu_p50) - 1.0) * 100.0;
  add_layer_metrics(out, zoo.stats, split, layer);
  return out;
}

}  // namespace perfbench
