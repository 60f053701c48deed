#include "core/compiler.h"

#include <chrono>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/jit_lower.h"
#include "core/error.h"
#include "graph/shape_infer.h"
#include "graphtune/graph_tuner.h"
#include "obs/metrics.h"
#include "ops/nn/conv2d.h"

namespace igc {

CompiledModel compile(models::Model model, const sim::Platform& platform,
                      const CompileOptions& opts) {
  CompiledModel cm;
  cm.name_ = model.name;
  cm.platform_ = &platform;
  cm.graph_ = std::move(model.graph);
  graph::PassPipelineOptions popts;
  popts.validate_after_each = opts.validate_after_each_pass;
  popts.dump_graph_after = opts.dump_graph_after;
  popts.dump_stream = opts.dump_stream;
  const graph::PassPipeline pipeline = graph::build_pipeline(
      opts.pass_names, opts.disabled_passes, opts.cpu_fallback_ops,
      std::move(popts));
  cm.pass_report_ = pipeline.run(cm.graph_);
  // Whatever the pipeline, the compiled graph is compact: every node reaches
  // the output. A no-op after the default pipeline (dce and place compact).
  const int compacted = graph::dead_node_elimination_pass(cm.graph_);
  cm.pass_stats_ = graph::pass_stats_from(cm.pass_report_, cm.graph_);
  cm.pass_stats_.removed_dead_nodes += compacted;
  if (opts.warm_db != nullptr) cm.db_ = *opts.warm_db;
  cm.tuned_ = !opts.skip_tuning;
  if (!opts.skip_tuning) {
    tune::TuneOptions topts;
    topts.n_trials = opts.tune_trials;
    topts.strategy = opts.strategy;
    topts.journal = opts.tune_journal;
    const graphtune::GraphTuneResult layouts =
        graphtune::tune_graph_layouts(cm.graph_, platform.gpu, cm.db_, topts);
    cm.layouts_ = layouts.layout_of_conv;
  }

  // Resolve every conv's schedule once, here, so runs never look one up.
  cm.conv_schedules_ = graphtune::resolve_conv_schedules(
      cm.graph_, platform.gpu, cm.layouts_, cm.tuned_ ? &cm.db_ : nullptr);

  // Plan memory once. Buffer assignment depends only on liveness, so every
  // dynamic-shape binding reuses this plan with re-resolved sizes — zero
  // replanning at run time (the graph.plan.plans metric stays flat).
  cm.plan_ =
      std::make_shared<const graph::MemoryPlan>(graph::plan_memory(cm.graph_));

  if (opts.backend == Backend::kJit) {
    auto& cache = codegen::jit::KernelCache::shared(opts.kernel_cache_dir);
    codegen::jit::LowerResult lr = codegen::jit::build_dispatch_table(
        cm.graph_, cache, opts.compile_trace);
    cm.jit_ = lr.table;
    cm.jit_kernels_ = lr.kernels;
    cm.jit_nodes_covered_ = lr.nodes_covered;
    cm.jit_error_ = lr.error;
  }
  return cm;
}

RunResult CompiledModel::run(const RunOptions& opts) const {
  // Resolve the shape binding first: a non-seed (batch, hw) runs the cached
  // variant — rebound graph, re-resolved buffer sizes over the same buffer
  // assignment, pre-resolved conv schedules. The seed binding runs the
  // compiled graph exactly as before.
  const graph::ShapeSpec& spec = graph_.shape_spec();
  const ShapeVariant* variant = resolve_variant(opts.batch, opts.input_hw);
  const graph::Graph& run_graph = variant != nullptr ? variant->graph : graph_;
  const int64_t bound_batch =
      variant != nullptr ? variant->batch : spec.seed_batch;
  const int64_t bound_hw = variant != nullptr ? variant->hw : spec.seed_hw;

  graph::ExecOptions eopts;
  eopts.compute_numerics = opts.compute_numerics;
  eopts.conv_schedules =
      variant != nullptr ? &variant->conv_schedules : &conv_schedules_;
  eopts.use_arena = opts.use_arena;
  eopts.trace = opts.trace;
  // JIT kernels are specialized to the seed shapes; non-seed bindings take
  // the reference path (bit-identical numerics, host time only).
  if (opts.backend != RunBackend::kInterp && variant == nullptr) {
    eopts.jit = jit_.get();
  }
  if (opts.trace != nullptr) {
    obs::TraceMeta meta;
    meta.model = name_;
    meta.platform = platform_->name;
    meta.arena = opts.use_arena || opts.serving_context != nullptr;
    opts.trace->begin(std::move(meta));
  }

  std::unique_lock<std::mutex> serving_lock;
  if (opts.serving_context != nullptr) {
    // A worker-private context: the caller guarantees exclusivity, so no
    // model-wide lock — this is what lets a serving pool run one model
    // concurrently across workers.
    IGC_CHECK(opts.serving_context->batch_ == bound_batch &&
              opts.serving_context->hw_ == bound_hw)
        << "RunOptions shape binding (batch " << bound_batch << ", hw "
        << bound_hw << ") does not match the serving context's (batch "
        << opts.serving_context->batch_ << ", hw "
        << opts.serving_context->hw_
        << ") — build the context with make_serving_context(batch, hw, pool)";
    eopts.use_arena = true;
    eopts.plan = &opts.serving_context->plan_;
    eopts.arena = opts.serving_context->arena_.get();
  } else if (opts.use_arena) {
    // Arena runs share one set of buffers, so they serialize on the model.
    // The arena itself is built once; a binding change re-sizes its planned
    // buffers in place (pages are reused where they still fit).
    serving_lock = std::unique_lock<std::mutex>(serving_->mu);
    const graph::MemoryPlan* use_plan =
        variant != nullptr ? &variant->plan : plan_.get();
    const std::pair<int64_t, int64_t> binding{bound_batch, bound_hw};
    if (serving_->arena == nullptr) {
      serving_->arena = std::make_unique<BufferArena>(use_plan->buffer_bytes);
      serving_->arena_binding = binding;
    } else if (serving_->arena_binding != binding) {
      serving_->arena->rebind(use_plan->buffer_bytes);
      serving_->arena_binding = binding;
    }
    eopts.plan = use_plan;
    eopts.arena = serving_->arena.get();
  }

  Rng rng(opts.input_seed);
  const auto host_t0 = std::chrono::steady_clock::now();
  const graph::ExecResult r =
      graph::execute(run_graph, *platform_, eopts, rng);
  const double host_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - host_t0)
                             .count();
  RunResult out;
  out.output = r.output;
  out.latency_ms = r.latency_ms;
  out.serial_ms = r.serial_ms;
  out.critical_path_ms = r.critical_path_ms;
  out.conv_ms = r.conv_ms;
  out.vision_ms = r.vision_ms;
  out.copy_ms = r.copy_ms;
  out.fallback_ms = r.fallback_ms;
  out.other_ms = r.other_ms;
  out.peak_intermediate_bytes = r.peak_intermediate_bytes;
  out.arena_bytes = r.arena_bytes;
  out.arena_page_bytes = r.arena_page_bytes;
  out.counters = r.counters;

  // Serving telemetry: every run() feeds the process-wide latency families,
  // so a sampler or /metrics scrape can watch tail latency on a live
  // endpoint. run.latency_ms and the per-category families are simulated
  // times (deterministic per run); run.host_ms is real wall clock (the only
  // non-deterministic metric a run records).
  auto& m = obs::MetricsRegistry::global();
  static auto& run_latency = m.histogram("run.latency_ms");
  static auto& run_host = m.histogram("run.host_ms");
  static auto& run_conv = m.histogram("run.conv_ms");
  static auto& run_vision = m.histogram("run.vision_ms");
  static auto& run_copy = m.histogram("run.copy_ms");
  static auto& run_fallback = m.histogram("run.fallback_ms");
  static auto& run_other = m.histogram("run.other_ms");
  run_latency.observe(out.latency_ms);
  run_host.observe(host_ms);
  run_conv.observe(out.conv_ms);
  run_vision.observe(out.vision_ms);
  run_copy.observe(out.copy_ms);
  run_fallback.observe(out.fallback_ms);
  run_other.observe(out.other_ms);
  return out;
}

RunResult CompiledModel::run(uint64_t input_seed, bool compute_numerics) const {
  RunOptions opts;
  opts.input_seed = input_seed;
  opts.compute_numerics = compute_numerics;
  return run(opts);
}

RunResult CompiledModel::run(int64_t batch, int64_t input_hw,
                             const RunOptions& opts) const {
  RunOptions o = opts;
  o.batch = batch;
  o.input_hw = input_hw;
  return run(o);
}

graph::MemoryPlan CompiledModel::memory_plan() const { return *plan_; }

const CompiledModel::ShapeVariant* CompiledModel::resolve_variant(
    int64_t batch, int64_t input_hw) const {
  const graph::ShapeSpec& spec = graph_.shape_spec();
  const int64_t b = batch == 0 ? spec.seed_batch : batch;
  const int64_t hw = input_hw;
  if (b == spec.seed_batch && (hw == 0 || hw == spec.seed_hw)) return nullptr;
  graph::validate_binding(spec, b, hw);
  const std::pair<int64_t, int64_t> key{b, hw == 0 ? spec.seed_hw : hw};

  std::lock_guard<std::mutex> lock(serving_->variants_mu);
  auto it = serving_->variants.find(key);
  if (it != serving_->variants.end()) return it->second.get();

  auto v = std::make_unique<ShapeVariant>();
  v->batch = key.first;
  v->hw = key.second;
  v->graph = graph::rebind_shapes(graph_, b, hw == spec.seed_hw ? 0 : hw);
  // Same buffer assignment, re-resolved sizes — no plan_memory() call.
  v->plan = *plan_;
  v->plan.buffer_bytes = graph::resolve_buffer_bytes(*plan_, v->graph);
  v->plan.unshared_bytes = 0;
  for (const graph::Node& n : v->graph.nodes()) {
    if (v->plan.buffer_of_node[static_cast<size_t>(n.id)] >= 0) {
      v->plan.unshared_bytes += n.out_shape.numel() * 4;
    }
  }
  // Conv schedules for the rebound workloads, by the same rule compile()
  // used (lookup only — no tuning trials happen here).
  v->conv_schedules = graphtune::resolve_conv_schedules(
      v->graph, platform_->gpu, layouts_, tuned_ ? &db_ : nullptr);
  const ShapeVariant* raw = v.get();
  serving_->variants.emplace(key, std::move(v));
  return raw;
}

int64_t ServingContext::arena_bytes() const {
  return arena_ == nullptr ? 0 : arena_->capacity_bytes();
}

int64_t ServingContext::arena_page_bytes() const {
  return arena_ == nullptr ? 0 : arena_->page_bytes_held();
}

const std::shared_ptr<PagePool>& ServingContext::page_pool() const {
  return arena_->pool();
}

std::shared_ptr<PagePool> CompiledModel::page_pool() const {
  std::lock_guard<std::mutex> lock(serving_->variants_mu);
  if (serving_->pool == nullptr) serving_->pool = std::make_shared<PagePool>();
  return serving_->pool;
}

std::unique_ptr<ServingContext> CompiledModel::make_serving_context() const {
  return make_serving_context(0, 0, nullptr);
}

std::unique_ptr<ServingContext> CompiledModel::make_serving_context(
    int64_t batch, int64_t input_hw, std::shared_ptr<PagePool> pool) const {
  const graph::ShapeSpec& spec = graph_.shape_spec();
  const ShapeVariant* variant = resolve_variant(batch, input_hw);
  auto ctx = std::unique_ptr<ServingContext>(new ServingContext());
  ctx->plan_ = variant != nullptr ? variant->plan : *plan_;
  ctx->batch_ = variant != nullptr ? variant->batch : spec.seed_batch;
  ctx->hw_ = variant != nullptr ? variant->hw : spec.seed_hw;
  PagedArena::Options aopts;
  aopts.cache_runs = false;  // pages return to the shared pool per request
  ctx->arena_ = std::make_unique<BufferArena>(
      ctx->plan_.buffer_bytes,
      pool != nullptr ? std::move(pool) : page_pool(), aopts);
  return ctx;
}

std::vector<std::string> CompiledModel::pass_pipeline() const {
  std::vector<std::string> names;
  names.reserve(pass_report_.size());
  for (const auto& st : pass_report_) names.push_back(st.pass);
  return names;
}

std::map<std::string, std::string> CompiledModel::generated_sources() const {
  std::map<std::string, std::string> out;
  for (int id : graph_.conv_node_ids()) {
    const auto& p = graph_.node(id).conv;
    if (p.groups != 1) continue;  // IR lowering covers non-grouped conv
    const std::string key = p.workload_key();
    if (out.count(key)) continue;
    tune::ScheduleConfig cfg = conv_schedules_.at(id);
    // The IR lowering tiles along oc/ow; fall back to safe divisors if the
    // tuned tiles do not divide (remainder handling is a codegen TODO).
    auto fix_tile = [&](const char* knob, int64_t extent) {
      int64_t t = cfg.get_or(knob, 1);
      if (t <= 0 || extent % t != 0) cfg.set(knob, 1);
    };
    fix_tile("tile_oc", p.out_channels);
    fix_tile("tile_ow", p.out_w());
    const ir::LoweredKernel kernel = ops::conv2d_build_ir(p, cfg);
    out.emplace(key, codegen::emit_for_device(kernel, platform_->gpu));
  }
  return out;
}

}  // namespace igc
