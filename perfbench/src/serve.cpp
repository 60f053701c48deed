// serve_paced and serve_host: the two ServingEngine workloads.
//
// serve_paced is open loop: one generator thread submits a seeded Poisson
// schedule (a fixed number of arrivals per tenant at uniform random times,
// which is a Poisson process conditioned on its count) at a total rate well
// under capacity, to three tenants (a seed shape, a non-seed batch and a
// non-seed resolution), shapes-only, with sim_pacing holding each worker for
// its simulated latency. Latency counts from each request's due time.
//
// serve_host is closed loop: four client threads against one JIT-compiled
// MobileNet1.0 served at the seed 224 and at 128, numerics on, sim_pacing 0.
// Each client alternates between the two tenants, so the tenant mix stays at
// one half whichever of them is faster.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>

#include "bench.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "serve/engine.h"

namespace perfbench {

namespace {

using igc::serve::RequestOutcome;
using igc::serve::ServingEngine;

struct TenantDef {
  std::string name;
  size_t model = 0;   // index into ServeSpec::models
  int64_t batch = 0;  // shape binding (0 = the compiled seed)
  int64_t hw = 0;
  bool seed_binding() const { return batch == 0 && hw == 0; }
};

struct ServeSpec {
  std::vector<ModelShape> models;
  std::vector<TenantDef> tenants;
  igc::Backend backend = igc::Backend::kInterp;
  bool numerics = false;
  double sim_pacing = 0.0;
  int workers = 2;
};

const ServeSpec kPaced = {
    {{Net::kSsdMobileNet, 300, 1},
     {Net::kMobileNet, 224, 1},
     {Net::kInceptionV1, 224, 1}},
    {{"ssd_300", 0, 0, 0},
     {"mobilenet_batch4", 1, 4, 0},
     {"inception_300", 2, 0, 300}},
    igc::Backend::kInterp,
    /*numerics=*/false,
    /*sim_pacing=*/0.02,
    /*workers=*/8,
};
/// Arrivals per second per tenant on serve_paced.
constexpr double kPacedRatePerTenant = 40.0;

const ServeSpec kHost = {
    {{Net::kMobileNet, 224, 1}},
    {{"mobilenet_224", 0, 0, 0}, {"mobilenet_128", 0, 0, 128}},
    igc::Backend::kJit,
    /*numerics=*/true,
    /*sim_pacing=*/0.0,
    /*workers=*/4,
};
constexpr int kHostClients = 4;

/// One engine with its tenants' models, as a set-up leaves it.
struct Served {
  std::vector<std::unique_ptr<igc::CompiledModel>> models;
  SetupStats stats;
  // Declared before the engine, which records into it until destroyed.
  std::unique_ptr<igc::obs::MetricsRegistry> registry;
  std::unique_ptr<ServingEngine> engine;
  std::vector<uint64_t> warm_seed;            // warm-up input per tenant
  std::vector<RequestOutcome> warm;           // warm-up outcome per tenant
  std::vector<std::string> warm_errors;
};

igc::RunOptions tenant_run(const ServeSpec& spec, const TenantDef& t) {
  igc::RunOptions o;
  o.compute_numerics = spec.numerics;
  o.use_arena = true;
  o.batch = t.batch;
  o.input_hw = t.hw;
  return o;
}

/// Starts an engine over `s.models` and serves one warm-up request per
/// tenant, one after another.
void start_engine(const Args& args, const ServeSpec& spec, Served& s,
                  bool traced) {
  s.engine.reset();
  s.registry = std::make_unique<igc::obs::MetricsRegistry>();
  igc::serve::EngineOptions eo;
  eo.num_workers = spec.workers;
  eo.queue.max_depth = 256;
  eo.queue.max_batch_size = 4;
  eo.queue.max_wait_ms = 1.0;
  eo.clock_ms = now_ms;
  eo.sim_pacing = spec.sim_pacing;
  eo.registry = s.registry.get();
  eo.trace.enabled = traced;
  s.engine = std::make_unique<ServingEngine>(eo);
  for (const TenantDef& t : spec.tenants) {
    igc::serve::TenantSpec ts;
    ts.name = t.name;
    ts.model = s.models[t.model].get();
    ts.run = tenant_run(spec, t);
    s.engine->add_tenant(std::move(ts));
  }
  s.engine->start();
  s.warm.clear();
  s.warm_seed.clear();
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    const uint64_t seed = input_seed(args.seed, 1000 + t, 0);
    s.warm_seed.push_back(seed);
    igc::serve::SubmitResult r = s.engine->submit(static_cast<int>(t), seed);
    if (!r.admitted()) {
      s.warm_errors.push_back(spec.tenants[t].name + " warm-up refused: " +
                              admission_reason(r.admission));
      s.warm.emplace_back();
      continue;
    }
    try {
      s.warm.push_back(r.outcome.get());
    } catch (const std::exception& e) {
      s.warm_errors.push_back(spec.tenants[t].name + " warm-up failed: " +
                              e.what());
      s.warm.emplace_back();
    }
  }
}

/// One timed set-up: build and compile every model against an empty kernel
/// cache, start the engine and warm it up.
Served set_up(const Args& args, const ServeSpec& spec) {
  Served s;
  const std::string cache = fresh_cache_dir(args);
  for (const ModelShape& shape : spec.models) {
    s.models.push_back(build_and_compile(shape, spec.backend, cache, &s.stats));
  }
  start_engine(args, spec, s, /*traced=*/false);
  return s;
}

struct Arrival {
  double due_ms = 0.0;  // offset from the window start
  int tenant = 0;
  uint64_t seed = 0;
};

std::vector<Arrival> paced_schedule(const Args& args, size_t tenants,
                                    double seconds) {
  std::vector<Arrival> out;
  const int64_t per_tenant = std::llround(kPacedRatePerTenant * seconds);
  for (size_t t = 0; t < tenants; ++t) {
    igc::Rng rng(input_seed(args.seed, 100 + t, 0));
    for (int64_t i = 0; i < per_tenant; ++i) {
      out.push_back({rng.next_double() * seconds * 1000.0,
                     static_cast<int>(t),
                     input_seed(args.seed, t, static_cast<uint64_t>(i))});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_ms < b.due_ms; });
  return out;
}

/// Everything one timed window observed.
struct Window {
  struct Done {
    int tenant = 0;
    double due_ms = 0.0;  // absolute; the submit time on a closed loop
    double submit_ms = 0.0;
    RequestOutcome outcome;
  };
  std::vector<Done> done;
  std::vector<double> late_ms;  // generator lateness (open loop)
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  double t0 = 0.0, end = 0.0;
  double seconds = 0.0;  // scheduled length
  double cpu0 = 0.0, cpu1 = 0.0;
  // At each slice boundary: process CPU time (kWindowSlices + 1 values) and
  // the pool's peak bytes in use over the slice just ended.
  std::vector<double> slice_cpu, peak_bytes;
  int64_t page_allocs = 0, batches = 0;
};

/// Starts a window at `t0`: notes the engine counters its figures are
/// deltas of and resets the pool's high-water mark. The returned thread
/// samples process CPU time and the pool's peak (reading, then resetting it)
/// at every slice boundary, and ends when the window has elapsed.
std::jthread begin_window(Window& w, ServingEngine& engine, double t0,
                          double seconds) {
  igc::PagePool& pool = *engine.page_pool();
  w.page_allocs = pool.total_page_allocs();
  w.batches = engine.stats().batches;
  pool.reset_peak();
  w.t0 = t0;
  w.seconds = seconds;
  w.cpu0 = cpu_ms();
  return std::jthread([&pool, &w] {
    for (int k = 0; k <= kWindowSlices; ++k) {
      const double wait = w.t0 + w.seconds * 1000.0 * k / kWindowSlices - now_ms();
      if (wait > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait));
      }
      w.slice_cpu.push_back(cpu_ms());
      if (k > 0) w.peak_bytes.push_back(static_cast<double>(pool.peak_bytes_in_use()));
      pool.reset_peak();
    }
  });
}

/// Ends a window once every request has resolved.
void end_window(Window& w, ServingEngine& engine) {
  w.cpu1 = cpu_ms();
  w.end = w.t0;
  for (const auto& d : w.done) w.end = std::max(w.end, d.outcome.finish_ms);
  w.page_allocs = engine.page_pool()->total_page_allocs() - w.page_allocs;
  w.batches = engine.stats().batches - w.batches;
}

/// Resolves one admitted request into `w` (or counts its failure).
void collect(Window& w, int tenant, double due_ms, double submit_ms,
             std::future<RequestOutcome>& fut) {
  try {
    w.done.push_back({tenant, due_ms, submit_ms, fut.get()});
  } catch (const std::exception& e) {
    ++w.failed;
    w.errors.push_back(std::string("request failed: ") + e.what());
  }
}

Window run_open_loop(ServingEngine& engine, const std::vector<Arrival>& arrivals,
                     double seconds) {
  Window w;
  std::jthread sampler = begin_window(w, engine, now_ms() + 20.0, seconds);
  struct Pending {
    int tenant;
    double due_ms, submit_ms;
    std::future<RequestOutcome> fut;
  };
  std::vector<Pending> pending;
  pending.reserve(arrivals.size());
  // The calling thread is the generator.
  for (const Arrival& a : arrivals) {
    const double due = w.t0 + a.due_ms;
    const double wait = due - now_ms();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
    }
    const double submit = now_ms();
    w.late_ms.push_back(submit - due);
    ++w.attempted;
    igc::serve::SubmitResult r = engine.submit(a.tenant, a.seed);
    if (r.admitted()) {
      pending.push_back({a.tenant, due, submit, std::move(r.outcome)});
    } else {
      ++w.failed;
      w.errors.push_back(std::string("request refused: ") +
                         admission_reason(r.admission));
    }
  }
  sampler.join();
  for (Pending& p : pending) collect(w, p.tenant, p.due_ms, p.submit_ms, p.fut);
  end_window(w, engine);
  return w;
}

Window run_closed_loop(const Args& args, ServingEngine& engine, int tenants,
                       double seconds) {
  Window w;
  std::vector<Window> per_client(kHostClients);
  {
    std::jthread sampler = begin_window(w, engine, now_ms(), seconds);
    const double deadline = w.t0 + seconds * 1000.0;
    std::vector<std::jthread> clients;
    for (int c = 0; c < kHostClients; ++c) {
      clients.emplace_back([&, c] {
        Window& mine = per_client[static_cast<size_t>(c)];
        int tenant = static_cast<int>((args.seed + static_cast<uint64_t>(c)) %
                                      static_cast<uint64_t>(tenants));
        for (uint64_t i = 0; now_ms() < deadline; ++i) {
          const double submit = now_ms();
          ++mine.attempted;
          igc::serve::SubmitResult r =
              engine.submit(tenant, input_seed(args.seed, 10 + c, i));
          if (r.admitted()) {
            collect(mine, tenant, submit, submit, r.outcome);
          } else {
            ++mine.failed;
            mine.errors.push_back(std::string("request refused: ") +
                                  admission_reason(r.admission));
          }
          tenant = (tenant + 1) % tenants;
        }
      });
    }
  }  // the clients and the sampler join here
  for (Window& c : per_client) {
    w.attempted += c.attempted;
    w.failed += c.failed;
    w.done.insert(w.done.end(), c.done.begin(), c.done.end());
    w.errors.insert(w.errors.end(), c.errors.begin(), c.errors.end());
  }
  end_window(w, engine);
  return w;
}

/// Stops the engine and checks its accounting: counts conserve, nothing was
/// shed, refused or failed, and every request it completed was seen.
igc::serve::EngineStats stop_and_check(Result& out, ServingEngine& engine,
                                       int64_t resolved) {
  engine.stop();
  const igc::serve::EngineStats st = engine.stats();
  auto fail = [&](const std::string& what) { out.check("engine accounting", what); };
  if (st.submitted != st.admitted + st.shed + st.rejected_full +
                          st.rejected_shutdown + st.rejected_unknown_tenant) {
    fail("submitted " + std::to_string(st.submitted) +
         " != admitted + shed + rejected");
  }
  if (st.admitted != st.completed + st.failed) {
    fail("admitted " + std::to_string(st.admitted) + " != completed " +
         std::to_string(st.completed) + " + failed " +
         std::to_string(st.failed));
  }
  if (st.shed + st.rejected_full + st.rejected_shutdown +
          st.rejected_unknown_tenant + st.failed !=
      0) {
    fail("shed " + std::to_string(st.shed) + ", rejected " +
         std::to_string(st.rejected_full + st.rejected_shutdown +
                        st.rejected_unknown_tenant) +
         ", failed " + std::to_string(st.failed));
  }
  int64_t per_tenant = 0;
  for (int64_t c : st.completed_per_tenant) per_tenant += c;
  if (per_tenant != st.completed || st.completed != resolved) {
    fail("completed " + std::to_string(st.completed) + ", per tenant " +
         std::to_string(per_tenant) + ", resolved futures " +
         std::to_string(resolved));
  }
  return st;
}

/// Figures of one window used by both the end-to-end and per-layer reports.
struct WindowFigures {
  int64_t completed = 0;
  double sim_ms = 0.0;
  double cpu_ms_p50 = 0.0;
  double host_ms_p50 = 0.0;
  double req_per_s = 0.0;
  double cpu_ms_per_req = 0.0;
  double e2e_ms_p50 = 0.0;
  double e2e_ms_p99 = 0.0;
  double act_peak_mib = 0.0;
};

WindowFigures figures(const Window& w, size_t tenants) {
  WindowFigures f;
  f.completed = static_cast<int64_t>(w.done.size());
  const double n = static_cast<double>(std::max<int64_t>(f.completed, 1));
  // Summed in request order, so a given mix gives the same sim_ms bits
  // however the workers interleaved.
  std::vector<std::pair<uint64_t, double>> sims;
  std::vector<std::vector<double>> service(tenants), e2e(tenants);
  std::vector<std::pair<double, double>> e2e_at;  // (due time, e2e)
  std::vector<int64_t> finished(kWindowSlices, 0);
  const double slice_ms = w.seconds * 1000.0 / kWindowSlices;
  for (const auto& d : w.done) {
    const double e = d.outcome.finish_ms - d.due_ms;
    sims.emplace_back(d.outcome.id, d.outcome.sim_latency_ms);
    service[static_cast<size_t>(d.tenant)].push_back(d.outcome.service_ms());
    e2e[static_cast<size_t>(d.tenant)].push_back(e);
    e2e_at.emplace_back(d.due_ms, e);
    const int64_t k = static_cast<int64_t>((d.outcome.finish_ms - w.t0) / slice_ms);
    if (k >= 0 && k < kWindowSlices) ++finished[static_cast<size_t>(k)];
  }
  std::sort(sims.begin(), sims.end());
  for (const auto& [id, sim] : sims) f.sim_ms += sim;
  f.sim_ms /= n;
  // Requests overlap inside the engine, so CPU time is apportioned per slice:
  // the CPU time a slice took over the requests that finished in it.
  std::vector<double> slice_cost;
  for (size_t k = 0; k < finished.size(); ++k) {
    if (finished[k] == 0) continue;
    slice_cost.push_back((w.slice_cpu[k + 1] - w.slice_cpu[k]) /
                         static_cast<double>(finished[k]));
  }
  f.cpu_ms_p50 = median(slice_cost);
  std::vector<double> p50, svc;
  for (size_t t = 0; t < tenants; ++t) {
    svc.push_back(median(service[t]));
    p50.push_back(median(e2e[t]));
  }
  f.host_ms_p50 = geomean(svc);
  f.e2e_ms_p50 = geomean(p50);
  f.e2e_ms_p99 = sliced_quantile(e2e_at, w.t0, w.seconds * 1000.0, 0.99);
  f.req_per_s = f.completed / ((w.end - w.t0) / 1000.0);
  f.cpu_ms_per_req = (w.cpu1 - w.cpu0) / n;
  // The mean, not the median, of the slice peaks: whether two large
  // requests overlap within a slice is close to a coin toss, and a median of
  // coin tosses flips between the two levels.
  for (double b : w.peak_bytes) f.act_peak_mib += b / (1024.0 * 1024.0);
  f.act_peak_mib /= static_cast<double>(std::max<size_t>(w.peak_bytes.size(), 1));
  return f;
}

/// Runs one serve workload: set-ups, first-request checks, the timed window
/// and, on a traced run, the per-layer split.
Result run_serve(const Args& args, const ServeSpec& spec, bool open_loop) {
  Result out;
  const size_t tenants = spec.tenants.size();
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  Served s;
  for (int k = 0; k < setups; ++k) {
    s.engine.reset();  // the previous set-up is torn down outside the timing
    s = Served{};
    const double t0 = now_ms();
    s = set_up(args, spec);
    setup_s.push_back((now_ms() - t0) / 1000.0);
    std::printf("# set-up %d: %.3f s\n", k + 1, setup_s.back());
    for (const std::string& e : s.warm_errors) out.check("warm-up", e);
  }

  // First request of each tenant, replayed outside the engine: invariants,
  // the engine's simulated latency, JIT against the reference operators,
  // and a non-seed binding against a static compile at that shape.
  auto& dispatches =
      igc::obs::MetricsRegistry::global().counter("jit.dispatches");
  std::map<std::string, double> layer;
  std::vector<bool> without_jit(tenants, false);
  std::vector<double> ratios;
  LayerSplit split;
  double covered = 0.0, live_nodes = 0.0;
  for (size_t t = 0; t < tenants; ++t) {
    const TenantDef& td = spec.tenants[t];
    const igc::CompiledModel& cm = *s.models[td.model];
    const Net net = spec.models[td.model].net;
    igc::RunOptions o = tenant_run(spec, td);
    o.input_seed = s.warm_seed[t];
    const int64_t d0 = dispatches.value();
    const igc::RunResult r = cm.run(o);
    without_jit[t] = spec.numerics && dispatches.value() == d0;
    out.check(td.name + " output", check_model_output(net, r.output, spec.numerics));
    out.check(td.name + " simulated categories", check_sim_categories(r));
    if (s.warm[t].sim_latency_ms != r.latency_ms) {
      out.check(td.name + " engine simulated latency",
                std::to_string(s.warm[t].sim_latency_ms) + " ms, replay " +
                    std::to_string(r.latency_ms) + " ms");
    }
    if (spec.backend == igc::Backend::kJit) {
      out.check(td.name + " JIT module",
                cm.jit_enabled() ? "" : "no JIT module: " + cm.jit_error());
      igc::RunOptions ref = o;
      ref.backend = igc::RunBackend::kInterp;
      out.check(td.name + " JIT vs reference operators",
                check_identical(r.output, cm.run(ref).output));
    }
    if (!td.seed_binding()) {
      ModelShape fixed = spec.models[td.model];
      if (td.batch != 0) fixed.batch = td.batch;
      if (td.hw != 0) fixed.image = td.hw;
      const auto static_cm =
          build_and_compile(fixed, igc::Backend::kInterp, "", nullptr);
      igc::RunOptions so = o;
      so.batch = 0;
      so.input_hw = 0;
      const igc::RunResult rs = static_cm->run(so);
      out.check(td.name + " variant vs static compile",
                check_identical(r.output, rs.output));
      ratios.push_back(r.latency_ms / rs.latency_ms);
      std::printf("# %s: variant sim %.3f ms, static compile %.3f ms (x%.3f)\n",
                  td.name.c_str(), r.latency_ms, rs.latency_ms, ratios.back());
    }
    layer["arena.planned_bytes"] += static_cast<double>(
        cm.make_serving_context(td.batch, td.hw, nullptr)->arena_bytes());
    layer["arena.live_peak_bytes"] +=
        static_cast<double>(r.peak_intermediate_bytes);
    if (args.trace) {
      for (int i = 0; i < 2; ++i) {
        igc::obs::TraceRecorder rec;
        igc::RunOptions to = o;
        to.trace = &rec;
        const int64_t td0 = dispatches.value();
        const double w0 = now_ms();
        const igc::RunResult rt = cm.run(to);
        split.add(rec, rt, now_ms() - w0, spec.numerics);
        covered += static_cast<double>(dispatches.value() - td0);
        live_nodes += static_cast<double>(rec.spans().size());
      }
    }
  }

  const double window_s = args.trace ? args.seconds / 2.0 : args.seconds;
  auto run_window = [&](ServingEngine& engine) {
    return open_loop
               ? run_open_loop(engine, paced_schedule(args, tenants, window_s),
                               window_s)
               : run_closed_loop(args, engine, static_cast<int>(tenants),
                                 window_s);
  };
  auto account = [&](const Window& w) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.errors.insert(out.errors.end(), w.errors.begin(), w.errors.end());
    for (const auto& d : w.done) {
      out.check("request outcome", check_outcome(d.outcome, d.submit_ms));
    }
  };
  const Window w = run_window(*s.engine);
  const igc::serve::EngineStats st = stop_and_check(
      out, *s.engine, static_cast<int64_t>(tenants + w.done.size()));
  account(w);
  const WindowFigures f = figures(w, tenants);
  std::printf("# window: %lld requests in %.1f ms, %zu refused or failed\n",
              static_cast<long long>(f.completed), w.end - w.t0,
              w.errors.size());
  for (size_t t = 0; t < tenants; ++t) {
    std::vector<double> e2e, svc;
    for (const auto& d : w.done) {
      if (d.tenant != static_cast<int>(t)) continue;
      e2e.push_back(d.outcome.finish_ms - d.due_ms);
      svc.push_back(d.outcome.service_ms());
    }
    std::printf("# %s: %zu requests, e2e p50 %.2f p99 %.2f max %.2f ms, "
                "service p50 %.2f ms\n",
                spec.tenants[t].name.c_str(), e2e.size(), median(e2e),
                quantile(e2e, 0.99), quantile(e2e, 1.0), median(svc));
  }

  if (!args.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("sim_ms", f.sim_ms, "ms");
    out.add("cpu_ms_p50", f.cpu_ms_p50, "ms");
    out.add("cpu_ms_per_req", f.cpu_ms_per_req, "ms");
    out.add("act_peak_mib", f.act_peak_mib, "MiB");
    return out;
  }
  // Wall-clock figures of the untraced half.
  layer["host_ms_p50"] = f.host_ms_p50;
  layer["req_per_s"] = f.req_per_s;
  layer["e2e_ms_p50"] = f.e2e_ms_p50;
  layer["e2e_ms_p99"] = f.e2e_ms_p99;

  // Second half of a traced run: the same load with request tracing on.
  start_engine(args, spec, s, /*traced=*/true);
  for (const std::string& e : s.warm_errors) out.check("warm-up", e);
  const Window wt = run_window(*s.engine);
  stop_and_check(out, *s.engine, static_cast<int64_t>(tenants + wt.done.size()));
  account(wt);
  const WindowFigures ft = figures(wt, tenants);
  layer["obs.trace_overhead_pct"] =
      (ft.cpu_ms_per_req / f.cpu_ms_per_req - 1.0) * 100.0;

  std::vector<double> queue_wait, dispatch_wait, service;
  double busy_ms = 0.0, fallback_reqs = 0.0;
  for (const auto& d : w.done) {
    queue_wait.push_back(d.outcome.queue_wait_ms());
    dispatch_wait.push_back(d.outcome.start_ms - d.outcome.schedule_ms);
    service.push_back(d.outcome.service_ms());
    busy_ms += d.outcome.service_ms();
    if (without_jit[static_cast<size_t>(d.tenant)]) fallback_reqs += 1.0;
  }
  const double completed = static_cast<double>(std::max<int64_t>(f.completed, 1));
  layer["jit.node_coverage"] = live_nodes > 0.0 ? covered / live_nodes : 0.0;
  layer["jit.fallback_reqs"] = fallback_reqs;
  layer["sim.variant_over_static"] = geomean(ratios);
  layer["pool.peak_bytes"] =
      *std::max_element(w.peak_bytes.begin(), w.peak_bytes.end());
  layer["pool.page_allocs_per_req"] = static_cast<double>(w.page_allocs) / completed;
  layer["serve.queue_wait_ms_p50"] = quantile(queue_wait, 0.5);
  layer["serve.queue_wait_ms_p99"] = quantile(queue_wait, 0.99);
  layer["serve.dispatch_wait_ms_p50"] = quantile(dispatch_wait, 0.5);
  layer["serve.service_ms_p50"] = quantile(service, 0.5);
  layer["serve.batch_size_mean"] =
      w.batches > 0 ? static_cast<double>(f.completed) / w.batches : 0.0;
  layer["serve.queue_depth_peak"] = static_cast<double>(st.queue_depth_peak);
  layer["serve.worker_busy_pct"] =
      busy_ms / (spec.workers * (w.end - w.t0)) * 100.0;
  layer["gen.late_ms_p99"] = open_loop ? quantile(w.late_ms, 0.99) : 0.0;
  add_layer_metrics(out, s.stats, split, layer);
  return out;
}

}  // namespace

Result run_serve_paced(const Args& args) {
  return run_serve(args, kPaced, /*open_loop=*/true);
}

Result run_serve_host(const Args& args) {
  return run_serve(args, kHost, /*open_loop=*/false);
}

}  // namespace perfbench
