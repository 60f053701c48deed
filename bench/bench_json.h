// Tiny machine-readable output helper for the benches: one flat JSON object
// per result row, printed alongside the human tables so dashboards can scrape
// bench output (or the file a bench writes) without parsing printf columns.
//
// Deliberately minimal — flat objects, string/number/bool fields only.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "graph/pass_manager.h"
#include "sim/timing_model.h"

namespace igc::bench {

class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value) {
    add_key(key);
    out_ += '"';
    escape_into(value);
    out_ += '"';
    return *this;
  }
  JsonObject& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonObject& field(const std::string& key, double value) {
    add_key(key);
    if (!std::isfinite(value)) {
      out_ += "null";
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out_ += buf;
    }
    return *this;
  }
  JsonObject& field(const std::string& key, int64_t value) {
    add_key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out_ += buf;
    return *this;
  }
  JsonObject& field(const std::string& key, int value) {
    return field(key, static_cast<int64_t>(value));
  }
  JsonObject& field(const std::string& key, bool value) {
    add_key(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  std::string str() const { return out_ + "}"; }

  /// Prints the object as one line to `f` (stdout by default).
  void emit(std::FILE* f = stdout) const {
    std::fprintf(f, "%s\n", str().c_str());
  }

 private:
  void add_key(const std::string& key) {
    out_ += first_ ? "" : ", ";
    first_ = false;
    out_ += '"';
    escape_into(key);
    out_ += "\": ";
  }

  void escape_into(const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
  }

  std::string out_ = "{";
  bool first_ = true;
};

/// Bump when the shared header below (or a bench's row shape) changes
/// incompatibly, so dashboards can key parsers off it.
/// v2: added "passes" (comma-joined graph pass pipeline).
/// v3: rows for executed runs may carry the counter summary block
///     (counter_summary(): sim_launches/sim_flops/... — see below).
/// v4: serving rows carry "backend" ("interp" | "jit" — which engine
///     computed operator numerics) and "numerics" (whether numerics ran at
///     all; shapes-only timing rows say false).
/// v5: serving rows carry host-side per-run latency percentiles
///     ("host_p50_ms" <= "host_p95_ms" <= "host_p99_ms", from the
///     log-bucketed obs::LatencyHistogram).
/// v6: open-loop engine rows (bench "serving_engine", mode "engine") carry
///     the offered/served traffic block: "tenants", "workers",
///     "offered_per_s", "goodput_per_s", admission accounting
///     (submitted/admitted/shed/rejected), end-to-end and queue-wait
///     percentile triples, and "batch_size_mean".
/// v7: serving and serving_engine rows carry the paged-arena memory block:
///     "arena_peak_bytes" (serving rows: the run's high-water of planned
///     intermediate bytes when arena-backed, 0 otherwise; engine rows: the
///     shared PagePool's physical high-water across the whole cell) and
///     "arena_page_bytes" (serving rows: page bytes the arena still held
///     when the run finished; engine rows: the pool's mapped extent bytes).
///     Mixed-resolution engine cells additionally carry "slab_bytes" — what
///     per-worker private slabs would have pinned — so dashboards can chart
///     the paged-sharing win directly.
/// v8: serving_engine rows may carry "trace_overhead_pct" — the goodput
///     cost of request tracing, measured by replaying the same cell with
///     tracing on: (goodput_off - goodput_on) / goodput_off * 100. Emitted
///     on the cells that run the traced replay (the quick cell always
///     does); wall-clock noisy, so it gates advisorily in CI.
inline constexpr int kBenchSchemaVersion = 8;

/// Starts a row carrying the shared metadata header every BENCH_*.json line
/// leads with: bench name, schema version, platform, model, executor mode
/// ("sequential" for single-model runs, "engine" for serving-engine rows),
/// and the active graph pass pipeline (comma-joined names; pass
/// graph::join_pass_names(cm.pass_pipeline()) when a bench customizes it).
/// Append bench-specific fields to the returned object, then emit().
inline JsonObject bench_row(
    const std::string& bench, const std::string& platform,
    const std::string& model, const std::string& mode = "sequential",
    const std::string& passes = graph::default_pass_names_joined()) {
  JsonObject j;
  j.field("bench", bench)
      .field("schema_version", kBenchSchemaVersion)
      .field("platform", platform)
      .field("model", model)
      .field("mode", mode)
      .field("passes", passes);
  return j;
}

/// Appends the schema-v3 counter summary block (aggregated simulated
/// hardware counters of one run) to a row. No-op for runs that charged no
/// launches, so rows stay valid when a bench skips execution.
inline JsonObject& counter_summary(JsonObject& j,
                                   const sim::KernelCounters& c) {
  if (c.launches <= 0) return j;
  j.field("sim_launches", c.launches)
      .field("sim_flops", c.flops)
      .field("sim_dram_bytes", c.dram_bytes)
      .field("achieved_gflops", c.achieved_gflops())
      .field("achieved_gbps", c.achieved_gbps())
      .field("arithmetic_intensity", c.arithmetic_intensity())
      .field("avg_occupancy", c.occupancy)
      .field("bound", std::string(sim::bound_name(c.bound)));
  return j;
}

}  // namespace igc::bench
