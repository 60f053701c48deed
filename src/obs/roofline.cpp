#include "obs/roofline.h"

#include <algorithm>
#include <cstdio>

namespace igc::obs {

RooflineReport roofline_report(const TraceRecorder& rec,
                               const sim::DeviceSpec& gpu) {
  RooflineReport rep;
  rep.model = rec.meta().model;
  rep.platform = rec.meta().platform;
  rep.peak_gflops = gpu.peak_gflops;
  rep.peak_gbps = gpu.dram_bandwidth_gbps;
  rep.ridge_intensity =
      rep.peak_gbps > 0.0 ? rep.peak_gflops / rep.peak_gbps : 0.0;

  double serial = 0.0;
  for (const TraceSpan& s : rec.spans()) {
    serial += s.sim_end_ms - s.sim_start_ms;
    if (s.counters.launches <= 0) continue;
    RooflineRow row;
    row.name = s.name;
    row.op = s.op;
    row.category = s.category;
    row.lane = s.lane;
    row.counters = s.counters;
    row.ms = s.counters.ms;
    if (s.counters.flops > 0) {
      const double ai = s.counters.arithmetic_intensity();
      row.roof_gflops = ai > 0.0
                            ? std::min(rep.peak_gflops, rep.peak_gbps * ai)
                            : rep.peak_gflops;
      row.pct_of_roof = row.roof_gflops > 0.0
                            ? s.counters.achieved_gflops() / row.roof_gflops
                            : 0.0;
    } else if (s.counters.dram_bytes > 0) {
      row.pct_of_roof = rep.peak_gbps > 0.0
                            ? s.counters.achieved_gbps() / rep.peak_gbps
                            : 0.0;
    }
    rep.bound_ms[static_cast<int>(s.counters.bound)] += row.ms;
    rep.rows.push_back(std::move(row));
  }
  rep.serial_ms = serial;
  for (RooflineRow& row : rep.rows) {
    row.pct_of_serial = serial > 0.0 ? 100.0 * row.ms / serial : 0.0;
  }
  std::sort(rep.rows.begin(), rep.rows.end(),
            [](const RooflineRow& a, const RooflineRow& b) {
              if (a.ms != b.ms) return a.ms > b.ms;
              return a.name < b.name;
            });
  int top = 0;
  for (int b = 1; b < sim::kNumBoundKinds; ++b) {
    if (rep.bound_ms[b] > rep.bound_ms[top]) top = b;
  }
  rep.top_bottleneck = static_cast<sim::BoundKind>(top);
  return rep;
}

std::string RooflineReport::str(int top_k) const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "=== roofline: %s on %s ===\n", model.c_str(),
                platform.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "device ceilings: %.1f GFLOPS | %.1f GB/s | ridge %.2f "
                "flops/byte\n",
                peak_gflops, peak_gbps, ridge_intensity);
  out += buf;

  out += "where the milliseconds go:";
  for (int b = 0; b < sim::kNumBoundKinds; ++b) {
    std::snprintf(
        buf, sizeof(buf), " %s %.3f ms (%.1f%%)%s",
        std::string(sim::bound_name(static_cast<sim::BoundKind>(b))).c_str(),
        bound_ms[b], serial_ms > 0.0 ? 100.0 * bound_ms[b] / serial_ms : 0.0,
        b + 1 < sim::kNumBoundKinds ? " |" : "\n");
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf), "top bottleneck: %s-bound work\n",
      std::string(sim::bound_name(top_bottleneck)).c_str());
  out += buf;

  const int k = std::min<int>(top_k, static_cast<int>(rows.size()));
  std::snprintf(buf, sizeof(buf), "top %d ops by serial ms:\n", k);
  out += buf;
  out += "          ms   %run  bound      %roof   GFLOPS     GB/s  "
         "flops/B   occ  op\n";
  for (int i = 0; i < k; ++i) {
    const RooflineRow& r = rows[static_cast<size_t>(i)];
    std::snprintf(buf, sizeof(buf),
                  "  %10.3f %5.1f%%  %-9s %5.1f%% %8.1f %8.1f %8.2f %5.2f  "
                  "%s (%s)\n",
                  r.ms, r.pct_of_serial,
                  std::string(sim::bound_name(r.counters.bound)).c_str(),
                  100.0 * r.pct_of_roof, r.counters.achieved_gflops(),
                  r.counters.achieved_gbps(),
                  r.counters.arithmetic_intensity(), r.counters.occupancy,
                  r.name.c_str(), r.op.c_str());
    out += buf;
  }
  return out;
}

std::string counters_table(const TraceRecorder& rec, int top_k) {
  std::vector<TraceSpan> spans = rec.spans();
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.counters.ms != b.counters.ms) {
                return a.counters.ms > b.counters.ms;
              }
              return a.name < b.name;
            });
  char buf[256];
  std::string out = "per-op hardware counters:\n";
  out += "          ms  launches        flops   DRAM bytes   occ  "
         "div.ms  ovh.ms  bound      op\n";
  const int k = std::min<int>(top_k, static_cast<int>(spans.size()));
  for (int i = 0; i < k; ++i) {
    const TraceSpan& s = spans[static_cast<size_t>(i)];
    if (s.counters.launches <= 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %10.3f %9lld %12lld %12lld %5.2f %7.3f %7.3f  %-9s %s\n",
                  s.counters.ms,
                  static_cast<long long>(s.counters.launches),
                  static_cast<long long>(s.counters.flops),
                  static_cast<long long>(s.counters.dram_bytes),
                  s.counters.occupancy, s.counters.divergence_ms,
                  s.counters.overhead_ms,
                  std::string(sim::bound_name(s.counters.bound)).c_str(),
                  s.name.c_str());
    out += buf;
  }
  return out;
}

}  // namespace igc::obs
