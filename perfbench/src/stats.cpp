#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "bench.h"

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double sliced_quantile(const std::vector<std::pair<double, double>>& samples,
                       double t0, double span_ms, double q) {
  std::vector<std::vector<double>> slices(kWindowSlices);
  for (const auto& [at, value] : samples) {
    const int k = static_cast<int>(std::floor((at - t0) / span_ms * kWindowSlices));
    slices[static_cast<size_t>(std::clamp(k, 0, kWindowSlices - 1))].push_back(value);
  }
  std::vector<double> per_slice;
  for (auto& v : slices) {
    if (!v.empty()) per_slice.push_back(quantile(std::move(v), q));
  }
  return median(std::move(per_slice));
}

}  // namespace perfbench
