// Shared pieces of the igc benchmark program: arguments, the result record,
// clocks and order statistics, output checks, and the timed model set-up
// that every workload starts from. See ../README.md for the workloads and
// the meaning of every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "obs/trace.h"
#include "serve/request.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run-private scratch directory (JIT kernel caches live under it).
  std::string workdir;
};

/// What one benchmark run prints as its last line.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, printed to stderr
  /// (name, value, unit) in print order.
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check ("" = passed).
  void check(const std::string& what, const std::string& err) {
    if (err.empty()) return;
    correct = false;
    errors.push_back(what + ": " + err);
  }
};

// ----- clocks and statistics ------------------------------------------------

/// Benchmark clock: steady milliseconds since the process started. The serve
/// workloads inject it as EngineOptions::clock_ms, so engine timestamps and
/// the generator's due times share one time base.
double now_ms();
/// CPU time of the whole process (all threads), in ms.
double cpu_ms();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// Geometric mean of positive values (0 for an empty list).
double geomean(const std::vector<double>& v);

/// A timed window is cut into this many equal slices for the figures that
/// are medians over slices (a stall of the machine moves one slice only).
inline constexpr int kWindowSlices = 5;

/// The median, over kWindowSlices equal slices of [t0, t0 + span_ms), of the
/// q-quantile of the values whose time stamp falls in the slice. Slices
/// without values are skipped. `samples` holds (time stamp, value) pairs.
double sliced_quantile(const std::vector<std::pair<double, double>>& samples,
                       double t0, double span_ms, double q);

// ----- output checks (checks.cpp) -------------------------------------------
// Each returns "" when the property holds, else a one-line reason.

/// Every row of a (N, C) probability tensor lies in [0, 1] and sums to 1
/// within 1e-4.
std::string check_softmax(const igc::Tensor& t);
/// SSD/NMS output (B, N, 6) rows [class, score, x1, y1, x2, y2]: valid rows
/// first in descending score, score >= 0.01, class in [0, num_classes),
/// x1 <= x2 and y1 <= y2, no two kept boxes of one class with IoU > 0.45,
/// every trailing row all -1.
std::string check_detections(const igc::Tensor& t, int64_t num_classes);
/// Same shape and the same bytes.
std::string check_identical(const igc::Tensor& got, const igc::Tensor& want);
/// The simulated-time categories of a run sum to its serial_ms.
std::string check_sim_categories(const igc::RunResult& r);
/// Outcome timestamps ordered enqueue <= schedule <= start <= finish, and
/// not earlier than the request's submit time.
std::string check_outcome(const igc::serve::RequestOutcome& o,
                          double submit_ms);

/// Runs every checker against deliberately corrupted inputs; returns the
/// failures (empty = every checker rejected every corruption).
std::vector<std::string> selftest();

// ----- models and set-up (setup.cpp) ----------------------------------------

enum class Net { kInceptionV1, kMobileNet, kSsdMobileNet };

/// One model at one shape. Weights come from a fixed seed, so two builds of
/// one Net at different shapes carry the same weights.
struct ModelShape {
  Net net = Net::kMobileNet;
  int64_t image = 224;
  int64_t batch = 1;
};
std::string net_name(Net n);
/// Number of classes the output carries (detections: foreground classes).
int64_t net_classes(Net n);
bool net_is_detector(Net n);

/// The invariants of one model's output: softmax rows for a classifier that
/// computed numerics, detection rows for a detector (shapes-only runs of a
/// detector still decode and suppress synthetic candidates).
std::string check_model_output(Net net, const igc::Tensor& out,
                               bool numerics = true);

/// Per-layer figures of the set-up phase, summed over every model compiled.
struct SetupStats {
  double build_ms = 0.0;
  double compile_ms = 0.0;
  double passes_ms = 0.0;
  int64_t tune_trials = 0;
  double toolchain_ms = 0.0;
  int64_t toolchain_invocations = 0;
  int64_t jit_kernels = 0;
};

/// Builds `shape` and compiles it for aws-deeplens, adding the time and
/// counters of both steps to `stats`. SSD's detection tail goes to the CPU.
std::unique_ptr<igc::CompiledModel> build_and_compile(
    const ModelShape& shape, igc::Backend backend,
    const std::string& kernel_cache_dir, SetupStats* stats);

/// A fresh, empty kernel-cache directory under the run's workdir.
std::string fresh_cache_dir(const Args& args);

/// A per-request input seed derived from the run seed and a stream index.
uint64_t input_seed(uint64_t run_seed, uint64_t stream, uint64_t index);

// ----- traced per-layer split (setup.cpp) -----------------------------------

/// Aggregates executor trace spans and run results into per-layer figures.
struct LayerSplit {
  int64_t runs = 0;
  std::map<std::string, double> op_host_ms;  // op kind -> summed host ms
  double conv_flops = 0.0;
  double span_ms = 0.0;  // summed node host time
  double wall_ms = 0.0;  // summed run() wall time
  double sim_conv_ms = 0.0, sim_vision_ms = 0.0, sim_copy_ms = 0.0,
         sim_fallback_ms = 0.0, sim_other_ms = 0.0;

  /// Adds one traced run. `numerics` says whether it computed values: a
  /// shapes-only run's conv spans do no arithmetic, so their flops are not
  /// counted.
  void add(const igc::obs::TraceRecorder& rec, const igc::RunResult& r,
           double run_wall_ms, bool numerics);
};

/// The op kinds the per-layer report names, in print order.
const std::vector<std::string>& reported_ops();

/// Appends every per-layer metric name to `out`, filling the ones `split`,
/// `setup` and `values` know and writing 0 for the rest (layers the
/// workload does not use).
void add_layer_metrics(Result& out, const SetupStats& setup,
                       const LayerSplit& split,
                       const std::map<std::string, double>& values);

/// Runs zoo_jit / serve_paced / serve_host.
Result run_zoo_jit(const Args& args);
Result run_serve_paced(const Args& args);
Result run_serve_host(const Args& args);

}  // namespace perfbench
