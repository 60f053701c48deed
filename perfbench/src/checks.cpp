// Output checks. None compares against recorded output: each states a
// property the output must have, or compares two independent computations
// (JIT against reference operators, a shape variant against a static
// compile). Box overlap is computed here, not with the library's box_iou.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "bench.h"

namespace perfbench {

namespace {

std::string shape_str(const igc::Tensor& t) { return t.shape().str(); }

/// Intersection over union of two corner-format boxes, in double.
double iou(const float* a, const float* b) {
  const double iw = std::max(0.0, std::min<double>(a[2], b[2]) -
                                      std::max<double>(a[0], b[0]));
  const double ih = std::max(0.0, std::min<double>(a[3], b[3]) -
                                      std::max<double>(a[1], b[1]));
  const double inter = iw * ih;
  const double area_a = (static_cast<double>(a[2]) - a[0]) *
                        (static_cast<double>(a[3]) - a[1]);
  const double area_b = (static_cast<double>(b[2]) - b[0]) *
                        (static_cast<double>(b[3]) - b[1]);
  const double uni = area_a + area_b - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

}  // namespace

std::string check_softmax(const igc::Tensor& t) {
  if (t.shape().ndim() != 2 || t.numel() == 0) {
    return "expected a (N, C) tensor, got " + shape_str(t);
  }
  const int64_t rows = t.shape()[0];
  const int64_t cols = t.shape()[1];
  const float* p = t.data_f32();
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const float v = p[r * cols + c];
      if (!(v >= 0.0f && v <= 1.0f)) {
        return "row " + std::to_string(r) + " holds " + std::to_string(v) +
               " outside [0, 1]";
      }
      sum += v;
    }
    if (std::fabs(sum - 1.0) > 1e-4) {
      return "row " + std::to_string(r) + " sums to " + std::to_string(sum);
    }
  }
  return "";
}

std::string check_detections(const igc::Tensor& t, int64_t num_classes) {
  if (t.shape().ndim() != 3 || t.shape()[2] != 6) {
    return "expected a (B, N, 6) tensor, got " + shape_str(t);
  }
  const int64_t batches = t.shape()[0];
  const int64_t n = t.shape()[1];
  for (int64_t b = 0; b < batches; ++b) {
    const float* rows = t.data_f32() + b * n * 6;
    const std::string where = "batch " + std::to_string(b) + " row ";
    int64_t valid = 0;
    while (valid < n && rows[valid * 6] >= 0.0f) ++valid;
    for (int64_t i = 0; i < valid; ++i) {
      const float* r = rows + i * 6;
      const std::string at = where + std::to_string(i);
      if (r[0] != std::floor(r[0]) || r[0] >= static_cast<float>(num_classes)) {
        return at + ": class id " + std::to_string(r[0]) + " out of range";
      }
      if (!(r[1] >= 0.01f) || r[1] > 1.0f) {
        return at + ": score " + std::to_string(r[1]) + " outside [0.01, 1]";
      }
      if (i > 0 && r[1] > rows[(i - 1) * 6 + 1]) {
        return at + ": scores not in descending order";
      }
      if (!(r[2] <= r[4]) || !(r[3] <= r[5])) {
        return at + ": corners not ordered (x1 <= x2, y1 <= y2)";
      }
      for (int64_t j = 0; j < i; ++j) {
        const float* k = rows + j * 6;
        if (k[0] == r[0] && iou(k + 2, r + 2) > 0.45 + 1e-6) {
          return at + ": overlaps kept row " + std::to_string(j) +
                 " of its class with IoU " + std::to_string(iou(k + 2, r + 2));
        }
      }
    }
    for (int64_t i = valid; i < n; ++i) {
      for (int64_t c = 0; c < 6; ++c) {
        if (rows[i * 6 + c] != -1.0f) {
          return where + std::to_string(i) + ": trailing row is not all -1";
        }
      }
    }
  }
  return "";
}

std::string check_identical(const igc::Tensor& got, const igc::Tensor& want) {
  if (got.shape() != want.shape() || got.dtype() != want.dtype()) {
    return "shape " + shape_str(got) + " differs from " + shape_str(want);
  }
  if (std::memcmp(got.data_f32(), want.data_f32(),
                  static_cast<size_t>(got.nbytes())) != 0) {
    int64_t first = 0;
    while (first < got.numel() &&
           std::memcmp(got.data_f32() + first, want.data_f32() + first,
                       sizeof(float)) == 0) {
      ++first;
    }
    return "element " + std::to_string(first) + " differs (" +
           std::to_string(got.data_f32()[first]) + " vs " +
           std::to_string(want.data_f32()[first]) + ")";
  }
  return "";
}

std::string check_sim_categories(const igc::RunResult& r) {
  const double sum =
      r.conv_ms + r.vision_ms + r.copy_ms + r.fallback_ms + r.other_ms;
  if (!(r.serial_ms > 0.0) ||
      std::fabs(sum - r.serial_ms) > 1e-9 * r.serial_ms) {
    std::ostringstream os;
    os.precision(17);
    os << "categories sum to " << sum << " ms, serial_ms is " << r.serial_ms;
    return os.str();
  }
  return "";
}

std::string check_outcome(const igc::serve::RequestOutcome& o,
                          double submit_ms) {
  if (!(submit_ms <= o.enqueue_ms && o.enqueue_ms <= o.schedule_ms &&
        o.schedule_ms <= o.start_ms && o.start_ms <= o.finish_ms)) {
    std::ostringstream os;
    os << "request " << o.id << " timestamps out of order: submit "
       << submit_ms << " enqueue " << o.enqueue_ms << " schedule "
       << o.schedule_ms << " start " << o.start_ms << " finish "
       << o.finish_ms;
    return os.str();
  }
  if (o.batch_size < 1 || !(o.sim_latency_ms > 0.0)) {
    return "request " + std::to_string(o.id) + " has batch size " +
           std::to_string(o.batch_size) + " and simulated latency " +
           std::to_string(o.sim_latency_ms);
  }
  return "";
}

std::string check_model_output(Net net, const igc::Tensor& out,
                               bool numerics) {
  if (net_is_detector(net)) return check_detections(out, net_classes(net));
  if (numerics) return check_softmax(out);
  return out.shape().ndim() == 2 && out.shape()[1] == net_classes(net)
             ? ""
             : "classifier output shape " + shape_str(out);
}

}  // namespace perfbench
