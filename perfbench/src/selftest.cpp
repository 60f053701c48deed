// Checker self-test: every checker must accept a well-formed input and
// reject each deliberately corrupted copy of it. A checker that lets a
// corruption through could not catch that fault in a real run.
#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "bench.h"

namespace perfbench {

namespace {

using igc::Shape;
using igc::Tensor;

Tensor clean_probs() {
  Tensor t = Tensor::zeros(Shape{2, 4});
  const float rows[2][4] = {{0.1f, 0.2f, 0.3f, 0.4f},
                            {0.25f, 0.25f, 0.25f, 0.25f}};
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) t.data_f32()[r * 4 + c] = rows[r][c];
  }
  return t;
}

/// Three kept boxes (two of class 1 that barely overlap, one of class 3
/// fully overlapping a class-1 box) and three trailing -1 rows.
Tensor clean_detections() {
  Tensor t = Tensor::zeros(Shape{1, 6, 6});
  const float rows[3][6] = {{1, 0.9f, 0.0f, 0.0f, 0.5f, 0.5f},
                            {3, 0.6f, 0.0f, 0.0f, 0.5f, 0.5f},
                            {1, 0.3f, 0.4f, 0.4f, 0.9f, 0.9f}};
  float* p = t.data_f32();
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) p[r * 6 + c] = r < 3 ? rows[r][c] : -1.0f;
  }
  return t;
}

igc::RunResult clean_run() {
  igc::RunResult r;
  r.conv_ms = 10.0;
  r.vision_ms = 2.5;
  r.copy_ms = 0.25;
  r.fallback_ms = 1.0;
  r.other_ms = 0.125;
  r.serial_ms = 13.875;
  r.latency_ms = r.serial_ms;
  return r;
}

igc::serve::RequestOutcome clean_outcome() {
  igc::serve::RequestOutcome o;
  o.id = 7;
  o.tenant = 0;
  o.enqueue_ms = 10.0;
  o.schedule_ms = 11.0;
  o.start_ms = 12.0;
  o.finish_ms = 20.0;
  o.batch_size = 2;
  o.sim_latency_ms = 66.0;
  return o;
}

template <typename T>
void expect_rejects(std::vector<std::string>& failures, const std::string& name,
                    const std::function<std::string(const T&)>& checker,
                    const T& clean,
                    const std::vector<std::pair<std::string,
                                                std::function<void(T&)>>>&
                        corruptions) {
  if (const std::string err = checker(clean); !err.empty()) {
    failures.push_back(name + " rejects its clean input: " + err);
  }
  for (const auto& [what, corrupt] : corruptions) {
    T bad = clean;
    corrupt(bad);
    if (checker(bad).empty()) {
      failures.push_back(name + " accepts a corruption: " + what);
    }
  }
}

/// A deep copy, so a corruption never writes through to the clean tensor.
Tensor copy_of(const Tensor& t) {
  Tensor c(t.shape(), t.dtype());
  std::copy(t.data_f32(), t.data_f32() + t.numel(), c.data_f32());
  return c;
}

struct TensorCase {
  Tensor t;
  TensorCase() = default;
  explicit TensorCase(Tensor x) : t(std::move(x)) {}
  TensorCase(const TensorCase& o) : t(copy_of(o.t)) {}
  TensorCase& operator=(const TensorCase& o) {
    t = copy_of(o.t);
    return *this;
  }
};

}  // namespace

std::vector<std::string> selftest() {
  std::vector<std::string> failures;
  using Fix = std::function<void(TensorCase&)>;

  expect_rejects<TensorCase>(
      failures, "check_softmax",
      [](const TensorCase& c) { return check_softmax(c.t); },
      TensorCase(clean_probs()),
      {{"value above 1", Fix([](TensorCase& c) { c.t.data_f32()[1] = 1.2f; })},
       {"negative value",
        Fix([](TensorCase& c) {
          c.t.data_f32()[4] = -0.25f;
          c.t.data_f32()[5] = 0.75f;
        })},
       {"row sums to 0.9",
        Fix([](TensorCase& c) { c.t.data_f32()[3] = 0.3f; })},
       {"NaN", Fix([](TensorCase& c) { c.t.data_f32()[0] = std::numeric_limits<float>::quiet_NaN(); })},
       {"wrong rank",
        Fix([](TensorCase& c) { c.t = Tensor::zeros(Shape{8}); })}});

  auto row = [](TensorCase& c, int r) { return c.t.data_f32() + r * 6; };
  expect_rejects<TensorCase>(
      failures, "check_detections",
      [](const TensorCase& c) { return check_detections(c.t, 20); },
      TensorCase(clean_detections()),
      {{"scores ascending",
        Fix([&](TensorCase& c) { row(c, 2)[1] = 0.95f; })},
       {"score below 0.01",
        Fix([&](TensorCase& c) { row(c, 2)[1] = 0.005f; })},
       {"class out of range",
        Fix([&](TensorCase& c) { row(c, 1)[0] = 20.0f; })},
       {"fractional class", Fix([&](TensorCase& c) { row(c, 1)[0] = 2.5f; })},
       {"x1 > x2", Fix([&](TensorCase& c) { row(c, 2)[2] = 0.95f; })},
       {"y1 > y2", Fix([&](TensorCase& c) { row(c, 0)[3] = 0.6f; })},
       {"same-class overlap above 0.45",
        Fix([&](TensorCase& c) {
          row(c, 2)[2] = 0.05f;
          row(c, 2)[3] = 0.05f;
          row(c, 2)[4] = 0.55f;
          row(c, 2)[5] = 0.55f;
        })},
       {"trailing row not -1",
        Fix([&](TensorCase& c) { row(c, 4)[3] = 0.0f; })},
       {"valid row after an invalid one",
        Fix([&](TensorCase& c) {
          const float keep[6] = {2, 0.05f, 0.1f, 0.1f, 0.2f, 0.2f};
          std::copy(keep, keep + 6, row(c, 5));
        })},
       {"wrong last dimension",
        Fix([](TensorCase& c) { c.t = Tensor::zeros(Shape{1, 6, 5}); })}});

  const TensorCase reference(clean_probs());
  expect_rejects<TensorCase>(
      failures, "check_identical",
      [&](const TensorCase& c) { return check_identical(c.t, reference.t); },
      reference,
      {{"one flipped low bit",
        Fix([](TensorCase& c) {
          uint32_t bits = 0;
          std::memcpy(&bits, c.t.data_f32() + 6, sizeof(bits));
          bits ^= 1u;
          std::memcpy(c.t.data_f32() + 6, &bits, sizeof(bits));
        })},
       {"same bytes, other shape",
        Fix([](TensorCase& c) { c.t = copy_of(c.t).reshape(Shape{4, 2}); })}});

  using RunFix = std::function<void(igc::RunResult&)>;
  expect_rejects<igc::RunResult>(
      failures, "check_sim_categories", check_sim_categories, clean_run(),
      {{"category missing from the sum",
        RunFix([](igc::RunResult& r) { r.copy_ms = 0.0; })},
       {"serial_ms off by 1e-6 ms",
        RunFix([](igc::RunResult& r) { r.serial_ms += 1e-6; })},
       {"zero serial time", RunFix([](igc::RunResult& r) {
          r = igc::RunResult{};
        })}});

  using OutFix = std::function<void(igc::serve::RequestOutcome&)>;
  const double submit_ms = 9.5;
  expect_rejects<igc::serve::RequestOutcome>(
      failures, "check_outcome",
      [&](const igc::serve::RequestOutcome& o) {
        return check_outcome(o, submit_ms);
      },
      clean_outcome(),
      {{"enqueued before submit",
        OutFix([](igc::serve::RequestOutcome& o) { o.enqueue_ms = 9.0; })},
       {"scheduled before enqueue",
        OutFix([](igc::serve::RequestOutcome& o) { o.schedule_ms = 9.9; })},
       {"started before scheduled",
        OutFix([](igc::serve::RequestOutcome& o) { o.start_ms = 10.5; })},
       {"finished before started",
        OutFix([](igc::serve::RequestOutcome& o) { o.finish_ms = 11.5; })},
       {"empty batch",
        OutFix([](igc::serve::RequestOutcome& o) { o.batch_size = 0; })},
       {"no simulated latency", OutFix([](igc::serve::RequestOutcome& o) {
          o.sim_latency_ms = 0.0;
        })}});
  return failures;
}

}  // namespace perfbench
