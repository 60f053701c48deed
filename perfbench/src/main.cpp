// igc benchmark program. Usage:
//
//   igc_perfbench --workload zoo_jit|serve_paced|serve_host --seed N
//                 --seconds S --trace 0|1 --workdir DIR
//   igc_perfbench --selftest
//
// Prints progress lines starting with '#', then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer split. Every run first runs the checker
// self-test. run.py builds this program and calls it; see ../README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: igc_perfbench --workload zoo_jit|serve_paced|serve_host "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n"
               "       igc_perfbench --selftest\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return usage();
    }
  }

  const std::vector<std::string> selftest_failures = perfbench::selftest();
  for (const std::string& f : selftest_failures) {
    std::fprintf(stderr, "selftest: %s\n", f.c_str());
  }
  if (selftest_only) {
    std::printf("selftest: %s\n", selftest_failures.empty() ? "ok" : "FAILED");
    return selftest_failures.empty() ? 0 : 1;
  }
  if (args.workdir.empty()) return usage();

  perfbench::Result result;
  try {
    if (args.workload == "zoo_jit") {
      result = perfbench::run_zoo_jit(args);
    } else if (args.workload == "serve_paced") {
      result = perfbench::run_serve_paced(args);
    } else if (args.workload == "serve_host") {
      result = perfbench::run_serve_host(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& f : selftest_failures) {
    result.check("selftest", f);
  }
  constexpr size_t kMaxErrors = 20;
  for (size_t i = 0; i < result.errors.size() && i < kMaxErrors; ++i) {
    std::fprintf(stderr, "check failed: %s\n", result.errors[i].c_str());
  }
  if (result.errors.size() > kMaxErrors) {
    std::fprintf(stderr, "... %zu more failed checks\n",
                 result.errors.size() - kMaxErrors);
  }
  print_result(result);
  return 0;
}
