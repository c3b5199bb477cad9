// perfbench: the repository benchmark binary.
//
//   perfbench --workload <traverse|device_swap|fleet_outage> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--payload-cache-kib <n>]
//
// Runs one workload through the library's public API, checks its outputs,
// and prints one JSON line with every metric it measured plus the digest
// of the simulated outcome. perfbench/run.py builds this binary, selects
// the metrics BENCHMARK.json names and prints the benchmark's result line.
// A failed correctness check exits 1 without printing metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <traverse|device_swap|"
               "fleet_outage> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--payload-cache-kib <n>]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--payload-cache-kib") {
      options->payload_cache_kib = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  perfbench::WorkloadOutcome outcome;
  bool ok = false;
  if (options.workload == "traverse") {
    ok = perfbench::RunTraverse(options, &outcome);
  } else if (options.workload == "device_swap") {
    ok = perfbench::RunDeviceSwap(options, &outcome);
  } else if (options.workload == "fleet_outage") {
    ok = perfbench::RunFleetOutage(options, &outcome);
  } else {
    Usage();
    return 2;
  }
  if (!ok) return 1;
  for (const auto& [name, metric] : outcome.metrics.all()) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%s\", \"input_digest\": \"%s\", \"metrics\": {",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.digest.c_str(), outcome.input_digest.c_str());
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
