// Request-path benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload against the program built from this repository's
// sources and prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. Exits 0 when the run
// completed (its checks may still report correct=false), 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload http-tenants-open|binary-pipelined-closed|"
               "sched-skewed-durable --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start_ns = perfbench::NowNs();
  // Set-up runs on one CPU away from the first (which takes most device
  // interrupts on small VMs), so the cold set-up time is not moved by
  // migrations; each workload re-pins its threads once set up.
  options.cpus = perfbench::AllowedCpus();
  if (!options.cpus.empty()) {
    perfbench::PinCurrentThread({options.cpus[options.cpus.size() / 2]});
  }
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage(argv[0]);

  perfbench::RunResult result;
  if (workload == "http-tenants-open") {
    result = perfbench::RunHttpTenantsOpen(options);
  } else if (workload == "binary-pipelined-closed") {
    result = perfbench::RunBinaryPipelinedClosed(options);
  } else if (workload == "sched-skewed-durable") {
    result = perfbench::RunSchedSkewedDurable(options);
  } else {
    return Usage(argv[0]);
  }

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
