// byzbench: one workload run of the byzrename benchmark.
//
//   byzbench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-dir DIR] [--corrupt]
//
// Prints the metrics as a table, a provenance line (machine
// fingerprint, seed, digest of the generated inputs) and, last, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 when any output was wrong, 2 on usage errors.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/http/buildinfo.h"
#include "obs/prof/alloc_interpose.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "byzbench: %s\nusage: byzbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR] [--corrupt]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-dir" && has_value) {
      options.spans_dir = argv[++i];
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      return usage(("unknown argument: " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  const bool alg1 = options.workload == "alg1_split" || options.workload == "alg1_silent_dup";
  if (!alg1 && options.workload != "campaign_small" && options.workload != "service_open") {
    return usage(("unknown workload: " + options.workload).c_str());
  }
  Report report;
  if (alg1) {
    report = run_alg1(options);
  } else if (options.workload == "campaign_small") {
    report = run_campaign(options);
  } else {
    report = run_service(options);
  }
  report.metrics["peak_rss_mb"] = peak_rss_mb();

  const std::vector<MetricDef>& defs = options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto found = report.metrics.find(def.name);
    double value = 0;  // a layer this workload does not reach
    if (found != report.metrics.end()) {
      value = found->second;
    } else if (!options.trace) {
      std::fprintf(stderr, "byzbench: workload did not measure %s\n", def.name);
      return 3;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "byzbench: %s is not a finite number\n", def.name);
      return 3;
    }
    std::printf("%-26s %18.9g %s\n", def.name, value, def.unit);
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buffer;
  }
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  if (!report.invalid.empty()) std::printf("# invalid run: %s\n", report.invalid.c_str());
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "byzbench: wrong output: %s\n", error.c_str());
  }

  const byzrename::obs::BuildInfo& build = byzrename::obs::build_info();
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(report.input_digest));
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"input_digest\": \"%s\", \"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"valid\": %s, \"invalid_reason\": %s}}\n",
      json_string(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, digest, std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(), json_string(build.compiler).c_str(),
      json_string(build.build_type).c_str(), report.invalid.empty() ? "true" : "false",
      json_string(report.invalid).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
