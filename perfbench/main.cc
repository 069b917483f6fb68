// spardl_perfbench: the end-to-end benchmark binary. Runs one workload
// for a fixed wall window, checks every update, prints a human-readable
// table and, as its last stdout line, one JSON object with every metric,
// the deterministic values and the captured environment. perfbench/run.py
// builds this binary and turns that line into the benchmark's result.
//
//   spardl_perfbench --workload update-flat-p14 --seed 1 --seconds 10
//                    --trace 0|1 [--spans-out PATH] [--commit SHA]
//                    [--source-digest HEX]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "spardl_perfbench: %s\n"
               "usage: spardl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH] [--commit SHA] "
               "[--source-digest HEX]\n"
               "workloads: update-flat-p14 update-fattree-p1024 "
               "train-lstm-p4\n",
               why.c_str());
  std::exit(2);
}

struct Args {
  RunOptions run;
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.run.seconds <= 0.0) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

std::string ReadLoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  std::string five;
  std::string fifteen;
  if (!(in >> one >> five >> fifteen)) return "unknown";
  return one + " " + five + " " + fifteen;
}

std::string JsonString(const std::string& s) {
  return "\"" + spardl::JsonEscape(s) + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& s : items) {
    if (out.size() > 1) out += ", ";
    out += JsonString(s);
  }
  return out + "]";
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  if (m.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const std::vector<std::string> neutralised = NeutraliseEnvironment();
  const std::string load_at_start = ReadLoadAverage();
  const Args args = Parse(argc, argv);

  const std::map<std::string, std::function<WorkloadResult(
                                  const RunOptions&)>>
      workloads = {{"update-flat-p14", RunUpdateFlatP14},
                   {"update-fattree-p1024", RunUpdateFatTreeP1024},
                   {"train-lstm-p4", RunTrainLstmP4}};
  const auto it = workloads.find(args.run.workload);
  if (it == workloads.end()) Usage("unknown workload " + args.run.workload);

  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const std::string env_json =
      "{\"commit\": " + JsonString(args.commit) +
      ", \"source_digest\": " + JsonString(args.source_digest) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"host\": " + JsonString(host) +
      ", \"loadavg_at_start\": " + JsonString(load_at_start) +
      ", \"neutralised_env\": " + StringsJson(neutralised) +
      ", \"workload\": " + JsonString(args.run.workload) +
      ", \"seed\": " + std::to_string(args.run.seed) +
      ", \"seconds\": " + Num(args.run.seconds) +
      ", \"trace\": " + (args.run.trace ? "true" : "false") + "}";
  std::printf("spardl perfbench: %s seed=%llu seconds=%g trace=%d\n",
              args.run.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed),
              args.run.seconds, args.run.trace ? 1 : 0);
  std::printf("env: %s\n", env_json.c_str());
  for (const std::string& name : neutralised) {
    std::printf("environment: unset %s (it changes the measured "
                "configuration)\n", name.c_str());
  }
  std::fflush(stdout);

  const WorkloadResult result = it->second(args.run);

  if (args.run.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << result.spans->Json(env_json);
    if (!out) {
      std::fprintf(stderr, "spardl_perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }

  PrintTable("end-to-end:", result.end_to_end);
  PrintTable("per-layer (traced run):", result.per_layer);
  PrintTable("also measured:", result.info);
  std::printf("updates attempted %lld, failed %lld, error_rate %.6f\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0);
  for (const std::string& f : result.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }

  std::string deterministic = "{";
  for (const auto& [name, v] : result.deterministic) {
    if (deterministic.size() > 1) deterministic += ", ";
    deterministic += JsonString(name) + ": " + Num(v);
  }
  deterministic += "}";
  std::printf(
      "{\"attempted\": %lld, \"failed\": %lld, \"problems\": %s, "
      "\"failures\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"info\": %s, \"deterministic\": %s, \"env\": %s}\n",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed),
      StringsJson(result.problems).c_str(),
      StringsJson(result.failures).c_str(),
      MetricsJson(result.end_to_end).c_str(),
      MetricsJson(result.per_layer).c_str(),
      MetricsJson(result.info).c_str(), deterministic.c_str(),
      env_json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
