// perfbench: sets up, runs and checks one workload, and prints one JSON
// result line. Usage:
//   perfbench --workload tpch|clickbench|h2o|serving --seed N --seconds S --trace 0|1
// Generated files live in .bench_work/ while the run lasts; a traced run
// writes its spans to .bench_traces/<workload>-seed<N>.json.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "runner.h"
#include "workloads.h"

namespace {

// Input sizes: one untraced suite pass takes about a second on a 4-core
// host, so a run holds several passes.
constexpr double kTpchScaleFactor = 0.04;
constexpr int64_t kHitsRows = 250'000;
constexpr int kHitsFiles = 16;
constexpr int64_t kH2oRows = 250'000;
constexpr int64_t kH2oGroups = 100;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpch|clickbench|h2o|serving --seed N --seconds S "
               "--trace 0|1\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      Usage(argv[0]);
    }
  }
  options.work_dir = ".bench_work/" + options.workload + "-" + std::to_string(::getpid());
  if (options.trace) std::filesystem::create_directories(".bench_traces");
  options.trace_path = ".bench_traces/" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".json";

  perfbench::Report report;
  const uint64_t seed = options.seed;
  if (options.workload == "tpch") {
    perfbench::RunAnalytic(options, perfbench::MakeTpch(seed, kTpchScaleFactor), &report);
  } else if (options.workload == "clickbench") {
    perfbench::RunAnalytic(options, perfbench::MakeClickBench(seed, kHitsRows, kHitsFiles),
                           &report);
  } else if (options.workload == "h2o") {
    perfbench::RunAnalytic(options, perfbench::MakeH2o(seed, kH2oRows, kH2oGroups), &report);
  } else if (options.workload == "serving") {
    perfbench::RunServing(options, &report);
  } else {
    Usage(argv[0]);
  }
  std::filesystem::remove_all(options.work_dir);
  if (report.attempted == 0) report.attempted = 1;  // set-up itself failed
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct && report.failed == 0 ? 0 : 1;
}
