// The two workload runners: analytic suites (tpch, clickbench, h2o)
// and flight serving.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <string>

#include "util.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< written data; removed when the run ends
  std::string trace_path;  ///< span dump of a traced run
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

void RunAnalytic(const RunOptions& options, AnalyticWorkload workload, Report* report);
void RunServing(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
