// Calls into the engine's public API shared by both runners: writing
// and registering the generated tables, running one query through the
// planning phases with a span around each, and rolling the operator
// metrics up into per-layer figures.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/session_context.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

struct WrittenTable {
  std::string name;
  std::vector<std::string> paths;
  bool csv = false;
};

/// Write every table under `dir` through the engine's FPQ or CSV writer
/// (one "format.write" span per table).
fusion::Result<std::vector<WrittenTable>> WriteTables(const std::vector<TableData>& tables,
                                                      const std::string& dir,
                                                      Tracer* tracer, int64_t parent);

/// Open and register the written tables (one "catalog.open" span per
/// table). `pushdown` off gives the TIE engine plain scans.
fusion::Status RegisterTables(fusion::core::SessionContext* session,
                              const std::vector<WrittenTable>& tables, bool pushdown,
                              Tracer* tracer, int64_t parent);

/// Counters summed over traced query executions.
struct LayerStats {
  int64_t queries = 0;
  double execute_wall_s = 0;
  double execute_cpu_s = 0;
  /// Operator exclusive time by kind (ns): scan, aggregate, join, sort,
  /// filter_project, window, exchange, other.
  std::map<std::string, int64_t> op_ns;
  int64_t queue_wait_ns = 0;
  int64_t tasks_spawned = 0;
  int64_t rows_scanned = 0;
  int64_t dict_rows = 0;
  int64_t rf_checked_rows = 0;
  int64_t rf_pruned_rows = 0;
  int64_t partial_groups = 0;
  int64_t bypass_rows = 0;
  int64_t spill_bytes = 0;
  int64_t mem_reserved_peak = 0;
};

/// Run `sql` through CreateLogicalPlan, OptimizePlan, CreatePhysicalPlan
/// and ExecutePhysical, with a span around each under one "query" span,
/// and the operator rollups as children of "physical.execute".
fusion::Result<std::vector<fusion::RecordBatchPtr>> ExecuteTraced(
    fusion::core::SessionContext* session, const std::string& sql, Tracer* tracer,
    LayerStats* stats);

/// Report the planning/execution per-layer metrics (per query, means).
void ReportQueryLayers(const Tracer& tracer, const LayerStats& stats, Report* report);

/// Run `sql` on the TIE engine through `session`'s front end.
fusion::Result<std::vector<fusion::RecordBatchPtr>> ExecuteTie(
    fusion::core::SessionContext* session, const std::string& sql);

/// Every per-layer metric name with its unit, in report order; traced
/// runs report each one (0 where the workload does not use the layer).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
