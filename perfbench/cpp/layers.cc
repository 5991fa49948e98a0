#include "layers.h"

#include <cstdio>
#include <filesystem>

#include "baseline/tie_engine.h"
#include "catalog/file_tables.h"
#include "format/csv.h"
#include "format/fpq.h"
#include "physical/execution_plan.h"

namespace perfbench {

using namespace fusion;  // NOLINT

Result<std::vector<WrittenTable>> WriteTables(const std::vector<TableData>& tables,
                                              const std::string& dir, Tracer* tracer,
                                              int64_t parent) {
  std::filesystem::create_directories(dir);
  std::vector<WrittenTable> out;
  for (const TableData& t : tables) {
    ScopedSpan span(tracer, "format.write", parent, 0);
    WrittenTable w;
    w.name = t.name;
    w.csv = t.csv;
    if (t.csv) {
      w.paths.push_back(dir + "/" + t.name + ".csv");
      FUSION_RETURN_NOT_OK(format::csv::WriteFile(w.paths[0], t.batches));
    } else {
      int64_t rows = 0;
      for (const auto& b : t.batches) rows += b->num_rows();
      format::fpq::WriteOptions options;
      options.row_group_rows = t.row_group_rows;
      // File f holds rows [f * rows / files, (f + 1) * rows / files).
      size_t batch = 0;
      int64_t batch_offset = 0;
      for (int f = 0; f < t.files; ++f) {
        int64_t want = (f + 1) * rows / t.files - f * rows / t.files;
        std::vector<RecordBatchPtr> slices;
        while (want > 0 && batch < t.batches.size()) {
          const RecordBatchPtr& b = t.batches[batch];
          const int64_t take = std::min(want, b->num_rows() - batch_offset);
          slices.push_back(b->Slice(batch_offset, take));
          want -= take;
          batch_offset += take;
          if (batch_offset == b->num_rows()) {
            ++batch;
            batch_offset = 0;
          }
        }
        char name[64];
        std::snprintf(name, sizeof(name), "/%s_%03d.fpq", t.name.c_str(), f);
        w.paths.push_back(dir + name);
        FUSION_RETURN_NOT_OK(format::fpq::WriteFile(w.paths.back(), t.schema, slices, options));
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

Status RegisterTables(core::SessionContext* session, const std::vector<WrittenTable>& tables,
                      bool pushdown, Tracer* tracer, int64_t parent) {
  for (const WrittenTable& t : tables) {
    ScopedSpan span(tracer, "catalog.open", parent, 0);
    if (t.csv) {
      FUSION_RETURN_NOT_OK(session->RegisterCsv(t.name, t.paths[0]));
    } else {
      FUSION_ASSIGN_OR_RAISE(auto table, catalog::FpqTable::Open(t.paths));
      table->SetPushdownEnabled(pushdown);
      FUSION_RETURN_NOT_OK(session->RegisterTable(t.name, table));
    }
  }
  return Status::OK();
}

namespace {

std::string OperatorKind(const std::string& name) {
  if (name == "ScanExec") return "scan";
  if (name.find("Aggregate") != std::string::npos) return "aggregate";
  if (name.find("Join") != std::string::npos) return "join";
  if (name == "SortExec" || name == "SortPreservingMergeExec") return "sort";
  if (name == "FilterExec" || name == "ProjectionExec") return "filter_project";
  if (name == "WindowExec") return "window";
  if (name == "CoalescePartitionsExec" || name == "RepartitionExec" ||
      name == "CoalesceBatchesExec") {
    return "exchange";
  }
  return "other";
}

void Accumulate(const physical::PlanMetricsNode& node, LayerStats* stats,
                std::map<std::string, int64_t>* op_ns, int64_t* reserved) {
  (*op_ns)[OperatorKind(node.name)] += node.elapsed_compute_ns;
  stats->queue_wait_ns += node.queue_wait_ns;
  stats->tasks_spawned += node.tasks_spawned;
  if (node.name == "ScanExec") {
    stats->rows_scanned += node.output_rows;
    stats->dict_rows += node.dict_rows;
  }
  stats->rf_checked_rows += node.rf_checked_rows;
  stats->rf_pruned_rows += node.rf_pruned_rows;
  stats->partial_groups += node.partial_groups;
  stats->bypass_rows += node.bypass_rows;
  stats->spill_bytes += node.spill_bytes;
  *reserved += node.mem_reserved_bytes;
  for (const auto& child : node.children) Accumulate(child, stats, op_ns, reserved);
}

double Ratio(int64_t part, int64_t base) {
  return base > 0 ? static_cast<double>(part) / static_cast<double>(base) : 0.0;
}

}  // namespace

Result<std::vector<RecordBatchPtr>> ExecuteTraced(core::SessionContext* session,
                                                  const std::string& sql, Tracer* tracer,
                                                  LayerStats* stats) {
  const int64_t query = tracer->NewQueryId();
  ScopedSpan root(tracer, "query", 0, query);
  logical::PlanPtr plan, optimized;
  physical::ExecPlanPtr exec_plan;
  {
    ScopedSpan span(tracer, "sql.plan", root.id(), query);
    FUSION_ASSIGN_OR_RAISE(plan, session->CreateLogicalPlan(sql));
  }
  {
    ScopedSpan span(tracer, "optimizer.optimize", root.id(), query);
    FUSION_ASSIGN_OR_RAISE(optimized, session->OptimizePlan(plan));
  }
  {
    ScopedSpan span(tracer, "physical.plan", root.id(), query);
    FUSION_ASSIGN_OR_RAISE(exec_plan, session->CreatePhysicalPlan(optimized));
  }
  ScopedSpan execute(tracer, "physical.execute", root.id(), query);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  auto result = session->ExecutePhysical(exec_plan);
  const int64_t t1 = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  execute.End();
  if (!result.ok()) return result;

  stats->queries += 1;
  stats->execute_wall_s += static_cast<double>(t1 - t0) * 1e-9;
  stats->execute_cpu_s += cpu1 - cpu0;
  std::map<std::string, int64_t> op_ns;
  int64_t reserved = 0;
  Accumulate(physical::CollectMetrics(*exec_plan), stats, &op_ns, &reserved);
  stats->mem_reserved_peak = std::max(stats->mem_reserved_peak, reserved);
  for (const auto& [kind, ns] : op_ns) {
    stats->op_ns[kind] += ns;
    // Rollups are durations summed over partitions, not intervals: each
    // is recorded from the start of its execute span.
    tracer->Add("op." + kind, t0, t0 + ns, execute.id(), query);
  }
  return result;
}

void ReportQueryLayers(const Tracer& tracer, const LayerStats& stats, Report* report) {
  const double n = std::max<int64_t>(stats.queries, 1);
  report->Set("sql.plan_ms", tracer.MeanMs("sql.plan"), "ms");
  report->Set("optimizer.optimize_ms", tracer.MeanMs("optimizer.optimize"), "ms");
  report->Set("physical.plan_ms", tracer.MeanMs("physical.plan"), "ms");
  report->Set("physical.execute_ms", tracer.MeanMs("physical.execute"), "ms");
  auto op_ms = [&](const char* kind) {
    auto it = stats.op_ns.find(kind);
    return it == stats.op_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-6 / n;
  };
  report->Set("format.scan_ms", op_ms("scan"), "ms");
  report->Set("physical.aggregate_ms", op_ms("aggregate"), "ms");
  report->Set("physical.join_ms", op_ms("join"), "ms");
  report->Set("physical.sort_ms", op_ms("sort"), "ms");
  report->Set("physical.filter_project_ms", op_ms("filter_project"), "ms");
  report->Set("physical.window_ms", op_ms("window"), "ms");
  report->Set("physical.exchange_ms", op_ms("exchange"), "ms");
  report->Set("exec.cores_used",
              stats.execute_wall_s > 0 ? stats.execute_cpu_s / stats.execute_wall_s : 0,
              "cores");
  report->Set("exec.queue_wait_ms", static_cast<double>(stats.queue_wait_ns) * 1e-6 / n, "ms");
  report->Set("exec.tasks_spawned", static_cast<double>(stats.tasks_spawned) / n, "count");
  report->Set("format.rows_scanned", static_cast<double>(stats.rows_scanned) / n, "count");
  report->Set("format.dict_row_ratio", Ratio(stats.dict_rows, stats.rows_scanned), "ratio");
  report->Set("exec.rf_checked_rows", static_cast<double>(stats.rf_checked_rows) / n, "count");
  report->Set("exec.rf_prune_ratio", Ratio(stats.rf_pruned_rows, stats.rf_checked_rows),
              "ratio");
  report->Set("physical.partial_groups", static_cast<double>(stats.partial_groups) / n,
              "count");
  report->Set("physical.bypass_rows", static_cast<double>(stats.bypass_rows) / n, "count");
  report->Set("exec.mem_reserved_peak_mb", static_cast<double>(stats.mem_reserved_peak) / 1e6,
              "MB");
  report->Set("exec.spill_bytes", static_cast<double>(stats.spill_bytes), "bytes");
}

Result<std::vector<RecordBatchPtr>> ExecuteTie(core::SessionContext* session,
                                               const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto plan, session->CreateLogicalPlan(sql));
  FUSION_ASSIGN_OR_RAISE(auto optimized, session->OptimizePlan(plan));
  baseline::TieEngine engine;
  return engine.Execute(optimized);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sql.plan_ms", "ms"},
      {"optimizer.optimize_ms", "ms"},
      {"physical.plan_ms", "ms"},
      {"physical.execute_ms", "ms"},
      {"format.scan_ms", "ms"},
      {"physical.aggregate_ms", "ms"},
      {"physical.join_ms", "ms"},
      {"physical.sort_ms", "ms"},
      {"physical.filter_project_ms", "ms"},
      {"physical.window_ms", "ms"},
      {"physical.exchange_ms", "ms"},
      {"exec.cores_used", "cores"},
      {"exec.queue_wait_ms", "ms"},
      {"exec.tasks_spawned", "count"},
      {"format.rows_scanned", "count"},
      {"format.dict_row_ratio", "ratio"},
      {"exec.rf_checked_rows", "count"},
      {"exec.rf_prune_ratio", "ratio"},
      {"physical.partial_groups", "count"},
      {"physical.bypass_rows", "count"},
      {"exec.mem_reserved_peak_mb", "MB"},
      {"exec.spill_bytes", "bytes"},
      {"format.write_ms", "ms"},
      {"catalog.open_ms", "ms"},
      {"flight.get_ms", "ms"},
      {"flight.wire_overhead_ms", "ms"},
      {"arrow.ipc_serialize_ms", "ms"},
      {"arrow.ipc_deserialize_ms", "ms"},
      {"flight.put_ms", "ms"},
      {"flight.bytes_sent_per_query", "bytes"},
      {"core.plan_cache_lookups", "count"},
      {"core.plan_cache_hit_ratio", "ratio"},
      {"exec.buffer_cache_lookups", "count"},
      {"exec.buffer_cache_hit_ratio", "ratio"},
      {"exec.admission_queued", "count"},
      {"exec.peak_threads", "count"},
  };
  return kMetrics;
}

}  // namespace perfbench
