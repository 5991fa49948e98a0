#include "core/session_context.h"

#include <iomanip>
#include <sstream>

#include "logical/plan_serde.h"
#include "physical/exchange_exec.h"

namespace fusion {
namespace core {

SessionContext::SessionContext(exec::SessionConfig config, exec::RuntimeEnvPtr env)
    : config_(config), env_(std::move(env)),
      default_catalog_(std::make_shared<catalog::MemoryCatalogProvider>()),
      catalog_(default_catalog_), registry_(logical::FunctionRegistry::Default()),
      optimizer_(optimizer::Optimizer::Default()),
      plan_cache_(config_.plan_cache_entries > 0
                      ? static_cast<size_t>(config_.plan_cache_entries)
                      : 0,
                  env_->plan_cache_stats) {}

std::shared_ptr<SessionContext> SessionContext::Make(exec::SessionConfig config,
                                                     exec::RuntimeEnvPtr env) {
  return std::shared_ptr<SessionContext>(
      new SessionContext(config, std::move(env)));
}

void SessionContext::SetCatalogProvider(catalog::CatalogProviderPtr catalog) {
  catalog_ = std::move(catalog);
  plan_cache_.Invalidate();
}

// Cached plans are keyed on the providers they scan, so a replaced table
// can never be served from the cache; evicting the plans over the old
// provider only frees them (and the provider) early.
Status SessionContext::RegisterTable(const std::string& name,
                                     catalog::TableProviderPtr table) {
  FUSION_ASSIGN_OR_RAISE(auto schema, catalog_->GetSchema("public"));
  auto replaced = schema->GetTable(name);
  FUSION_RETURN_NOT_OK(schema->RegisterTable(name, std::move(table)));
  if (replaced.ok()) plan_cache_.Evict(replaced->get());
  return Status::OK();
}

Status SessionContext::DeregisterTable(const std::string& name) {
  FUSION_ASSIGN_OR_RAISE(auto schema, catalog_->GetSchema("public"));
  auto dropped = schema->GetTable(name);
  FUSION_RETURN_NOT_OK(schema->DeregisterTable(name));
  if (dropped.ok()) plan_cache_.Evict(dropped->get());
  return Status::OK();
}

Status SessionContext::RegisterCsv(const std::string& name, const std::string& path,
                                   format::csv::Options options) {
  FUSION_ASSIGN_OR_RAISE(auto table,
                         catalog::CsvTable::Open({path}, std::move(options)));
  return RegisterTable(name, table);
}

Status SessionContext::RegisterFpq(const std::string& name,
                                   const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto table,
                         catalog::OpenTable(path, env_->cache_manager));
  return RegisterTable(name, table);
}

Status SessionContext::RegisterJson(const std::string& name,
                                    const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto table, catalog::JsonTable::Open({path}));
  return RegisterTable(name, table);
}

Status SessionContext::RegisterIpc(const std::string& name,
                                   const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto table, catalog::IpcTable::Open({path}));
  return RegisterTable(name, table);
}

Result<catalog::TableProviderPtr> SessionContext::GetTable(
    const std::string& name) const {
  FUSION_ASSIGN_OR_RAISE(auto schema, catalog_->GetSchema("public"));
  return schema->GetTable(name);
}

Result<logical::PlanPtr> SessionContext::CreateLogicalPlan(const std::string& sql) {
  logical::TableResolver resolver =
      [this](const std::string& name) -> Result<catalog::TableProviderPtr> {
    // Support "schema.table" references against the session catalog.
    auto dot = name.find('.');
    if (dot != std::string::npos) {
      FUSION_ASSIGN_OR_RAISE(auto schema, catalog_->GetSchema(name.substr(0, dot)));
      return schema->GetTable(name.substr(dot + 1));
    }
    return GetTable(name);
  };
  logical::SqlPlanner planner(resolver, registry_);
  return planner.PlanSql(sql);
}

Result<logical::PlanPtr> SessionContext::OptimizePlan(
    const logical::PlanPtr& plan) {
  return optimizer_.Optimize(plan);
}

std::string SessionContext::ConfigFingerprint() const {
  // Only knobs that change what the optimizer/planner produces belong
  // here; runtime-only knobs (timeouts, admission) are deliberately
  // excluded so they don't fragment the cache.
  std::ostringstream fp;
  fp << config_.batch_size << '|' << config_.target_partitions << '|'
     << config_.enable_predicate_pushdown << config_.enable_late_materialization
     << config_.enable_topk << config_.enable_partial_aggregation
     << config_.enable_symmetric_hash_join << config_.enable_partitioned_aggregation
     << config_.enable_morsel_scan << '|' << config_.runtime_filter_mode << '|'
     << config_.rf_max_build_rows << '|' << config_.rf_min_probe_ratio;
  return fp.str();
}

Result<logical::PlanPtr> SessionContext::OptimizeCached(
    const logical::PlanPtr& plan) {
  if (config_.plan_cache_entries <= 0) return optimizer_.Optimize(plan);
  std::vector<catalog::TableProviderPtr> scans;
  auto serialized = logical::SerializePlan(plan, &scans);
  if (!serialized.ok()) {
    // Plans that cannot round-trip (exotic nodes) just skip the cache.
    return optimizer_.Optimize(plan);
  }
  std::string key = ConfigFingerprint();
  key += '|';
  for (const auto& provider : scans) {
    const void* identity = provider.get();
    key.append(reinterpret_cast<const char*>(&identity), sizeof(identity));
  }
  key += '|';
  key.append(reinterpret_cast<const char*>(serialized->data()),
             serialized->size());
  if (auto cached = plan_cache_.Get(key)) return cached;
  FUSION_ASSIGN_OR_RAISE(auto optimized, optimizer_.Optimize(plan));
  plan_cache_.Put(key, optimized, std::move(scans));
  return optimized;
}

Result<exec::AdmissionTicket> SessionContext::AdmitQuery(
    const physical::ExecContextPtr& ctx) {
  exec::AdmissionLimits limits;
  limits.max_concurrent = config_.admission_max_concurrent;
  limits.max_queued = config_.admission_max_queued;
  limits.memory_watermark = config_.admission_memory_watermark;
  return env_->scheduler()->Admit(limits, env_->memory_pool.get(),
                                  ctx->cancel.get());
}

physical::ExecContextPtr SessionContext::MakeExecContext(
    exec::CancellationTokenPtr token) {
  auto ctx = std::make_shared<physical::ExecContext>();
  ctx->env = env_;
  ctx->config = config_;
  ctx->query_id = next_query_id_.fetch_add(1);
  if (config_.timeout_ms > 0) {
    // The session-wide deadline starts when the query starts executing.
    if (token == nullptr) token = exec::CancellationToken::Make();
    token->SetTimeout(config_.timeout_ms);
  }
  ctx->cancel = std::move(token);
  // Every parallel piece of this query — partition drivers, exchange
  // producers, nested collects — runs as a task in this group on the
  // shared scheduler; CollectAndFinish joins them all at the end.
  ctx->task_group = env_->scheduler()->MakeGroup();
  // Sideways-information-passing channels (hash-join build -> probe
  // scans) created by the physical planner live here per query.
  ctx->runtime_filters = std::make_shared<exec::RuntimeFilterRegistry>();
  return ctx;
}

namespace {

/// Top-level collect: after the results (or the error) are in, unwind
/// the query's task group so no task of this query outlives its
/// ExecuteSql call — cancellation, deadline expiry, and early-LIMIT
/// teardown all join through TaskGroup::Finish here.
Result<std::vector<RecordBatchPtr>> CollectAndFinish(
    const physical::ExecPlanPtr& plan, const physical::ExecContextPtr& ctx) {
  auto result = physical::ExecuteCollect(plan, ctx);
  Status join =
      ctx->task_group != nullptr ? ctx->task_group->Finish() : Status::OK();
  if (!result.ok()) return result;
  FUSION_RETURN_NOT_OK(join);
  return result;
}

}  // namespace

Result<physical::ExecPlanPtr> SessionContext::CreatePhysicalPlan(
    const logical::PlanPtr& plan) {
  physical::PhysicalPlanner planner(MakeExecContext());
  return planner.CreatePlan(plan);
}

Result<DataFrame> SessionContext::Sql(const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto plan, CreateLogicalPlan(sql));
  return DataFrame(shared_from_this(), std::move(plan));
}

Result<std::vector<RecordBatchPtr>> SessionContext::ExecuteSql(
    const std::string& sql, exec::CancellationTokenPtr token) {
  FUSION_ASSIGN_OR_RAISE(auto df, Sql(sql));
  return df.Collect(std::move(token));
}

Result<std::vector<RecordBatchPtr>> SessionContext::ExecuteSqlWithTimeout(
    const std::string& sql, int64_t timeout_ms) {
  return ExecuteSql(sql, exec::CancellationToken::WithTimeout(timeout_ms));
}

Result<QueryResult> SessionContext::ExecuteSqlWithMetrics(const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto plan, CreateLogicalPlan(sql));
  FUSION_ASSIGN_OR_RAISE(auto optimized, OptimizeCached(plan));
  auto ctx = MakeExecContext();
  FUSION_ASSIGN_OR_RAISE(auto ticket, AdmitQuery(ctx));
  physical::PhysicalPlanner planner(ctx);
  FUSION_ASSIGN_OR_RAISE(auto exec_plan, planner.CreatePlan(optimized));
  QueryResult out;
  // Finish (inside CollectAndFinish) runs before the metrics snapshot,
  // so producer-task metrics are final when collected.
  FUSION_ASSIGN_OR_RAISE(out.batches, CollectAndFinish(exec_plan, ctx));
  out.metrics = physical::CollectMetrics(*exec_plan);
  out.physical_plan = std::move(exec_plan);
  return out;
}

Result<DataFrame> SessionContext::Table(const std::string& name) {
  FUSION_ASSIGN_OR_RAISE(auto provider, GetTable(name));
  FUSION_ASSIGN_OR_RAISE(auto plan,
                         logical::MakeTableScan(name, std::move(provider)));
  return DataFrame(shared_from_this(), std::move(plan));
}

Result<DataFrame> SessionContext::ReadCsv(const std::string& path,
                                          format::csv::Options options) {
  FUSION_ASSIGN_OR_RAISE(auto table,
                         catalog::CsvTable::Open({path}, std::move(options)));
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeTableScan(path, table));
  return DataFrame(shared_from_this(), std::move(plan));
}

Result<DataFrame> SessionContext::ReadFpq(const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto table,
                         catalog::OpenTable(path, env_->cache_manager));
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeTableScan(path, table));
  return DataFrame(shared_from_this(), std::move(plan));
}

Result<DataFrame> SessionContext::ReadJson(const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto table, catalog::JsonTable::Open({path}));
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeTableScan(path, table));
  return DataFrame(shared_from_this(), std::move(plan));
}

Result<std::vector<RecordBatchPtr>> SessionContext::ExecutePlan(
    const logical::PlanPtr& plan, exec::CancellationTokenPtr token) {
  FUSION_ASSIGN_OR_RAISE(auto optimized, OptimizeCached(plan));
  auto ctx = MakeExecContext(std::move(token));
  // The admission ticket is held for the full collect: a slot frees
  // only when the query (and its task group) has fully unwound.
  FUSION_ASSIGN_OR_RAISE(auto ticket, AdmitQuery(ctx));
  physical::PhysicalPlanner planner(ctx);
  FUSION_ASSIGN_OR_RAISE(auto exec_plan, planner.CreatePlan(optimized));
  return CollectAndFinish(exec_plan, ctx);
}

// --------------------------------------------------------- QueryStream

QueryStream::QueryStream(physical::ExecContextPtr ctx, exec::AdmissionTicket ticket,
                         physical::ExecPlanPtr plan, exec::StreamPtr stream)
    : ctx_(std::move(ctx)), ticket_(std::move(ticket)), plan_(std::move(plan)),
      stream_(std::move(stream)), schema_(stream_->schema()) {}

QueryStream::~QueryStream() { Close(); }

Result<RecordBatchPtr> QueryStream::Next() {
  if (finished_) return RecordBatchPtr(nullptr);
  auto batch = stream_->Next();
  if (!batch.ok()) {
    finished_ = true;
    Close();
    return batch.status();
  }
  if (*batch == nullptr) {
    finished_ = true;
    // End of stream: join producer tasks now so errors they hit after
    // the consumer saw its last batch still fail the query.
    FUSION_RETURN_NOT_OK(Close());
    return RecordBatchPtr(nullptr);
  }
  return batch;
}

void QueryStream::Cancel() {
  if (ctx_ != nullptr && ctx_->cancel != nullptr) ctx_->cancel->Cancel();
}

Status QueryStream::Close() {
  if (closed_) return close_status_;
  closed_ = true;
  finished_ = true;
  // Drop the consumer first: parked producers of a coalesce exchange
  // wake via the queue-close unwind hooks that Finish() fires next.
  stream_.reset();
  close_status_ = ctx_ != nullptr && ctx_->task_group != nullptr
                      ? ctx_->task_group->Finish()
                      : Status::OK();
  // Admission slot frees only after the task group fully unwound.
  ticket_ = exec::AdmissionTicket();
  return close_status_;
}

Result<QueryStreamPtr> SessionContext::ExecuteSqlStream(
    const std::string& sql, exec::CancellationTokenPtr token) {
  FUSION_ASSIGN_OR_RAISE(auto plan, CreateLogicalPlan(sql));
  return ExecutePlanStream(plan, std::move(token));
}

Result<QueryStreamPtr> SessionContext::ExecutePlanStream(
    const logical::PlanPtr& plan, exec::CancellationTokenPtr token) {
  FUSION_ASSIGN_OR_RAISE(auto optimized, OptimizeCached(plan));
  auto ctx = MakeExecContext(std::move(token));
  FUSION_ASSIGN_OR_RAISE(auto ticket, AdmitQuery(ctx));
  physical::PhysicalPlanner planner(ctx);
  FUSION_ASSIGN_OR_RAISE(auto exec_plan, planner.CreatePlan(optimized));
  if (exec_plan->output_partitions() > 1) {
    // One consumer-facing stream; partition drivers become producer
    // tasks pushing into bounded queues, so pulling slowly (a slow
    // network client) back-pressures execution.
    exec_plan = std::make_shared<physical::CoalescePartitionsExec>(exec_plan);
  }
  auto stream = exec_plan->Execute(0, ctx);
  if (!stream.ok()) {
    // Opening failed after tasks may have spawned: unwind before
    // surfacing, so no producer outlives the error.
    if (ctx->task_group != nullptr) ctx->task_group->Finish();
    return stream.status();
  }
  return QueryStreamPtr(new QueryStream(std::move(ctx), std::move(ticket),
                                        std::move(exec_plan),
                                        std::move(*stream)));
}

Result<std::vector<RecordBatchPtr>> SessionContext::ExecutePhysical(
    const physical::ExecPlanPtr& plan, exec::CancellationTokenPtr token) {
  auto ctx = MakeExecContext(std::move(token));
  FUSION_ASSIGN_OR_RAISE(auto ticket, AdmitQuery(ctx));
  return CollectAndFinish(plan, ctx);
}

// ----------------------------------------------------------- DataFrame

Result<DataFrame> DataFrame::Select(std::vector<logical::ExprPtr> exprs) const {
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeProjection(plan_, std::move(exprs)));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::SelectColumns(
    const std::vector<std::string>& names) const {
  std::vector<logical::ExprPtr> exprs;
  for (const auto& n : names) exprs.push_back(logical::Col(n));
  return Select(std::move(exprs));
}

Result<DataFrame> DataFrame::Filter(logical::ExprPtr predicate) const {
  FUSION_ASSIGN_OR_RAISE(auto plan,
                         logical::MakeFilter(plan_, std::move(predicate)));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Aggregate(
    std::vector<logical::ExprPtr> group_exprs,
    std::vector<logical::ExprPtr> aggregates) const {
  FUSION_ASSIGN_OR_RAISE(auto plan,
                         logical::MakeAggregate(plan_, std::move(group_exprs),
                                                std::move(aggregates)));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Sort(std::vector<logical::SortExpr> sort_exprs) const {
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeSort(plan_, std::move(sort_exprs)));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Limit(int64_t skip, int64_t fetch) const {
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeLimit(plan_, skip, fetch));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Join(const DataFrame& right, logical::JoinKind kind,
                                  const std::vector<std::string>& left_cols,
                                  const std::vector<std::string>& right_cols) const {
  if (left_cols.size() != right_cols.size()) {
    return Status::Invalid("join key lists must align");
  }
  std::vector<std::pair<logical::ExprPtr, logical::ExprPtr>> on;
  for (size_t i = 0; i < left_cols.size(); ++i) {
    on.emplace_back(logical::Col(left_cols[i]), logical::Col(right_cols[i]));
  }
  FUSION_ASSIGN_OR_RAISE(auto plan,
                         logical::MakeJoin(plan_, right.plan_, kind, std::move(on)));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Union(const DataFrame& other) const {
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeUnion({plan_, other.plan_}));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::Distinct() const {
  FUSION_ASSIGN_OR_RAISE(auto plan, logical::MakeDistinct(plan_));
  return DataFrame(ctx_, std::move(plan));
}

Result<DataFrame> DataFrame::WithColumn(const std::string& name,
                                        logical::ExprPtr expr) const {
  std::vector<logical::ExprPtr> exprs;
  const logical::PlanSchema& s = plan_->schema();
  for (int i = 0; i < s.num_fields(); ++i) {
    exprs.push_back(logical::Col(s.qualifier(i), s.field(i).name()));
  }
  exprs.push_back(logical::AliasExpr(std::move(expr), name));
  return Select(std::move(exprs));
}

Result<DataFrame> DataFrame::Window(
    std::vector<logical::ExprPtr> window_exprs) const {
  FUSION_ASSIGN_OR_RAISE(auto plan,
                         logical::MakeWindow(plan_, std::move(window_exprs)));
  return DataFrame(ctx_, std::move(plan));
}

Result<std::vector<RecordBatchPtr>> DataFrame::Collect(
    exec::CancellationTokenPtr token) const {
  return ctx_->ExecutePlan(plan_, std::move(token));
}

Result<int64_t> DataFrame::Count() const {
  FUSION_ASSIGN_OR_RAISE(auto batches, Collect());
  int64_t rows = 0;
  for (const auto& b : batches) rows += b->num_rows();
  return rows;
}

Result<logical::PlanPtr> DataFrame::OptimizedPlan() const {
  return ctx_->OptimizePlan(plan_);
}

Result<std::string> DataFrame::ShowString(int64_t max_rows) const {
  FUSION_ASSIGN_OR_RAISE(auto batches, Collect());
  return FormatBatches(batches, max_rows);
}

std::string FormatBatches(const std::vector<RecordBatchPtr>& batches,
                          int64_t max_rows) {
  if (batches.empty()) return "(no rows)\n";
  const SchemaPtr& schema = batches[0]->schema();
  const int cols = schema->num_fields();
  std::vector<std::vector<std::string>> rows;
  rows.emplace_back();
  for (int c = 0; c < cols; ++c) rows.back().push_back(schema->field(c).name());
  int64_t shown = 0;
  int64_t total = 0;
  for (const auto& b : batches) {
    total += b->num_rows();
    for (int64_t r = 0; r < b->num_rows() && shown < max_rows; ++r, ++shown) {
      rows.emplace_back();
      for (int c = 0; c < cols; ++c) {
        rows.back().push_back(b->column(c)->ValueToString(r));
      }
    }
  }
  std::vector<size_t> widths(cols, 0);
  for (const auto& row : rows) {
    for (int c = 0; c < cols; ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto rule = [&]() {
    out << "+";
    for (int c = 0; c < cols; ++c) {
      out << std::string(widths[c] + 2, '-') << "+";
    }
    out << "\n";
  };
  rule();
  for (size_t r = 0; r < rows.size(); ++r) {
    out << "|";
    for (int c = 0; c < cols; ++c) {
      out << " " << std::setw(static_cast<int>(widths[c])) << std::left << rows[r][c]
          << " |";
    }
    out << "\n";
    if (r == 0) rule();
  }
  rule();
  if (total > shown) {
    out << "(" << shown << " of " << total << " rows shown)\n";
  }
  return out.str();
}

}  // namespace core
}  // namespace fusion
