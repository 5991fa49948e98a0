#include "physical/aggregate_exec.h"

#include <cstdlib>
#include <numeric>

#include "arrow/builder.h"
#include "arrow/ipc.h"
#include "compute/cast.h"
#include "compute/group_table.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "exec/memory_pool.h"

namespace fusion {
namespace physical {

namespace {

using logical::GroupedAccumulator;

/// In-memory grouping state: the vectorized group table (key -> dense
/// group id, keys arena-allocated) plus one accumulator per aggregate
/// covering all groups.
struct GroupingState {
  compute::GroupTable table;
  /// Global (no GROUP BY) aggregates bypass the table: one implicit
  /// group that exists once input has been seen.
  bool global_group = false;
  std::vector<std::unique_ptr<GroupedAccumulator>> accumulators;

  explicit GroupingState(std::vector<DataType> key_types)
      : table(std::move(key_types)) {}

  int64_t num_groups() const {
    if (table.key_types().empty()) return global_group ? 1 : 0;
    return table.num_groups();
  }

  int64_t SizeBytes() const {
    int64_t total = table.SizeBytes();
    for (const auto& acc : accumulators) total += acc->SizeBytes();
    return total;
  }
};

Result<std::vector<uint8_t>> EvaluateFilterMask(const PhysicalExprPtr& filter,
                                                const RecordBatch& batch) {
  std::vector<uint8_t> mask;
  if (filter == nullptr) return mask;
  FUSION_ASSIGN_OR_RAISE(auto arr, EvaluatePredicateMask(*filter, batch));
  const auto& bm = checked_cast<BooleanArray>(*arr);
  mask.resize(static_cast<size_t>(batch.num_rows()), 0);
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    mask[i] = bm.IsValid(i) && bm.Value(i) ? 1 : 0;
  }
  return mask;
}

}  // namespace

std::string HashAggregateExec::ToStringLine() const {
  std::string mode;
  switch (mode_) {
    case AggregateMode::kPartial: mode = "partial"; break;
    case AggregateMode::kFinal: mode = "final"; break;
    case AggregateMode::kSingle: mode = "single"; break;
  }
  std::string out = "HashAggregateExec(" + mode + "): groups=[";
  for (size_t i = 0; i < group_names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_names_[i];
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates_[i].output_name;
  }
  out += "]";
  return out;
}

Result<exec::StreamPtr> HashAggregateExec::ExecuteImpl(int partition,
                                                   const ExecContextPtr& ctx) {
  FUSION_ASSIGN_OR_RAISE(auto input, input_->Execute(partition, ctx));
  SchemaPtr schema = schema_;
  const bool no_groups = group_exprs_.empty();

  std::vector<DataType> key_types;
  for (const auto& g : group_exprs_) key_types.push_back(g->type());

  auto make_state = [&]() -> Result<std::unique_ptr<GroupingState>> {
    auto state = std::make_unique<GroupingState>(key_types);
    for (const auto& agg : aggregates_) {
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      state->accumulators.push_back(std::move(acc));
    }
    return state;
  };
  FUSION_ASSIGN_OR_RAISE(auto state, make_state());

  std::string consumer = "agg-" + std::to_string(ctx->query_id) + "-" +
                         std::to_string(partition);
  exec::MemoryReservation reservation(ctx->env->memory_pool, consumer);
  std::vector<exec::SpillFilePtr> spill_files;
  auto spill_count = metrics_->Counter(exec::metric::kSpillCount, partition);
  auto spill_bytes = metrics_->Counter(exec::metric::kSpillBytes, partition);
  auto mem_reserved = metrics_->Gauge(exec::metric::kMemReservedBytes, partition);

  // Emit (group keys + per-aggregate output) for a state object. When
  // the column layout does not match schema_ (spill paths emit partial
  // state from a final-mode operator), an ad-hoc schema is built.
  auto emit = [&](GroupingState& s, bool partial_output)
      -> Result<std::vector<RecordBatchPtr>> {
    int64_t total = s.num_groups();
    if (total == 0 && no_groups) {
      // SQL: a global aggregate over empty input still yields one row.
      for (auto& acc : s.accumulators) acc->Resize(1);
      s.global_group = true;
      total = 1;
    }
    std::vector<ArrayPtr> key_columns;
    if (!no_groups) {
      FUSION_ASSIGN_OR_RAISE(key_columns, s.table.DecodeGroupKeys());
    }
    std::vector<ArrayPtr> agg_columns;
    for (size_t a = 0; a < s.accumulators.size(); ++a) {
      s.accumulators[a]->Resize(total);
      if (partial_output) {
        FUSION_ASSIGN_OR_RAISE(auto cols, s.accumulators[a]->PartialState());
        for (auto& c : cols) agg_columns.push_back(std::move(c));
      } else {
        FUSION_ASSIGN_OR_RAISE(auto col, s.accumulators[a]->Finish());
        agg_columns.push_back(std::move(col));
      }
    }
    std::vector<ArrayPtr> columns = std::move(key_columns);
    for (auto& c : agg_columns) columns.push_back(std::move(c));
    SchemaPtr out_schema = schema;
    if (static_cast<int>(columns.size()) != schema->num_fields()) {
      std::vector<Field> fields;
      for (size_t i = 0; i < columns.size(); ++i) {
        std::string field_name = i < group_names_.size()
                                     ? group_names_[i]
                                     : "__state_" + std::to_string(i);
        fields.emplace_back(std::move(field_name), columns[i]->type(), true);
      }
      out_schema = std::make_shared<Schema>(std::move(fields));
    }
    auto big = std::make_shared<RecordBatch>(out_schema, total, std::move(columns));
    return SliceBatch(big, ctx->config.batch_size);
  };

  auto spill = [&]() -> Status {
    // Serialize the current table as partial state and reset.
    for (const auto& agg : aggregates_) {
      if (!agg.function->supports_two_phase) {
        return Status::OutOfMemory(
            "aggregate '" + agg.function->name +
            "' cannot spill (no two-phase support); raise the memory limit");
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto batches, emit(*state, /*partial_output=*/true));
    FUSION_ASSIGN_OR_RAISE(auto file, ctx->env->disk_manager->CreateTempFile("agg"));
    // Charge the run against the spill quota before writing so a full
    // disk surfaces as ResourcesExhausted rather than a short write.
    int64_t run_bytes = 0;
    for (const auto& b : batches) run_bytes += b->TotalBufferSize();
    FUSION_RETURN_NOT_OK(file->Reserve(run_bytes));
    // Spilled partial batches use the *partial* schema, which differs
    // from schema_ in final mode; serialize schemaless via IPC columns.
    ipc::FileWriter writer(file->path());
    FUSION_RETURN_NOT_OK(writer.Open());
    for (const auto& b : batches) {
      FUSION_RETURN_NOT_OK(writer.WriteBatch(*b));
    }
    FUSION_RETURN_NOT_OK(writer.Close());
    spill_files.push_back(std::move(file));
    spills_.fetch_add(1);
    spill_count->Add(1);
    for (const auto& b : batches) spill_bytes->Add(b->TotalBufferSize());
    FUSION_ASSIGN_OR_RAISE(state, make_state());
    return reservation.ResizeTo(0);
  };

  // Process one input batch into the grouping state. The same path
  // serves direct input (`from_partial` false), partial-state input in
  // final mode, and the spill-merge pass (which supplies its own
  // state-column `layout`). Scratch vectors persist across batches so
  // the per-batch work is hash + MapBatch with no allocation churn.
  std::vector<uint32_t> group_ids;
  std::vector<uint64_t> hashes;
  auto process = [&](GroupingState& s, const RecordBatch& batch,
                     bool from_partial,
                     const std::vector<AggregateInfo>& layout) -> Status {
    const int64_t n = batch.num_rows();
    if (no_groups) {
      group_ids.assign(static_cast<size_t>(n), 0);
      s.global_group = true;
    } else {
      std::vector<ArrayPtr> keys;
      if (from_partial) {
        // Key columns are the leading input columns.
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          keys.push_back(batch.column(static_cast<int>(g)));
        }
      } else {
        FUSION_ASSIGN_OR_RAISE(keys, EvaluateToArrays(group_exprs_, batch));
      }
      FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
      FUSION_RETURN_NOT_OK(s.table.MapBatch(keys, hashes, &group_ids));
    }
    const int64_t num_groups = s.num_groups();
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      s.accumulators[a]->Resize(num_groups);
      if (from_partial) {
        std::vector<ArrayPtr> state_cols;
        for (int idx : layout[a].state_columns) {
          state_cols.push_back(batch.column(idx));
        }
        FUSION_RETURN_NOT_OK(
            s.accumulators[a]->UpdateFromPartial(state_cols, group_ids));
      } else {
        const AggregateInfo& agg = layout[a];
        FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(agg.args, batch));
        FUSION_ASSIGN_OR_RAISE(auto filter_mask,
                               EvaluateFilterMask(agg.filter, batch));
        FUSION_RETURN_NOT_OK(s.accumulators[a]->Update(
            args, group_ids, filter_mask.empty() ? nullptr : filter_mask.data()));
      }
    }
    return Status::OK();
  };

  const bool input_is_partial = mode_ == AggregateMode::kFinal;
  int64_t batches_since_check = 0;
  for (;;) {
    FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
    if (batch == nullptr) break;
    if (batch->num_rows() == 0) continue;
    FUSION_RETURN_NOT_OK(process(*state, *batch, input_is_partial, aggregates_));
    // SizeBytes walks per-group state; amortize by checking periodically
    // (this is what the paper means by tracking "the largest memory
    // consumers ... but not small ephemeral allocations", §5.5.4).
    if (++batches_since_check >= 16) {
      batches_since_check = 0;
      Status grow = reservation.ResizeTo(state->SizeBytes());
      if (!grow.ok()) {
        if (!grow.IsOutOfMemory()) return grow;
        FUSION_RETURN_NOT_OK(spill());
      }
      mem_reserved->SetMax(reservation.held());
    }
  }

  if (!spill_files.empty()) {
    // Re-aggregate the spilled partial runs together with the in-memory
    // remainder. Group cardinality after partial aggregation is normally
    // far below the input cardinality, so this pass fits in memory.
    FUSION_ASSIGN_OR_RAISE(auto mem_batches, emit(*state, /*partial_output=*/true));
    FUSION_ASSIGN_OR_RAISE(state, make_state());
    // Final-style merge needs state column indexing; compute it from the
    // partial layout: keys first, then each aggregate's state columns.
    std::vector<AggregateInfo> partial_layout = aggregates_;
    int col = static_cast<int>(group_exprs_.size());
    for (auto& agg : partial_layout) {
      agg.state_columns.clear();
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      for (size_t i = 0; i < acc->PartialTypes().size(); ++i) {
        agg.state_columns.push_back(col++);
      }
    }
    for (const auto& b : mem_batches) {
      // Partial batches from emit() carry schema_, but their layout is
      // the partial layout; re-wrap is unnecessary because the merge
      // indexes columns positionally.
      FUSION_RETURN_NOT_OK(process(*state, *b, /*from_partial=*/true,
                                   partial_layout));
    }
    for (const auto& file : spill_files) {
      ipc::FileReader reader(file->path());
      FUSION_RETURN_NOT_OK(reader.Open());
      for (;;) {
        FUSION_ASSIGN_OR_RAISE(auto batch, reader.Next());
        if (batch == nullptr) break;
        FUSION_RETURN_NOT_OK(process(*state, *batch, /*from_partial=*/true,
                                     partial_layout));
      }
    }
  }

  // If we spilled in partial mode, the merged state is already final-
  // grade partial state; emitting partial is still correct.
  FUSION_ASSIGN_OR_RAISE(auto out_batches,
                         emit(*state, mode_ == AggregateMode::kPartial));
  return exec::StreamPtr(
      std::make_unique<exec::VectorStream>(schema, std::move(out_batches)));
}

namespace {

/// How the adaptive bypass is decided: from observed cardinality (auto),
/// never (off), or from the first row (force; tests).
enum class BypassMode { kAuto, kOff, kForce };

BypassMode BypassModeFromEnv() {
  const char* env = std::getenv("FUSION_AGG_BYPASS");
  if (env == nullptr) return BypassMode::kAuto;
  if (std::string_view(env) == "off") return BypassMode::kOff;
  if (std::string_view(env) == "force") return BypassMode::kForce;
  return BypassMode::kAuto;
}

}  // namespace

/// Phase-1 result shared by all merge partitions.
struct PartitionedAggregateExec::BuildState {
  /// One pre-aggregation task's output.
  struct Partial {
    /// The task's thread-local group table (keys + stored hashes).
    std::unique_ptr<compute::GroupTable> table;
    /// Per-aggregate serialized partial state, row g = group g.
    std::vector<std::vector<ArrayPtr>> state_arrays;
    /// Group ids routed to each radix bucket (bucket_groups[p] feeds
    /// merge partition p).
    std::vector<std::vector<uint32_t>> bucket_groups;
    /// Bypassed rows as per-row partial-state batches, pre-split by
    /// radix bucket.
    std::vector<std::vector<RecordBatchPtr>> bypass_batches;
    /// Held until the merge phase has consumed this task's state.
    std::unique_ptr<exec::MemoryReservation> reservation;
  };

  std::vector<Partial> partials;
  /// Partial-layout batches spilled under memory pressure; buckets are
  /// mixed, so every merge partition filters them by hash.
  std::vector<exec::SpillFilePtr> spill_files;
  std::mutex spill_mu;

  std::vector<DataType> key_types;
  /// Layout of partial-state batches: keys first, then each aggregate's
  /// state columns (used for bypass and spilled batches).
  std::vector<AggregateInfo> partial_layout;
  SchemaPtr partial_schema;

  /// Cooperative-build coordination: every merge driver claims input
  /// partitions from next_input and bumps inputs_done after each one
  /// (claimed-but-skipped on failure still counts, so inputs_done always
  /// reaches num_inputs). The first error wins; later claims drain as
  /// no-ops.
  int num_inputs = 0;
  std::atomic<int> next_input{0};
  std::atomic<int> inputs_done{0};
  std::atomic<bool> build_failed{false};
  std::mutex error_mu;
  Status build_error;
};

std::string PartitionedAggregateExec::ToStringLine() const {
  std::string out = "PartitionedAggregateExec: groups=[";
  for (size_t i = 0; i < group_names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_names_[i];
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates_[i].output_name;
  }
  out += "]";
  return out;
}

Status PartitionedAggregateExec::EnsureBuilt(const ExecContextPtr& ctx) {
  std::shared_ptr<BuildState> bs;
  {
    // The mutex guards only the (cheap) one-time state setup and the
    // final publication — never held across input execution, so a driver
    // re-entering here on a lent scheduler thread cannot self-deadlock.
    std::lock_guard<std::mutex> lock(build_mu_);
    if (built_) return build_status_;
    if (build_state_ == nullptr) {
      auto init = [&]() -> Status {
        auto state = std::make_shared<BuildState>();
        for (const auto& g : group_exprs_) state->key_types.push_back(g->type());

        // Partial-state layout/schema shared by bypass and spilled batches.
        std::vector<Field> partial_fields;
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          partial_fields.emplace_back(group_names_[g], group_exprs_[g]->type(),
                                      true);
        }
        state->partial_layout = aggregates_;
        int state_col = static_cast<int>(group_exprs_.size());
        for (auto& agg : state->partial_layout) {
          FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
          agg.state_columns.clear();
          for (DataType t : acc->PartialTypes()) {
            partial_fields.emplace_back("__state_" + std::to_string(state_col), t,
                                        true);
            agg.state_columns.push_back(state_col++);
          }
        }
        state->partial_schema = std::make_shared<Schema>(std::move(partial_fields));
        state->num_inputs = input_->output_partitions();
        state->partials.resize(static_cast<size_t>(state->num_inputs));
        build_state_ = std::move(state);
        return Status::OK();
      };
      Status init_status = init();
      if (!init_status.ok()) {
        built_ = true;
        build_status_ = init_status;
        return build_status_;
      }
    }
    bs = build_state_;
  }

  const uint32_t buckets = static_cast<uint32_t>(num_partitions_);
  const BypassMode mode = BypassModeFromEnv();
  const double bypass_ratio = ctx->config.agg_bypass_ratio;
  const int64_t probe_rows = ctx->config.agg_bypass_probe_rows;

  auto build_one = [&, bs](int p) -> Status {
    BuildState::Partial& out = bs->partials[p];
    auto partial_groups = metrics_->Counter(exec::metric::kPartialGroups, p);
    auto bypass_rows = metrics_->Counter(exec::metric::kBypassRows, p);
    auto spill_count = metrics_->Counter(exec::metric::kSpillCount, p);
    auto spill_bytes = metrics_->Counter(exec::metric::kSpillBytes, p);
    auto mem_reserved = metrics_->Gauge(exec::metric::kMemReservedBytes, p);

    out.table = std::make_unique<compute::GroupTable>(bs->key_types);
    out.bypass_batches.assign(buckets, {});
    out.reservation = std::make_unique<exec::MemoryReservation>(
        ctx->env->memory_pool, "aggpart-" + std::to_string(ctx->query_id) +
                                   "-build-" + std::to_string(p));
    std::vector<std::unique_ptr<GroupedAccumulator>> accumulators;
    for (const auto& agg : aggregates_) {
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      accumulators.push_back(std::move(acc));
    }

    // Serialize the table + accumulators as partial-layout batches.
    auto emit_partial = [&]() -> Result<std::vector<RecordBatchPtr>> {
      const int64_t total = out.table->num_groups();
      FUSION_ASSIGN_OR_RAISE(auto columns, out.table->DecodeGroupKeys());
      for (auto& acc : accumulators) {
        acc->Resize(total);
        FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
        for (auto& c : cols) columns.push_back(std::move(c));
      }
      auto big = std::make_shared<RecordBatch>(bs->partial_schema, total,
                                               std::move(columns));
      return SliceBatch(big, ctx->config.batch_size);
    };

    auto write_spill = [&](const std::vector<RecordBatchPtr>& batches) -> Status {
      for (const auto& agg : aggregates_) {
        if (!agg.function->supports_two_phase) {
          return Status::OutOfMemory(
              "aggregate '" + agg.function->name +
              "' cannot spill (no two-phase support); raise the memory limit");
        }
      }
      FUSION_ASSIGN_OR_RAISE(auto file,
                             ctx->env->disk_manager->CreateTempFile("agg"));
      int64_t run_bytes = 0;
      for (const auto& b : batches) run_bytes += b->TotalBufferSize();
      FUSION_RETURN_NOT_OK(file->Reserve(run_bytes));
      ipc::FileWriter writer(file->path());
      FUSION_RETURN_NOT_OK(writer.Open());
      for (const auto& b : batches) {
        FUSION_RETURN_NOT_OK(writer.WriteBatch(*b));
      }
      FUSION_RETURN_NOT_OK(writer.Close());
      {
        std::lock_guard<std::mutex> spill_lock(bs->spill_mu);
        bs->spill_files.push_back(std::move(file));
      }
      spills_.fetch_add(1);
      spill_count->Add(1);
      spill_bytes->Add(run_bytes);
      return Status::OK();
    };

    FUSION_ASSIGN_OR_RAISE(auto input, input_->Execute(p, ctx));
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> group_ids;
    bool bypass = mode == BypassMode::kForce;
    bool decided = mode != BypassMode::kAuto;
    int64_t rows_seen = 0;
    int64_t buffered_bytes = 0;
    int64_t batches_since_check = 0;
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
      if (batch == nullptr) break;
      const int64_t n = batch->num_rows();
      if (n == 0) continue;
      FUSION_ASSIGN_OR_RAISE(auto keys, EvaluateToArrays(group_exprs_, *batch));
      if (!bypass) {
        FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
        FUSION_RETURN_NOT_OK(out.table->MapBatch(keys, hashes, &group_ids));
        const int64_t num_groups = out.table->num_groups();
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          const AggregateInfo& agg = aggregates_[a];
          accumulators[a]->Resize(num_groups);
          FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(agg.args, *batch));
          FUSION_ASSIGN_OR_RAISE(auto mask, EvaluateFilterMask(agg.filter, *batch));
          FUSION_RETURN_NOT_OK(accumulators[a]->Update(
              args, group_ids, mask.empty() ? nullptr : mask.data()));
        }
        rows_seen += n;
        if (!decided && rows_seen >= probe_rows) {
          decided = true;
          // Pre-aggregation is only worth its probes if it collapses
          // rows; at >= ratio groups per row it degrades to passthrough.
          bypass = static_cast<double>(num_groups) >=
                   bypass_ratio * static_cast<double>(rows_seen);
        }
        if (++batches_since_check >= 16) {
          batches_since_check = 0;
          int64_t held = out.table->SizeBytes() + buffered_bytes;
          for (const auto& acc : accumulators) held += acc->SizeBytes();
          Status grow = out.reservation->ResizeTo(held);
          if (!grow.ok()) {
            if (!grow.IsOutOfMemory()) return grow;
            FUSION_ASSIGN_OR_RAISE(auto partial_batches, emit_partial());
            FUSION_RETURN_NOT_OK(write_spill(partial_batches));
            out.table = std::make_unique<compute::GroupTable>(bs->key_types);
            accumulators.clear();
            for (const auto& agg : aggregates_) {
              FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
              accumulators.push_back(std::move(acc));
            }
            FUSION_RETURN_NOT_OK(out.reservation->ResizeTo(buffered_bytes));
          }
          mem_reserved->SetMax(out.reservation->held());
        }
        continue;
      }

      // Bypass: every row becomes its own group of one; serialize the
      // per-row partial state and radix-split it by key hash so each
      // merge partition reads only its own bucket.
      bypass_rows->Add(n);
      FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
      std::vector<ArrayPtr> columns = keys;
      std::vector<uint32_t> iota(static_cast<size_t>(n));
      std::iota(iota.begin(), iota.end(), 0);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        const AggregateInfo& agg = aggregates_[a];
        FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
        acc->Resize(n);
        FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(agg.args, *batch));
        FUSION_ASSIGN_OR_RAISE(auto mask, EvaluateFilterMask(agg.filter, *batch));
        FUSION_RETURN_NOT_OK(
            acc->Update(args, iota, mask.empty() ? nullptr : mask.data()));
        FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
        for (auto& c : cols) columns.push_back(std::move(c));
      }
      std::vector<std::vector<int64_t>> bucket_rows(buckets);
      for (int64_t r = 0; r < n; ++r) {
        bucket_rows[compute::GroupTable::RadixBucket(hashes[r], buckets)]
            .push_back(r);
      }
      for (uint32_t b = 0; b < buckets; ++b) {
        if (bucket_rows[b].empty()) continue;
        std::vector<ArrayPtr> taken;
        taken.reserve(columns.size());
        for (const auto& c : columns) {
          FUSION_ASSIGN_OR_RAISE(auto t, compute::Take(*c, bucket_rows[b]));
          taken.push_back(std::move(t));
        }
        auto out_batch = std::make_shared<RecordBatch>(
            bs->partial_schema, static_cast<int64_t>(bucket_rows[b].size()),
            std::move(taken));
        buffered_bytes += out_batch->TotalBufferSize();
        out.bypass_batches[b].push_back(std::move(out_batch));
      }
      if (++batches_since_check >= 16) {
        batches_since_check = 0;
        int64_t held = out.table->SizeBytes() + buffered_bytes;
        for (const auto& acc : accumulators) held += acc->SizeBytes();
        Status grow = out.reservation->ResizeTo(held);
        if (!grow.ok()) {
          if (!grow.IsOutOfMemory()) return grow;
          // Flush the buffered passthrough batches; the merge phase
          // re-routes spilled rows by recomputing their hashes.
          std::vector<RecordBatchPtr> flush;
          for (auto& bucket : out.bypass_batches) {
            for (auto& fb : bucket) flush.push_back(std::move(fb));
            bucket.clear();
          }
          FUSION_RETURN_NOT_OK(write_spill(flush));
          buffered_bytes = 0;
          int64_t held_now = out.table->SizeBytes();
          for (const auto& acc : accumulators) held_now += acc->SizeBytes();
          FUSION_RETURN_NOT_OK(out.reservation->ResizeTo(held_now));
        }
        mem_reserved->SetMax(out.reservation->held());
      }
    }

    // Seal the table: serialize accumulator state once and route each
    // group to its radix bucket by the stored hash.
    const int64_t num_groups = out.table->num_groups();
    partial_groups->Add(num_groups);
    for (auto& acc : accumulators) {
      acc->Resize(num_groups);
      FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
      out.state_arrays.push_back(std::move(cols));
    }
    out.bucket_groups.assign(buckets, {});
    for (uint32_t g = 0; g < static_cast<uint32_t>(num_groups); ++g) {
      out.bucket_groups[compute::GroupTable::RadixBucket(
                            out.table->group_hash(g), buckets)]
          .push_back(g);
    }
    return Status::OK();
  };

  // Participate: claim and pre-aggregate input partitions until none
  // remain unclaimed. After the first failure, later claims drain as
  // no-ops so inputs_done still reaches num_inputs.
  const exec::TaskGroupPtr& group = ctx->EnsureTaskGroup();
  for (;;) {
    const int p = bs->next_input.fetch_add(1, std::memory_order_relaxed);
    if (p >= bs->num_inputs) break;
    if (!bs->build_failed.load(std::memory_order_acquire)) {
      Status st = build_one(p);
      if (!st.ok()) {
        std::lock_guard<std::mutex> elock(bs->error_mu);
        if (bs->build_error.ok()) bs->build_error = st;
        bs->build_failed.store(true, std::memory_order_release);
      }
    }
    bs->inputs_done.fetch_add(1, std::memory_order_acq_rel);
    group->NotifyProgress();
  }

  // Wait for claims still in flight on other drivers, lending this
  // thread to the query's other ready tasks meanwhile. Epoch protocol:
  // snapshot the epoch, re-check the condition, then help-or-park —
  // NotifyProgress() after the last inputs_done bump invalidates any
  // stale epoch, so no wakeup is lost.
  while (bs->inputs_done.load(std::memory_order_acquire) < bs->num_inputs) {
    FUSION_RETURN_NOT_OK(ctx->CheckCancelled());
    const uint64_t epoch = group->progress_epoch();
    if (bs->inputs_done.load(std::memory_order_acquire) >= bs->num_inputs) break;
    group->HelpOrWait(epoch, ctx->cancel.get());
  }

  std::lock_guard<std::mutex> lock(build_mu_);
  if (!built_) {
    built_ = true;
    std::lock_guard<std::mutex> elock(bs->error_mu);
    build_status_ = bs->build_error;
  }
  return build_status_;
}

Result<exec::StreamPtr> PartitionedAggregateExec::ExecuteImpl(
    int partition, const ExecContextPtr& ctx) {
  if (group_exprs_.empty()) {
    return Status::Internal("PartitionedAggregateExec requires group keys");
  }
  FUSION_RETURN_NOT_OK(EnsureBuilt(ctx));
  auto bs = build_state_;
  const uint32_t buckets = static_cast<uint32_t>(num_partitions_);

  compute::GroupTable table(bs->key_types);
  std::vector<std::unique_ptr<GroupedAccumulator>> accumulators;
  auto reset_accumulators = [&]() -> Status {
    accumulators.clear();
    for (const auto& agg : aggregates_) {
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      accumulators.push_back(std::move(acc));
    }
    return Status::OK();
  };
  FUSION_RETURN_NOT_OK(reset_accumulators());

  exec::MemoryReservation reservation(
      ctx->env->memory_pool, "aggpart-" + std::to_string(ctx->query_id) +
                                 "-merge-" + std::to_string(partition));
  auto spill_count = metrics_->Counter(exec::metric::kSpillCount, partition);
  auto spill_bytes = metrics_->Counter(exec::metric::kSpillBytes, partition);
  auto mem_reserved = metrics_->Gauge(exec::metric::kMemReservedBytes, partition);
  std::vector<exec::SpillFilePtr> merge_spills;

  // Merge one partial-layout batch (bypass, spilled, or re-spilled rows):
  // keys lead, state columns follow bs->partial_layout.
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> group_ids;
  auto merge_partial_batch = [&](const RecordBatch& batch) -> Status {
    std::vector<ArrayPtr> keys;
    for (size_t g = 0; g < group_exprs_.size(); ++g) {
      keys.push_back(batch.column(static_cast<int>(g)));
    }
    FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
    FUSION_RETURN_NOT_OK(table.MapBatch(keys, hashes, &group_ids));
    const int64_t num_groups = table.num_groups();
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      accumulators[a]->Resize(num_groups);
      std::vector<ArrayPtr> state_cols;
      for (int idx : bs->partial_layout[a].state_columns) {
        state_cols.push_back(batch.column(idx));
      }
      FUSION_RETURN_NOT_OK(
          accumulators[a]->UpdateFromPartial(state_cols, group_ids));
    }
    return Status::OK();
  };

  // Serialize the merge state as partial-layout batches (spill path).
  auto emit_merge_partial = [&]() -> Result<std::vector<RecordBatchPtr>> {
    const int64_t total = table.num_groups();
    FUSION_ASSIGN_OR_RAISE(auto columns, table.DecodeGroupKeys());
    for (auto& acc : accumulators) {
      acc->Resize(total);
      FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
      for (auto& c : cols) columns.push_back(std::move(c));
    }
    auto big = std::make_shared<RecordBatch>(bs->partial_schema, total,
                                             std::move(columns));
    return SliceBatch(big, ctx->config.batch_size);
  };

  int64_t merges_since_check = 0;
  auto check_memory = [&]() -> Status {
    if (++merges_since_check < 16) return Status::OK();
    merges_since_check = 0;
    int64_t held = table.SizeBytes();
    for (const auto& acc : accumulators) held += acc->SizeBytes();
    Status grow = reservation.ResizeTo(held);
    if (grow.ok()) {
      mem_reserved->SetMax(reservation.held());
      return Status::OK();
    }
    if (!grow.IsOutOfMemory()) return grow;
    FUSION_ASSIGN_OR_RAISE(auto batches, emit_merge_partial());
    FUSION_ASSIGN_OR_RAISE(auto file, ctx->env->disk_manager->CreateTempFile("agg"));
    int64_t run_bytes = 0;
    for (const auto& b : batches) run_bytes += b->TotalBufferSize();
    FUSION_RETURN_NOT_OK(file->Reserve(run_bytes));
    ipc::FileWriter writer(file->path());
    FUSION_RETURN_NOT_OK(writer.Open());
    for (const auto& b : batches) {
      FUSION_RETURN_NOT_OK(writer.WriteBatch(*b));
    }
    FUSION_RETURN_NOT_OK(writer.Close());
    merge_spills.push_back(std::move(file));
    spills_.fetch_add(1);
    spill_count->Add(1);
    spill_bytes->Add(run_bytes);
    table = compute::GroupTable(bs->key_types);
    FUSION_RETURN_NOT_OK(reset_accumulators());
    return reservation.ResizeTo(0);
  };

  // Merge accumulated GroupTable state: probe this bucket's groups
  // directly by stored hash + arena bytes, then fold their serialized
  // accumulator rows in by gather.
  std::vector<uint32_t> target_ids;
  std::vector<int64_t> take_indices;
  static const std::vector<uint32_t> kNoGroups;
  for (BuildState::Partial& part : bs->partials) {
    const std::vector<uint32_t>& gids =
        part.bucket_groups.empty() ? kNoGroups : part.bucket_groups[partition];
    if (!gids.empty()) {
      FUSION_RETURN_NOT_OK(table.MergeFrom(*part.table, gids, &target_ids));
      const int64_t num_groups = table.num_groups();
      take_indices.assign(gids.begin(), gids.end());
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        accumulators[a]->Resize(num_groups);
        std::vector<ArrayPtr> state_cols;
        for (const auto& col : part.state_arrays[a]) {
          FUSION_ASSIGN_OR_RAISE(auto t, compute::Take(*col, take_indices));
          state_cols.push_back(std::move(t));
        }
        FUSION_RETURN_NOT_OK(
            accumulators[a]->UpdateFromPartial(state_cols, target_ids));
      }
      FUSION_RETURN_NOT_OK(check_memory());
    }
    if (!part.bypass_batches.empty()) {
      for (const auto& batch : part.bypass_batches[partition]) {
        FUSION_RETURN_NOT_OK(merge_partial_batch(*batch));
        FUSION_RETURN_NOT_OK(check_memory());
      }
    }
  }

  // Spilled partial runs hold rows of every bucket; keep only ours.
  for (const auto& file : bs->spill_files) {
    ipc::FileReader reader(file->path());
    FUSION_RETURN_NOT_OK(reader.Open());
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(auto batch, reader.Next());
      if (batch == nullptr) break;
      std::vector<ArrayPtr> keys;
      for (size_t g = 0; g < group_exprs_.size(); ++g) {
        keys.push_back(batch->column(static_cast<int>(g)));
      }
      FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
      take_indices.clear();
      for (int64_t r = 0; r < batch->num_rows(); ++r) {
        if (compute::GroupTable::RadixBucket(hashes[r], buckets) ==
            static_cast<uint32_t>(partition)) {
          take_indices.push_back(r);
        }
      }
      if (take_indices.empty()) continue;
      FUSION_ASSIGN_OR_RAISE(auto mine, compute::TakeBatch(*batch, take_indices));
      FUSION_RETURN_NOT_OK(merge_partial_batch(*mine));
      FUSION_RETURN_NOT_OK(check_memory());
    }
  }

  // Re-merge anything this partition spilled while merging (rows are
  // already all ours; no further spilling on this pass).
  if (!merge_spills.empty()) {
    FUSION_ASSIGN_OR_RAISE(auto mem_batches, emit_merge_partial());
    table = compute::GroupTable(bs->key_types);
    FUSION_RETURN_NOT_OK(reset_accumulators());
    for (const auto& b : mem_batches) {
      FUSION_RETURN_NOT_OK(merge_partial_batch(*b));
    }
    for (const auto& file : merge_spills) {
      ipc::FileReader reader(file->path());
      FUSION_RETURN_NOT_OK(reader.Open());
      for (;;) {
        FUSION_ASSIGN_OR_RAISE(auto batch, reader.Next());
        if (batch == nullptr) break;
        FUSION_RETURN_NOT_OK(merge_partial_batch(*batch));
      }
    }
  }

  // Emit the final output for this bucket.
  const int64_t total = table.num_groups();
  FUSION_ASSIGN_OR_RAISE(auto columns, table.DecodeGroupKeys());
  for (auto& acc : accumulators) {
    acc->Resize(total);
    FUSION_ASSIGN_OR_RAISE(auto col, acc->Finish());
    columns.push_back(std::move(col));
  }
  auto big = std::make_shared<RecordBatch>(schema_, total, std::move(columns));
  return exec::StreamPtr(std::make_unique<exec::VectorStream>(
      schema_, SliceBatch(big, ctx->config.batch_size)));
}

std::string StreamingAggregateExec::ToStringLine() const {
  std::string out = "StreamingAggregateExec(single): groups=[";
  for (size_t i = 0; i < group_names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_names_[i];
  }
  out += "]";
  return out;
}

Result<exec::StreamPtr> StreamingAggregateExec::ExecuteImpl(int partition,
                                                        const ExecContextPtr& ctx) {
  FUSION_ASSIGN_OR_RAISE(auto input_stream, input_->Execute(partition, ctx));
  auto input = std::shared_ptr<exec::RecordBatchStream>(std::move(input_stream));
  SchemaPtr schema = schema_;
  auto group_exprs = group_exprs_;
  auto aggregates = aggregates_;
  int64_t batch_size = ctx->config.batch_size;

  // Shared mutable stream state.
  struct State {
    // The in-flight group: one accumulator set sized for a single group,
    // plus the builders the finished groups are appended to.
    bool has_current = false;
    std::vector<ArrayPtr> current_key_arrays;  // single-row key snapshot
    std::vector<std::unique_ptr<logical::GroupedAccumulator>> accumulators;
    std::vector<std::unique_ptr<ArrayBuilder>> out_builders;
    int64_t pending_groups = 0;
    bool done = false;
  };
  auto state = std::make_shared<State>();

  auto make_accumulators = [aggregates]() -> Result<
      std::vector<std::unique_ptr<logical::GroupedAccumulator>>> {
    std::vector<std::unique_ptr<logical::GroupedAccumulator>> out;
    for (const auto& agg : aggregates) {
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      acc->Resize(1);
      out.push_back(std::move(acc));
    }
    return out;
  };
  auto make_builders = [schema]() -> Result<
      std::vector<std::unique_ptr<ArrayBuilder>>> {
    std::vector<std::unique_ptr<ArrayBuilder>> out;
    for (const Field& f : schema->fields()) {
      FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(f.type()));
      out.push_back(std::move(b));
    }
    return out;
  };

  FUSION_ASSIGN_OR_RAISE(state->out_builders, make_builders());

  // Close the in-flight group: append its key + results to the output
  // builders.
  auto flush_current = [state]() -> Status {
    if (!state->has_current) return Status::OK();
    size_t col = 0;
    for (const auto& key : state->current_key_arrays) {
      state->out_builders[col++]->AppendFrom(*key, 0);
    }
    for (auto& acc : state->accumulators) {
      FUSION_ASSIGN_OR_RAISE(auto c, acc->Finish());
      state->out_builders[col++]->AppendFrom(*c, 0);
    }
    state->has_current = false;
    state->accumulators.clear();
    ++state->pending_groups;
    return Status::OK();
  };

  return exec::StreamPtr(std::make_unique<exec::GeneratorStream>(
      schema,
      [=]() mutable -> Result<RecordBatchPtr> {
        auto emit_pending = [&]() -> Result<RecordBatchPtr> {
          std::vector<ArrayPtr> columns;
          for (auto& b : state->out_builders) {
            FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
            columns.push_back(std::move(arr));
          }
          int64_t rows = state->pending_groups;
          state->pending_groups = 0;
          FUSION_ASSIGN_OR_RAISE(state->out_builders, make_builders());
          return std::make_shared<RecordBatch>(schema, rows, std::move(columns));
        };
        for (;;) {
          if (state->done) {
            if (state->pending_groups > 0) return emit_pending();
            return RecordBatchPtr(nullptr);
          }
          FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
          if (batch == nullptr) {
            state->done = true;
            FUSION_RETURN_NOT_OK(flush_current());
            continue;
          }
          if (batch->num_rows() == 0) continue;
          FUSION_ASSIGN_OR_RAISE(auto keys, EvaluateToArrays(group_exprs, *batch));
          std::vector<std::vector<ArrayPtr>> agg_args(aggregates.size());
          std::vector<std::vector<uint8_t>> filter_masks(aggregates.size());
          for (size_t a = 0; a < aggregates.size(); ++a) {
            FUSION_ASSIGN_OR_RAISE(agg_args[a],
                                   EvaluateToArrays(aggregates[a].args, *batch));
            FUSION_ASSIGN_OR_RAISE(filter_masks[a],
                                   EvaluateFilterMask(aggregates[a].filter, *batch));
          }
          const int64_t n = batch->num_rows();
          auto same_key = [&](int64_t row, const std::vector<ArrayPtr>& other,
                              int64_t other_row) {
            for (size_t k = 0; k < keys.size(); ++k) {
              if (!ArrayElementsEqual(*keys[k], row, *other[k], other_row)) {
                return false;
              }
            }
            return true;
          };
          // Walk key runs within the batch.
          int64_t start = 0;
          while (start < n) {
            int64_t end = start + 1;
            while (end < n && same_key(end, keys, start)) ++end;
            const bool continues =
                state->has_current && same_key(start, state->current_key_arrays, 0);
            if (!continues) {
              FUSION_RETURN_NOT_OK(flush_current());
              FUSION_ASSIGN_OR_RAISE(state->accumulators, make_accumulators());
              state->current_key_arrays.clear();
              for (const auto& k : keys) {
                FUSION_ASSIGN_OR_RAISE(auto one, compute::Take(*k, {start}));
                state->current_key_arrays.push_back(std::move(one));
              }
              state->has_current = true;
            }
            // Feed the run's rows into the single-group accumulators.
            std::vector<uint32_t> zeros(static_cast<size_t>(end - start), 0);
            for (size_t a = 0; a < aggregates.size(); ++a) {
              std::vector<ArrayPtr> sliced;
              for (const auto& arg : agg_args[a]) {
                sliced.push_back(arg->Slice(start, end - start));
              }
              std::vector<uint8_t> mask;
              if (!filter_masks[a].empty()) {
                mask.assign(filter_masks[a].begin() + start,
                            filter_masks[a].begin() + end);
              }
              FUSION_RETURN_NOT_OK(state->accumulators[a]->Update(
                  sliced, zeros, mask.empty() ? nullptr : mask.data()));
            }
            start = end;
          }
          if (state->pending_groups >= batch_size) return emit_pending();
        }
      }));
}

}  // namespace physical
}  // namespace fusion
