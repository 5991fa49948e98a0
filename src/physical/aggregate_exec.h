#ifndef FUSION_PHYSICAL_AGGREGATE_EXEC_H_
#define FUSION_PHYSICAL_AGGREGATE_EXEC_H_

#include "logical/functions.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// Phase of a (possibly two-phase) aggregation (paper §6.3).
enum class AggregateMode {
  kPartial,  ///< per-partition pre-aggregation emitting partial state
  kFinal,    ///< merges the coalesced partial state
  kSingle,   ///< one-shot aggregation (single partition input)
};

/// One aggregate computation within a HashAggregateExec.
struct AggregateInfo {
  logical::AggregateFunctionPtr function;
  std::vector<PhysicalExprPtr> args;     // evaluated in kPartial/kSingle
  PhysicalExprPtr filter;                // optional FILTER(WHERE ...) mask
  std::vector<DataType> arg_types;
  DataType output_type;
  std::string output_name;
  /// kFinal: indices of this aggregate's state columns in the input.
  std::vector<int> state_columns;
};

/// \brief Hash aggregation of one input stream per partition (paper
/// §6.3): kSingle over a single stream, or the kPartial/kFinal pair of a
/// global (no-group) aggregate, whose partials are coalesced into one
/// final merge. Vectorized group-key encoding + accumulator updates, and
/// spill-to-disk when the memory budget is exceeded.
class HashAggregateExec : public ExecutionPlan {
 public:
  HashAggregateExec(ExecPlanPtr input, AggregateMode mode,
                    std::vector<PhysicalExprPtr> group_exprs,
                    std::vector<std::string> group_names,
                    std::vector<AggregateInfo> aggregates, SchemaPtr output_schema)
      : input_(std::move(input)), mode_(mode), group_exprs_(std::move(group_exprs)),
        group_names_(std::move(group_names)), aggregates_(std::move(aggregates)),
        schema_(std::move(output_schema)) {}

  std::string name() const override { return "HashAggregateExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return input_->output_partitions(); }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

  AggregateMode mode() const { return mode_; }
  int64_t spill_count() const { return spills_.load(); }

 private:
  ExecPlanPtr input_;
  AggregateMode mode_;
  std::vector<PhysicalExprPtr> group_exprs_;
  std::vector<std::string> group_names_;
  std::vector<AggregateInfo> aggregates_;
  SchemaPtr schema_;
  std::atomic<int64_t> spills_{0};
};

/// \brief Adaptive two-phase partitioned aggregation (paper §6.3) with a
/// radix-partitioned state merge instead of a row-level repartition
/// exchange. Phase 1 (EnsureBuilt, one task per input partition) pre-
/// aggregates into a thread-local GroupTable, adaptively degrading to
/// passthrough when the observed group cardinality approaches the input
/// row count: after `agg_bypass_probe_rows` rows, a task whose
/// groups/rows ratio is >= `agg_bypass_ratio` stops probing its table
/// and forwards rows as per-row partial state. Phase 2 (one merge per
/// output partition) routes each accumulated group by the radix bucket
/// of its stored 64-bit key hash and merges arena-backed entries
/// directly via GroupTable::MergeFrom — keys are never re-encoded and
/// rows never cross a BatchQueue. Either phase spills partial-state
/// batches to disk under memory pressure.
class PartitionedAggregateExec : public ExecutionPlan {
 public:
  PartitionedAggregateExec(ExecPlanPtr input,
                           std::vector<PhysicalExprPtr> group_exprs,
                           std::vector<std::string> group_names,
                           std::vector<AggregateInfo> aggregates,
                           SchemaPtr output_schema, int num_partitions)
      : input_(std::move(input)), group_exprs_(std::move(group_exprs)),
        group_names_(std::move(group_names)), aggregates_(std::move(aggregates)),
        schema_(std::move(output_schema)),
        num_partitions_(num_partitions < 1 ? 1 : num_partitions) {}

  std::string name() const override { return "PartitionedAggregateExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return num_partitions_; }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

  int64_t spill_count() const { return spills_.load(); }

 private:
  struct BuildState;

  /// Run phase 1 cooperatively: every merge-partition driver that lands
  /// here claims unbuilt input partitions from a shared atomic counter
  /// and pre-aggregates them on its own thread; drivers with nothing
  /// left to claim lend their thread to the query's other ready tasks
  /// (TaskGroup::HelpOrWait) until the last claim settles. No thread
  /// ever blocks on a lock while work remains, so the scheduler's
  /// deadlock-freedom contract holds even on a single-worker pool
  /// (a driver run on a lent thread re-enters here and just helps).
  Status EnsureBuilt(const ExecContextPtr& ctx);

  ExecPlanPtr input_;
  std::vector<PhysicalExprPtr> group_exprs_;
  std::vector<std::string> group_names_;
  std::vector<AggregateInfo> aggregates_;
  SchemaPtr schema_;
  int num_partitions_;
  std::atomic<int64_t> spills_{0};

  std::mutex build_mu_;
  bool built_ = false;
  Status build_status_;
  std::shared_ptr<BuildState> build_state_;
};

/// \brief Streaming aggregation for input already ordered on the group
/// keys (paper §6.3's "fully ordered group keys" fast path and §6.7's
/// streaming Hash Aggregation): no hash table, one group in flight,
/// groups emitted incrementally as their key run ends — bounded memory
/// regardless of group cardinality.
class StreamingAggregateExec : public ExecutionPlan {
 public:
  StreamingAggregateExec(ExecPlanPtr input,
                         std::vector<PhysicalExprPtr> group_exprs,
                         std::vector<std::string> group_names,
                         std::vector<AggregateInfo> aggregates,
                         SchemaPtr output_schema)
      : input_(std::move(input)), group_exprs_(std::move(group_exprs)),
        group_names_(std::move(group_names)), aggregates_(std::move(aggregates)),
        schema_(std::move(output_schema)) {}

  std::string name() const override { return "StreamingAggregateExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return input_->output_partitions(); }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  std::vector<OrderingInfo> output_ordering() const override {
    // Group columns come out in key order (they are the leading output
    // columns, one run each).
    std::vector<OrderingInfo> in = input_->output_ordering();
    std::vector<OrderingInfo> out;
    for (size_t i = 0; i < group_exprs_.size() && i < in.size(); ++i) {
      out.push_back({static_cast<int>(i), in[i].options});
    }
    return out;
  }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

 private:
  ExecPlanPtr input_;
  std::vector<PhysicalExprPtr> group_exprs_;
  std::vector<std::string> group_names_;
  std::vector<AggregateInfo> aggregates_;
  SchemaPtr schema_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_AGGREGATE_EXEC_H_
