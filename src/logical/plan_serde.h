#ifndef FUSION_LOGICAL_PLAN_SERDE_H_
#define FUSION_LOGICAL_PLAN_SERDE_H_

#include <vector>

#include "logical/plan.h"
#include "logical/sql_planner.h"

namespace fusion {
namespace logical {

/// \brief LogicalPlan (de)serialization for network transport (paper
/// §5.4.1 item 2 — the role Protocol Buffers / Substrait play in
/// DataFusion; here a compact self-describing binary encoding).
///
/// Table scans serialize by table name (plus projection/filters/limit);
/// the receiving side resolves providers through its own catalog, and
/// function invocations are rebound against the receiver's registry —
/// exactly the contract a distributed scheduler needs to ship plan
/// fragments to workers. `scans`, when given, receives the provider of
/// every table scan in the plan, subqueries included.
Result<std::vector<uint8_t>> SerializePlan(
    const PlanPtr& plan, std::vector<catalog::TableProviderPtr>* scans = nullptr);

Result<PlanPtr> DeserializePlan(const uint8_t* data, size_t size,
                                const TableResolver& resolver,
                                const FunctionRegistryPtr& registry);

/// Expression-level serde (used by the plan serde and directly by
/// systems shipping predicates, e.g. to remote data sources).
Result<std::vector<uint8_t>> SerializeExpr(const ExprPtr& expr);
Result<ExprPtr> DeserializeExpr(const uint8_t* data, size_t size,
                                const FunctionRegistryPtr& registry);

}  // namespace logical
}  // namespace fusion

#endif  // FUSION_LOGICAL_PLAN_SERDE_H_
