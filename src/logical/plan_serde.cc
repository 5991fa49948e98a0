#include "logical/plan_serde.h"

#include <cstring>

namespace fusion {
namespace logical {

namespace {

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

  /// When set, receives the provider of every table scan written.
  std::vector<catalog::TableProviderPtr>* scans = nullptr;

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status Raw(void* out, size_t len) {
    if (pos_ + len > size_) return Status::IOError("plan serde: truncated input");
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  Result<uint8_t> U8() {
    uint8_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 4));
    return v;
  }
  Result<int64_t> I64() {
    int64_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<double> F64() {
    double v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<bool> Bool() {
    FUSION_ASSIGN_OR_RAISE(uint8_t v, U8());
    return v != 0;
  }
  Result<std::string> Str() {
    FUSION_ASSIGN_OR_RAISE(uint32_t len, U32());
    std::string s(len, '\0');
    FUSION_RETURN_NOT_OK(Raw(s.data(), len));
    return s;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Decimal parameter bytes follow the type id only when the id is decimal,
// so plans serialized before parameterized types existed decode unchanged.
void WriteDataType(Writer* w, const DataType& t) {
  w->U8(static_cast<uint8_t>(t.id()));
  if (t.is_decimal()) {
    w->U8(static_cast<uint8_t>(t.precision()));
    w->U8(static_cast<uint8_t>(t.scale()));
  }
}

Result<DataType> ReadDataType(Reader* r) {
  FUSION_ASSIGN_OR_RAISE(uint8_t type_id, r->U8());
  DataType type(static_cast<TypeId>(type_id));
  if (type.id() == TypeId::kDecimal128) {
    FUSION_ASSIGN_OR_RAISE(uint8_t precision, r->U8());
    FUSION_ASSIGN_OR_RAISE(uint8_t scale, r->U8());
    if (!ValidDecimalParams(precision, scale)) {
      return Status::Invalid("plan: invalid decimal parameters");
    }
    type = decimal128(precision, scale);
  }
  return type;
}

void WriteScalar(Writer* w, const Scalar& s) {
  WriteDataType(w, s.type());
  w->Bool(s.is_null());
  if (s.is_null()) return;
  switch (s.type().id()) {
    case TypeId::kBool:
      w->Bool(s.bool_value());
      break;
    case TypeId::kFloat64:
      w->F64(s.double_value());
      break;
    case TypeId::kString:
      w->Str(s.string_value());
      break;
    case TypeId::kDecimal128:
      w->I64(static_cast<int64_t>(s.decimal_value().lo));
      w->I64(s.decimal_value().hi);
      break;
    case TypeId::kNull:
      break;
    default:
      w->I64(s.int_value());
  }
}

Result<Scalar> ReadScalar(Reader* r) {
  FUSION_ASSIGN_OR_RAISE(DataType type, ReadDataType(r));
  FUSION_ASSIGN_OR_RAISE(bool is_null, r->Bool());
  if (is_null) return Scalar::Null(type);
  switch (type.id()) {
    case TypeId::kBool: {
      FUSION_ASSIGN_OR_RAISE(bool v, r->Bool());
      return Scalar::Bool(v);
    }
    case TypeId::kFloat64: {
      FUSION_ASSIGN_OR_RAISE(double v, r->F64());
      return Scalar::Float64(v);
    }
    case TypeId::kString: {
      FUSION_ASSIGN_OR_RAISE(std::string v, r->Str());
      return Scalar::String(std::move(v));
    }
    case TypeId::kNull:
      return Scalar();
    case TypeId::kInt32: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Int32(static_cast<int32_t>(v));
    }
    case TypeId::kDate32: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Date32(static_cast<int32_t>(v));
    }
    case TypeId::kTimestamp: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Timestamp(v);
    }
    case TypeId::kDecimal128: {
      FUSION_ASSIGN_OR_RAISE(int64_t lo, r->I64());
      FUSION_ASSIGN_OR_RAISE(int64_t hi, r->I64());
      return Scalar::Decimal(Decimal128(hi, static_cast<uint64_t>(lo)), type);
    }
    default: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Int64(v);
    }
  }
}

Status WriteExprTree(Writer* w, const ExprPtr& expr);
Status WritePlanTree(Writer* w, const PlanPtr& plan);

Status WriteSortExpr(Writer* w, const SortExpr& se) {
  FUSION_RETURN_NOT_OK(WriteExprTree(w, se.expr));
  w->Bool(se.options.descending);
  w->Bool(se.options.nulls_first);
  return Status::OK();
}

Status WriteExprTree(Writer* w, const ExprPtr& expr) {
  w->U8(static_cast<uint8_t>(expr->kind));
  w->Str(expr->qualifier);
  w->Str(expr->name);
  WriteScalar(w, expr->literal);
  w->U8(static_cast<uint8_t>(expr->op));
  w->Bool(expr->case_has_else);
  WriteDataType(w, expr->cast_type);
  w->Bool(expr->negated);
  w->Bool(expr->case_insensitive);
  w->Str(expr->function_name);
  w->Bool(expr->distinct);
  w->Str(expr->alias);
  w->U32(static_cast<uint32_t>(expr->children.size()));
  for (const auto& child : expr->children) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, child));
  }
  w->Bool(expr->filter != nullptr);
  if (expr->filter != nullptr) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, expr->filter));
  }
  w->Bool(expr->window_spec != nullptr);
  if (expr->window_spec != nullptr) {
    const WindowSpecExpr& spec = *expr->window_spec;
    w->U32(static_cast<uint32_t>(spec.partition_by.size()));
    for (const auto& p : spec.partition_by) {
      FUSION_RETURN_NOT_OK(WriteExprTree(w, p));
    }
    w->U32(static_cast<uint32_t>(spec.order_by.size()));
    for (const auto& o : spec.order_by) {
      FUSION_RETURN_NOT_OK(WriteSortExpr(w, o));
    }
    w->Bool(spec.frame.is_rows);
    w->U8(static_cast<uint8_t>(spec.frame.start));
    w->I64(spec.frame.start_offset);
    w->U8(static_cast<uint8_t>(spec.frame.end));
    w->I64(spec.frame.end_offset);
    w->Bool(spec.has_explicit_frame);
  }
  w->Bool(expr->subquery_plan != nullptr);
  if (expr->subquery_plan != nullptr) {
    FUSION_RETURN_NOT_OK(WritePlanTree(
        w, std::static_pointer_cast<LogicalPlan>(expr->subquery_plan)));
  }
  return Status::OK();
}

Status WritePlanTree(Writer* w, const PlanPtr& plan) {
  w->U8(static_cast<uint8_t>(plan->kind));
  w->U32(static_cast<uint32_t>(plan->children.size()));
  for (const auto& c : plan->children) {
    FUSION_RETURN_NOT_OK(WritePlanTree(w, c));
  }
  w->Str(plan->table_name);
  if (plan->kind == PlanKind::kTableScan && w->scans != nullptr) {
    w->scans->push_back(plan->provider);
  }
  w->U32(static_cast<uint32_t>(plan->scan_projection.size()));
  for (int i : plan->scan_projection) w->U32(static_cast<uint32_t>(i));
  w->U32(static_cast<uint32_t>(plan->scan_filters.size()));
  for (const auto& f : plan->scan_filters) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, f));
  }
  w->I64(plan->scan_limit);
  w->U32(static_cast<uint32_t>(plan->exprs.size()));
  for (const auto& e : plan->exprs) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, e));
  }
  w->Bool(plan->predicate != nullptr);
  if (plan->predicate != nullptr) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, plan->predicate));
  }
  w->U32(static_cast<uint32_t>(plan->group_exprs.size()));
  for (const auto& e : plan->group_exprs) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, e));
  }
  w->U32(static_cast<uint32_t>(plan->aggr_exprs.size()));
  for (const auto& e : plan->aggr_exprs) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, e));
  }
  w->U32(static_cast<uint32_t>(plan->sort_exprs.size()));
  for (const auto& se : plan->sort_exprs) {
    FUSION_RETURN_NOT_OK(WriteSortExpr(w, se));
  }
  w->I64(plan->fetch);
  w->I64(plan->skip);
  w->U8(static_cast<uint8_t>(plan->join_kind));
  w->U32(static_cast<uint32_t>(plan->join_on.size()));
  for (const auto& [l, r] : plan->join_on) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, l));
    FUSION_RETURN_NOT_OK(WriteExprTree(w, r));
  }
  w->Bool(plan->join_filter != nullptr);
  if (plan->join_filter != nullptr) {
    FUSION_RETURN_NOT_OK(WriteExprTree(w, plan->join_filter));
  }
  w->U32(static_cast<uint32_t>(plan->values_rows.size()));
  for (const auto& row : plan->values_rows) {
    w->U32(static_cast<uint32_t>(row.size()));
    for (const auto& e : row) {
      FUSION_RETURN_NOT_OK(WriteExprTree(w, e));
    }
  }
  w->Str(plan->alias);
  w->Bool(plan->produce_one_row);
  w->Bool(plan->explain_analyze);
  return Status::OK();
}

struct DeserializeContext {
  const TableResolver* resolver;
  FunctionRegistryPtr registry;
};

Result<ExprPtr> ReadExprTree(Reader* r, const DeserializeContext& ctx);
Result<PlanPtr> ReadPlanTree(Reader* r, const DeserializeContext& ctx);

Result<SortExpr> ReadSortExpr(Reader* r, const DeserializeContext& ctx) {
  SortExpr se;
  FUSION_ASSIGN_OR_RAISE(se.expr, ReadExprTree(r, ctx));
  FUSION_ASSIGN_OR_RAISE(se.options.descending, r->Bool());
  FUSION_ASSIGN_OR_RAISE(se.options.nulls_first, r->Bool());
  return se;
}

Result<ExprPtr> ReadExprTree(Reader* r, const DeserializeContext& ctx) {
  auto expr = std::make_shared<Expr>();
  FUSION_ASSIGN_OR_RAISE(uint8_t kind, r->U8());
  expr->kind = static_cast<Expr::Kind>(kind);
  FUSION_ASSIGN_OR_RAISE(expr->qualifier, r->Str());
  FUSION_ASSIGN_OR_RAISE(expr->name, r->Str());
  FUSION_ASSIGN_OR_RAISE(expr->literal, ReadScalar(r));
  FUSION_ASSIGN_OR_RAISE(uint8_t op, r->U8());
  expr->op = static_cast<BinaryOp>(op);
  FUSION_ASSIGN_OR_RAISE(expr->case_has_else, r->Bool());
  FUSION_ASSIGN_OR_RAISE(expr->cast_type, ReadDataType(r));
  FUSION_ASSIGN_OR_RAISE(expr->negated, r->Bool());
  FUSION_ASSIGN_OR_RAISE(expr->case_insensitive, r->Bool());
  FUSION_ASSIGN_OR_RAISE(expr->function_name, r->Str());
  FUSION_ASSIGN_OR_RAISE(expr->distinct, r->Bool());
  FUSION_ASSIGN_OR_RAISE(expr->alias, r->Str());
  FUSION_ASSIGN_OR_RAISE(uint32_t num_children, r->U32());
  for (uint32_t i = 0; i < num_children; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto child, ReadExprTree(r, ctx));
    expr->children.push_back(std::move(child));
  }
  FUSION_ASSIGN_OR_RAISE(bool has_filter, r->Bool());
  if (has_filter) {
    FUSION_ASSIGN_OR_RAISE(expr->filter, ReadExprTree(r, ctx));
  }
  FUSION_ASSIGN_OR_RAISE(bool has_window, r->Bool());
  if (has_window) {
    auto spec = std::make_shared<WindowSpecExpr>();
    FUSION_ASSIGN_OR_RAISE(uint32_t num_part, r->U32());
    for (uint32_t i = 0; i < num_part; ++i) {
      FUSION_ASSIGN_OR_RAISE(auto p, ReadExprTree(r, ctx));
      spec->partition_by.push_back(std::move(p));
    }
    FUSION_ASSIGN_OR_RAISE(uint32_t num_order, r->U32());
    for (uint32_t i = 0; i < num_order; ++i) {
      FUSION_ASSIGN_OR_RAISE(auto o, ReadSortExpr(r, ctx));
      spec->order_by.push_back(std::move(o));
    }
    FUSION_ASSIGN_OR_RAISE(spec->frame.is_rows, r->Bool());
    FUSION_ASSIGN_OR_RAISE(uint8_t start, r->U8());
    spec->frame.start = static_cast<WindowFrame::BoundKind>(start);
    FUSION_ASSIGN_OR_RAISE(spec->frame.start_offset, r->I64());
    FUSION_ASSIGN_OR_RAISE(uint8_t end, r->U8());
    spec->frame.end = static_cast<WindowFrame::BoundKind>(end);
    FUSION_ASSIGN_OR_RAISE(spec->frame.end_offset, r->I64());
    FUSION_ASSIGN_OR_RAISE(spec->has_explicit_frame, r->Bool());
    expr->window_spec = std::move(spec);
  }
  FUSION_ASSIGN_OR_RAISE(bool has_subquery, r->Bool());
  if (has_subquery) {
    FUSION_ASSIGN_OR_RAISE(auto subplan, ReadPlanTree(r, ctx));
    expr->subquery_plan = std::static_pointer_cast<void>(subplan);
  }
  // Rebind function pointers against the receiver's registry.
  switch (expr->kind) {
    case Expr::Kind::kScalarFunction: {
      FUSION_ASSIGN_OR_RAISE(expr->scalar_function,
                             ctx.registry->GetScalar(expr->function_name));
      break;
    }
    case Expr::Kind::kAggregate: {
      FUSION_ASSIGN_OR_RAISE(expr->aggregate_function,
                             ctx.registry->GetAggregate(expr->function_name));
      break;
    }
    case Expr::Kind::kWindow: {
      FUSION_ASSIGN_OR_RAISE(expr->window_function,
                             ctx.registry->GetWindow(expr->function_name));
      break;
    }
    default:
      break;
  }
  return expr;
}

Result<PlanPtr> ReadPlanTree(Reader* r, const DeserializeContext& ctx) {
  FUSION_ASSIGN_OR_RAISE(uint8_t kind_raw, r->U8());
  PlanKind kind = static_cast<PlanKind>(kind_raw);
  FUSION_ASSIGN_OR_RAISE(uint32_t num_children, r->U32());
  std::vector<PlanPtr> children;
  for (uint32_t i = 0; i < num_children; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto c, ReadPlanTree(r, ctx));
    children.push_back(std::move(c));
  }
  FUSION_ASSIGN_OR_RAISE(std::string table_name, r->Str());
  FUSION_ASSIGN_OR_RAISE(uint32_t num_proj, r->U32());
  std::vector<int> projection;
  for (uint32_t i = 0; i < num_proj; ++i) {
    FUSION_ASSIGN_OR_RAISE(uint32_t idx, r->U32());
    projection.push_back(static_cast<int>(idx));
  }
  FUSION_ASSIGN_OR_RAISE(uint32_t num_scan_filters, r->U32());
  std::vector<ExprPtr> scan_filters;
  for (uint32_t i = 0; i < num_scan_filters; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto f, ReadExprTree(r, ctx));
    scan_filters.push_back(std::move(f));
  }
  FUSION_ASSIGN_OR_RAISE(int64_t scan_limit, r->I64());
  FUSION_ASSIGN_OR_RAISE(uint32_t num_exprs, r->U32());
  std::vector<ExprPtr> exprs;
  for (uint32_t i = 0; i < num_exprs; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto e, ReadExprTree(r, ctx));
    exprs.push_back(std::move(e));
  }
  FUSION_ASSIGN_OR_RAISE(bool has_predicate, r->Bool());
  ExprPtr predicate;
  if (has_predicate) {
    FUSION_ASSIGN_OR_RAISE(predicate, ReadExprTree(r, ctx));
  }
  FUSION_ASSIGN_OR_RAISE(uint32_t num_groups, r->U32());
  std::vector<ExprPtr> group_exprs;
  for (uint32_t i = 0; i < num_groups; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto e, ReadExprTree(r, ctx));
    group_exprs.push_back(std::move(e));
  }
  FUSION_ASSIGN_OR_RAISE(uint32_t num_aggs, r->U32());
  std::vector<ExprPtr> aggr_exprs;
  for (uint32_t i = 0; i < num_aggs; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto e, ReadExprTree(r, ctx));
    aggr_exprs.push_back(std::move(e));
  }
  FUSION_ASSIGN_OR_RAISE(uint32_t num_sorts, r->U32());
  std::vector<SortExpr> sort_exprs;
  for (uint32_t i = 0; i < num_sorts; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto se, ReadSortExpr(r, ctx));
    sort_exprs.push_back(std::move(se));
  }
  FUSION_ASSIGN_OR_RAISE(int64_t fetch, r->I64());
  FUSION_ASSIGN_OR_RAISE(int64_t skip, r->I64());
  FUSION_ASSIGN_OR_RAISE(uint8_t join_kind_raw, r->U8());
  JoinKind join_kind = static_cast<JoinKind>(join_kind_raw);
  FUSION_ASSIGN_OR_RAISE(uint32_t num_on, r->U32());
  std::vector<std::pair<ExprPtr, ExprPtr>> join_on;
  for (uint32_t i = 0; i < num_on; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto l, ReadExprTree(r, ctx));
    FUSION_ASSIGN_OR_RAISE(auto rr, ReadExprTree(r, ctx));
    join_on.emplace_back(std::move(l), std::move(rr));
  }
  FUSION_ASSIGN_OR_RAISE(bool has_join_filter, r->Bool());
  ExprPtr join_filter;
  if (has_join_filter) {
    FUSION_ASSIGN_OR_RAISE(join_filter, ReadExprTree(r, ctx));
  }
  FUSION_ASSIGN_OR_RAISE(uint32_t num_value_rows, r->U32());
  std::vector<std::vector<ExprPtr>> values_rows;
  for (uint32_t i = 0; i < num_value_rows; ++i) {
    FUSION_ASSIGN_OR_RAISE(uint32_t row_len, r->U32());
    std::vector<ExprPtr> row;
    for (uint32_t j = 0; j < row_len; ++j) {
      FUSION_ASSIGN_OR_RAISE(auto e, ReadExprTree(r, ctx));
      row.push_back(std::move(e));
    }
    values_rows.push_back(std::move(row));
  }
  FUSION_ASSIGN_OR_RAISE(std::string alias, r->Str());
  FUSION_ASSIGN_OR_RAISE(bool produce_one_row, r->Bool());
  FUSION_ASSIGN_OR_RAISE(bool explain_analyze, r->Bool());

  // Reconstruct with validation through the Make* constructors.
  switch (kind) {
    case PlanKind::kTableScan: {
      FUSION_ASSIGN_OR_RAISE(auto provider, (*ctx.resolver)(table_name));
      return MakeTableScan(table_name, std::move(provider), std::move(projection),
                           std::move(scan_filters), scan_limit);
    }
    case PlanKind::kProjection:
      return MakeProjection(std::move(children[0]), std::move(exprs));
    case PlanKind::kFilter:
      return MakeFilter(std::move(children[0]), std::move(predicate));
    case PlanKind::kAggregate:
      return MakeAggregate(std::move(children[0]), std::move(group_exprs),
                           std::move(aggr_exprs));
    case PlanKind::kSort:
      return MakeSort(std::move(children[0]), std::move(sort_exprs), fetch);
    case PlanKind::kLimit:
      return MakeLimit(std::move(children[0]), skip, fetch);
    case PlanKind::kJoin:
      return MakeJoin(std::move(children[0]), std::move(children[1]), join_kind,
                      std::move(join_on), std::move(join_filter));
    case PlanKind::kUnion:
      return MakeUnion(std::move(children));
    case PlanKind::kDistinct:
      return MakeDistinct(std::move(children[0]));
    case PlanKind::kWindow:
      return MakeWindow(std::move(children[0]), std::move(exprs));
    case PlanKind::kValues:
      return MakeValues(std::move(values_rows));
    case PlanKind::kSubqueryAlias:
      return MakeSubqueryAlias(std::move(children[0]), std::move(alias));
    case PlanKind::kEmptyRelation:
      return MakeEmptyRelation(produce_one_row);
    case PlanKind::kExplain:
      return MakeExplain(std::move(children[0]), explain_analyze);
  }
  return Status::IOError("plan serde: unknown plan kind");
}

}  // namespace

Result<std::vector<uint8_t>> SerializePlan(
    const PlanPtr& plan, std::vector<catalog::TableProviderPtr>* scans) {
  Writer w;
  w.scans = scans;
  FUSION_RETURN_NOT_OK(WritePlanTree(&w, plan));
  return w.Take();
}

Result<PlanPtr> DeserializePlan(const uint8_t* data, size_t size,
                                const TableResolver& resolver,
                                const FunctionRegistryPtr& registry) {
  Reader r(data, size);
  DeserializeContext ctx{&resolver, registry};
  return ReadPlanTree(&r, ctx);
}

Result<std::vector<uint8_t>> SerializeExpr(const ExprPtr& expr) {
  Writer w;
  FUSION_RETURN_NOT_OK(WriteExprTree(&w, expr));
  return w.Take();
}

Result<ExprPtr> DeserializeExpr(const uint8_t* data, size_t size,
                                const FunctionRegistryPtr& registry) {
  Reader r(data, size);
  TableResolver null_resolver;
  DeserializeContext ctx{&null_resolver, registry};
  return ReadExprTree(&r, ctx);
}

}  // namespace logical
}  // namespace fusion
