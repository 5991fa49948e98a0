// The benchmark's inputs: seeded generators for TPC-H, ClickBench
// "hits" and H2O groupby, their query lists, and the independent
// answers tallied while generating. Everything a workload feeds the
// engine is defined here, so changes elsewhere in the repository cannot
// alter a workload's inputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arrow/record_batch.h"

namespace perfbench {

/// One table as generated: written through the engine's FPQ writer
/// (split over `files` files) or, with `csv` set, its CSV writer.
struct TableData {
  std::string name;
  fusion::SchemaPtr schema;
  std::vector<fusion::RecordBatchPtr> batches;
  int files = 1;
  bool csv = false;
  int64_t row_group_rows = 64 * 1024;
};

/// Checks a result against an answer computed apart from the engine;
/// returns "" when it matches, else what differs.
using ExactCheck = std::function<std::string(const std::vector<fusion::RecordBatchPtr>&)>;

/// One benchmark query and how its answer is checked. Queries without
/// an exact check are compared by value with the TIE engine's answer.
struct Query {
  Query(std::string id_, std::string sql_, std::string order_ = "", int64_t limit_ = -1,
        bool offset_ = false, std::string oracle_sql_ = "")
      : id(std::move(id_)), sql(std::move(sql_)), order(std::move(order_)), limit(limit_),
        offset(offset_), oracle_sql(std::move(oracle_sql_)) {}

  std::string id;
  std::string sql;
  /// Sort keys over output columns, e.g. "1d,0a" (column 1 descending,
  /// then column 0 ascending); empty = no ORDER BY.
  std::string order;
  /// LIMIT of the query (-1 = none).
  int64_t limit;
  /// LIMIT with OFFSET: rows tied with the first row's key may differ.
  bool offset;
  /// LIMIT without ORDER BY: TIE runs `oracle_sql` (the query without
  /// its LIMIT) and every returned row must be one of its rows.
  std::string oracle_sql;
  ExactCheck exact;
};

struct AnalyticWorkload {
  std::vector<TableData> tables;
  std::vector<Query> queries;
  int64_t rows = 0;  ///< generated rows over all tables
};

AnalyticWorkload MakeTpch(uint64_t seed, double scale_factor);
AnalyticWorkload MakeClickBench(uint64_t seed, int64_t rows, int files);
AnalyticWorkload MakeH2o(uint64_t seed, int64_t rows, int64_t k);

/// The hits table alone (the serving workload's data).
TableData MakeHits(uint64_t seed, int64_t rows, int files);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
