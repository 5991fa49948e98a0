// Value-level comparison of query results: against exact answers
// tallied by the generators, and against the TIE engine's answer.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "arrow/record_batch.h"
#include "workloads.h"

namespace perfbench {

/// One result value. Numbers keep a double for tolerant comparison,
/// decimals also their exact unscaled value.
struct Cell {
  std::string text;
  bool is_null = false;
  bool is_number = false;
  double number = 0;
  bool is_decimal = false;
  __int128 unscaled = 0;
  int scale = 0;
};
using Row = std::vector<Cell>;
using Rows = std::vector<Row>;

/// Rows in stream order; dictionary and dense strings read alike.
Rows ToRows(const std::vector<fusion::RecordBatchPtr>& batches);

/// Doubles agree to 1e-9 absolute or 1e-6 relative: float sums differ
/// in their last bits with the order partitions combine them.
bool SameNumber(const Cell& cell, double expected);
/// Exact: the decimal cell equals expected / 10^scale.
bool SameDecimal(const Cell& cell, __int128 expected, int scale);
bool SameCell(const Cell& a, const Cell& b);

/// Compare the engine's result of `query` with the oracle's. Checks
/// that ordered output is sorted on the query's keys, that LIMIT row
/// counts hold, and that the rows agree by value; rows tied on the sort
/// key at a LIMIT boundary only need the same key. Returns "" on a
/// match, else what differs.
std::string CompareWithOracle(const Query& query, const Rows& engine, const Rows& oracle);

/// A LIMIT without ORDER BY keeps only a hash of each row of the full
/// answer (sorted), not the rows: that answer can be large.
std::vector<uint64_t> RowHashes(const Rows& rows);
/// The engine returned `limit` rows (all, if the full answer has fewer)
/// and each is a row of the full answer, counting repeated rows.
std::string CompareWithFullAnswer(const Query& query, const Rows& engine,
                                  const std::vector<uint64_t>& full);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
