// H2O db-benchmark groupby (G1_N_K): id1..id3 string categories,
// id4..id6 integer categories, v1, v2 small integers and v3 a double,
// written as one CSV file through the engine's CSV writer and parsed
// again by every query. q1 is checked against per-id1 sums of v1 and
// q10 against the number of distinct (id1..id6) groups.

#include <map>
#include <unordered_set>

#include "arrow/builder.h"
#include "check.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace fusion;  // NOLINT

AnalyticWorkload MakeH2o(uint64_t seed, int64_t rows, int64_t k) {
  TableData t;
  t.name = "h2o";
  t.csv = true;
  t.schema = schema({Field("id1", utf8(), false), Field("id2", utf8(), false),
                     Field("id3", utf8(), false), Field("id4", int64(), false),
                     Field("id5", int64(), false), Field("id6", int64(), false),
                     Field("v1", int64(), false), Field("v2", int64(), false),
                     Field("v3", float64(), false)});
  std::map<std::string, int64_t> v1_by_id1;
  std::unordered_set<std::string> groups;
  const int64_t big_k = std::max<int64_t>(rows / k, 1);
  const int64_t batch_rows = 64 * 1024;
  Rng rng(seed, 200);
  char buf[32];
  for (int64_t start = 0; start < rows; start += batch_rows) {
    const int64_t n = std::min(batch_rows, rows - start);
    StringBuilder id1, id2, id3;
    Int64Builder id4, id5, id6, v1, v2;
    Float64Builder v3;
    for (int64_t i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof(buf), "id%03d", static_cast<int>(rng.Uniform(1, k)));
      const std::string s1 = buf;
      std::snprintf(buf, sizeof(buf), "id%03d", static_cast<int>(rng.Uniform(1, k)));
      const std::string s2 = buf;
      std::snprintf(buf, sizeof(buf), "id%010lld",
                    static_cast<long long>(rng.Uniform(1, big_k)));
      const std::string s3 = buf;
      const int64_t i4 = rng.Uniform(1, k), i5 = rng.Uniform(1, k),
                    i6 = rng.Uniform(1, big_k);
      const int64_t x1 = rng.Uniform(1, 5), x2 = rng.Uniform(1, 15);
      // Four decimals: the writer's six significant digits keep v3 exact.
      const double x3 = static_cast<double>(rng.Uniform(0, 999999)) / 10000.0;
      id1.Append(s1);
      id2.Append(s2);
      id3.Append(s3);
      id4.Append(i4);
      id5.Append(i5);
      id6.Append(i6);
      v1.Append(x1);
      v2.Append(x2);
      v3.Append(x3);
      v1_by_id1[s1] += x1;
      groups.insert(s1 + s2 + s3 + "|" + std::to_string(i4) + "|" + std::to_string(i5) +
                    "|" + std::to_string(i6));
    }
    std::vector<ArrayPtr> columns;
    for (ArrayBuilder* b : std::initializer_list<ArrayBuilder*>{
             &id1, &id2, &id3, &id4, &id5, &id6, &v1, &v2, &v3}) {
      columns.push_back(b->Finish().ValueOrDie());
    }
    t.batches.push_back(std::make_shared<RecordBatch>(t.schema, n, std::move(columns)));
  }

  AnalyticWorkload w;
  w.tables.push_back(std::move(t));
  w.rows = rows;
  w.queries = {
      {"q1", "SELECT id1, sum(v1) AS v1 FROM h2o GROUP BY id1"},
      {"q2", "SELECT id1, id2, sum(v1) AS v1 FROM h2o GROUP BY id1, id2"},
      {"q3", "SELECT id3, sum(v1) AS v1, avg(v3) AS v3 FROM h2o GROUP BY id3"},
      {"q4",
       "SELECT id4, avg(v1) AS v1, avg(v2) AS v2, avg(v3) AS v3 FROM h2o GROUP BY id4"},
      {"q5",
       "SELECT id6, sum(v1) AS v1, sum(v2) AS v2, sum(v3) AS v3 FROM h2o GROUP BY id6"},
      {"q6",
       "SELECT id4, id5, median(v3) AS median_v3, stddev(v3) AS sd_v3 FROM h2o "
       "GROUP BY id4, id5"},
      {"q7", "SELECT id3, max(v1) - min(v2) AS range_v1_v2 FROM h2o GROUP BY id3"},
      {"q8",
       "SELECT id6, v3 FROM (SELECT id6, v3, row_number() OVER "
       "(PARTITION BY id6 ORDER BY v3 DESC) AS rn FROM h2o) ranked WHERE rn <= 2"},
      {"q9",
       "SELECT id2, id4, power(corr(v1, v2), 2) AS r2 FROM h2o GROUP BY id2, id4"},
      {"q10",
       "SELECT id1, id2, id3, id4, id5, id6, sum(v3) AS v3, count(*) AS cnt "
       "FROM h2o GROUP BY id1, id2, id3, id4, id5, id6"},
  };
  w.queries[0].exact = [v1_by_id1](const std::vector<RecordBatchPtr>& b) -> std::string {
    Rows rows = ToRows(b);
    if (rows.size() != v1_by_id1.size()) return "q1: group count";
    for (const Row& r : rows) {
      auto it = v1_by_id1.find(r[0].text);
      if (it == v1_by_id1.end() || r[1].text != std::to_string(it->second)) {
        return "q1: sum(v1) of " + r[0].text;
      }
    }
    return "";
  };
  const auto n_groups = static_cast<int64_t>(groups.size());
  w.queries[9].exact = [n_groups, rows](const std::vector<RecordBatchPtr>& b) -> std::string {
    // Read the count column directly: the result has about one row per
    // input row.
    int64_t groups_seen = 0, total = 0;
    for (const auto& batch : b) {
      if (batch->num_columns() != 8) return "q10: shape";
      const auto& cnt = checked_cast<Int64Array>(*batch->column(7));
      for (int64_t r = 0; r < batch->num_rows(); ++r) total += cnt.Value(r);
      groups_seen += batch->num_rows();
    }
    if (groups_seen != n_groups) {
      return "q10: " + std::to_string(groups_seen) + " groups, expected " +
             std::to_string(n_groups);
    }
    return total == rows ? "" : "q10: counts do not sum to the row count";
  };
  return w;
}

}  // namespace perfbench
