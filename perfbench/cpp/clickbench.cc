// ClickBench: a synthetic "hits" table with the original's skew
// (zipfian users and URLs, mostly-empty search phrases, bursty ad
// traffic) and the runnable queries in the original's shapes. Q1-Q7 are
// checked against counts, sums, extremes and exact distinct counts
// tallied while generating.

#include <unordered_set>

#include "arrow/builder.h"
#include "check.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

const char* kSearchWords[] = {"weather",   "news",   "maps",   "video",
                              "translate", "games",  "mail",   "music",
                              "hotel",     "flight", "recipe", "football"};
const char* kPhoneModels[] = {"", "", "", "", "", "", "", "",
                              "iphone", "galaxy", "pixel", "nokia"};

/// Answers of Q1-Q7 computed from the generated rows.
struct HitsTally {
  int64_t rows = 0;
  int64_t adv_nonzero = 0;
  int64_t sum_adv = 0;
  int64_t sum_resolution = 0;
  __int128 sum_user = 0;
  std::unordered_set<int64_t> users;
  std::unordered_set<std::string> phrases;
  int32_t min_date = INT32_MAX;
  int32_t max_date = INT32_MIN;
};

TableData GenerateHits(uint64_t seed, int64_t rows, int files, HitsTally* tally) {
  TableData t;
  t.name = "hits";
  t.files = files;
  t.schema = schema({
      Field("WatchID", int64(), false),
      Field("UserID", int64(), false),
      Field("CounterID", int64(), false),
      Field("AdvEngineID", int64(), false),
      Field("RegionID", int64(), false),
      Field("SearchPhrase", utf8(), false),
      Field("SearchEngineID", int64(), false),
      Field("URL", utf8(), false),
      Field("Referer", utf8(), false),
      Field("Title", utf8(), false),
      Field("EventDate", date32(), false),
      Field("EventTime", timestamp(), false),
      Field("ResolutionWidth", int64(), false),
      Field("IsRefresh", int64(), false),
      Field("MobilePhoneModel", utf8(), false),
  });
  const int64_t num_users = std::max<int64_t>(rows / 3, 100);
  const int64_t num_urls = std::max<int64_t>(rows / 6, 100);
  const Zipf user_zipf(std::min<int64_t>(num_users, 100000), 1.05);
  const Zipf url_zipf(std::min<int64_t>(num_urls, 100000), 1.1);
  const int32_t base_date = DaysFromCivil(2013, 7, 1);
  const int64_t batch_rows = 64 * 1024;
  Rng rng(seed, 100);
  for (int64_t start = 0; start < rows; start += batch_rows) {
    const int64_t n = std::min(batch_rows, rows - start);
    Int64Builder watch_id, user_id, counter_id, adv_engine, region, search_engine,
        resolution, is_refresh;
    StringBuilder phrase, url, referer, title, phone;
    Date32Builder event_date;
    TimestampBuilder event_time;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = start + i;
      watch_id.Append(static_cast<int64_t>(rng.Next() >> 1));
      // Zipfian head plus uniform tail: ~rows/3 distinct users.
      const int64_t uid = 1000000000LL + (rng.Next() % 4 == 0 ? user_zipf.Sample(&rng)
                                                              : rng.Uniform(0, num_users - 1));
      user_id.Append(uid);
      counter_id.Append(rng.Uniform(1, 2000));
      // ~5% of rows come from an ad engine, in bursts (campaigns), so
      // zone maps can prune row groups as on the real data.
      const bool ad_burst = (row / 2048) % 20 == 0;
      const int64_t adv = ad_burst && rng.Next() % 2 == 0 ? rng.Uniform(1, 20) : 0;
      adv_engine.Append(adv);
      region.Append(rng.Uniform(1, 5000));
      std::string p;
      if (rng.Next() % 10 == 0) {  // ~10% of rows carry a search phrase
        p = kSearchWords[rng.Uniform(0, 11)];
        if (rng.Next() % 3 == 0) {
          p += " ";
          p += kSearchWords[rng.Uniform(0, 11)];
        }
      }
      phrase.Append(p);
      search_engine.Append(rng.Next() % 10 == 0 ? rng.Uniform(1, 60) : 0);
      const int64_t url_id = rng.Next() % 3 == 0 ? url_zipf.Sample(&rng)
                                                 : rng.Uniform(0, num_urls - 1);
      url.Append("http://example.com/page/" + std::to_string(url_id) +
                 (url_id % 17 == 0 ? "/google/ads" : ""));
      referer.Append(rng.Next() % 2 == 0
                         ? ""
                         : "http://ref.example.org/" + std::to_string(rng.Uniform(0, 9999)));
      title.Append("Title " + std::string(kSearchWords[rng.Uniform(0, 11)]) + " " +
                   std::to_string(url_id % 1000));
      const int32_t date = base_date + static_cast<int32_t>(row * 30 / rows);
      event_date.Append(date);
      event_time.Append((static_cast<int64_t>(date) * 86400 + rng.Uniform(0, 86399)) *
                        1000000LL);
      const int64_t width = rng.Uniform(0, 4) == 0 ? 0 : rng.Uniform(800, 2560);
      resolution.Append(width);
      is_refresh.Append(rng.Next() % 50 == 0 ? 1 : 0);
      phone.Append(kPhoneModels[rng.Uniform(0, 11)]);

      if (tally != nullptr) {
        tally->rows += 1;
        tally->adv_nonzero += adv != 0 ? 1 : 0;
        tally->sum_adv += adv;
        tally->sum_resolution += width;
        tally->sum_user += uid;
        tally->users.insert(uid);
        tally->phrases.insert(p);
        tally->min_date = std::min(tally->min_date, date);
        tally->max_date = std::max(tally->max_date, date);
      }
    }
    std::vector<ArrayPtr> columns;
    for (ArrayBuilder* b : std::initializer_list<ArrayBuilder*>{
             &watch_id, &user_id, &counter_id, &adv_engine, &region, &phrase,
             &search_engine, &url, &referer, &title, &event_date, &event_time,
             &resolution, &is_refresh, &phone}) {
      columns.push_back(b->Finish().ValueOrDie());
    }
    t.batches.push_back(std::make_shared<RecordBatch>(t.schema, n, std::move(columns)));
  }
  return t;
}

/// Single-row result with the given cells, compared exactly (integers)
/// or with tolerance (averages).
ExactCheck ExpectOneRow(std::string name, std::vector<double> values, std::vector<bool> approx) {
  return [name, values, approx](const std::vector<RecordBatchPtr>& b) -> std::string {
    Rows rows = ToRows(b);
    if (rows.size() != 1 || rows[0].size() != values.size()) return name + ": result shape";
    for (size_t i = 0; i < values.size(); ++i) {
      const Cell& c = rows[0][i];
      const bool ok = approx[i] ? SameNumber(c, values[i])
                                : c.is_number && c.number == values[i];
      if (!ok) return name + ": column " + std::to_string(i) + " is " + c.text;
    }
    return "";
  };
}

std::vector<Query> ClickBenchQueries() {
  // Shapes of the original ClickBench queries over the synthetic
  // schema. Q35 groups by ClientIP, which the synthetic schema lacks.
  // Q25, Q27, Q38 and Q39 also return the EventTime they sort by, so
  // their order can be checked.
  return {
      {"q1", "SELECT count(*) FROM hits"},
      {"q2", "SELECT count(*) FROM hits WHERE AdvEngineID <> 0"},
      {"q3", "SELECT sum(AdvEngineID), count(*), avg(ResolutionWidth) FROM hits"},
      {"q4", "SELECT avg(UserID) FROM hits"},
      {"q5", "SELECT count(DISTINCT UserID) FROM hits"},
      {"q6", "SELECT count(DISTINCT SearchPhrase) FROM hits"},
      {"q7", "SELECT min(EventDate), max(EventDate) FROM hits"},
      {"q8",
       "SELECT AdvEngineID, count(*) FROM hits WHERE AdvEngineID <> 0 "
       "GROUP BY AdvEngineID ORDER BY count(*) DESC", "1d"},
      {"q9",
       "SELECT RegionID, count(DISTINCT UserID) AS u FROM hits "
       "GROUP BY RegionID ORDER BY u DESC LIMIT 10", "1d", 10},
      {"q10",
       "SELECT RegionID, sum(AdvEngineID), count(*) AS c, avg(ResolutionWidth), "
       "count(DISTINCT UserID) FROM hits GROUP BY RegionID ORDER BY c DESC LIMIT 10",
       "2d", 10},
      {"q11",
       "SELECT MobilePhoneModel, count(DISTINCT UserID) AS u FROM hits "
       "WHERE MobilePhoneModel <> '' GROUP BY MobilePhoneModel ORDER BY u DESC LIMIT 10",
       "1d", 10},
      {"q12",
       "SELECT SearchEngineID, MobilePhoneModel, count(DISTINCT UserID) AS u "
       "FROM hits WHERE MobilePhoneModel <> '' "
       "GROUP BY SearchEngineID, MobilePhoneModel ORDER BY u DESC LIMIT 10", "2d", 10},
      {"q13",
       "SELECT SearchPhrase, count(*) AS c FROM hits WHERE SearchPhrase <> '' "
       "GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10", "1d", 10},
      {"q14",
       "SELECT SearchPhrase, count(DISTINCT UserID) AS u FROM hits "
       "WHERE SearchPhrase <> '' GROUP BY SearchPhrase ORDER BY u DESC LIMIT 10", "1d", 10},
      {"q15",
       "SELECT SearchEngineID, SearchPhrase, count(*) AS c FROM hits "
       "WHERE SearchPhrase <> '' GROUP BY SearchEngineID, SearchPhrase "
       "ORDER BY c DESC LIMIT 10", "2d", 10},
      {"q16",
       "SELECT UserID, count(*) FROM hits GROUP BY UserID ORDER BY count(*) DESC LIMIT 10",
       "1d", 10},
      {"q17",
       "SELECT UserID, SearchPhrase, count(*) FROM hits "
       "GROUP BY UserID, SearchPhrase ORDER BY count(*) DESC LIMIT 10", "2d", 10},
      {"q18",
       "SELECT UserID, SearchPhrase, count(*) FROM hits "
       "GROUP BY UserID, SearchPhrase LIMIT 10", "", 10, false,
       "SELECT UserID, SearchPhrase, count(*) FROM hits GROUP BY UserID, SearchPhrase"},
      {"q19",
       "SELECT UserID, date_part('minute', EventTime) AS m, SearchPhrase, count(*) "
       "FROM hits GROUP BY UserID, m, SearchPhrase ORDER BY count(*) DESC LIMIT 10",
       "3d", 10},
      {"q20", "SELECT UserID FROM hits WHERE UserID = 1000000435"},
      {"q21", "SELECT count(*) FROM hits WHERE URL LIKE '%google%'"},
      {"q22",
       "SELECT SearchPhrase, min(URL), count(*) AS c FROM hits "
       "WHERE URL LIKE '%google%' AND SearchPhrase <> '' "
       "GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10", "2d", 10},
      {"q23",
       "SELECT SearchPhrase, min(URL), min(Title), count(*) AS c, "
       "count(DISTINCT UserID) FROM hits WHERE Title LIKE '%news%' "
       "AND URL NOT LIKE '%ads%' AND SearchPhrase <> '' "
       "GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10", "3d", 10},
      {"q24", "SELECT * FROM hits WHERE URL LIKE '%google%' ORDER BY EventTime LIMIT 10",
       "11a", 10},
      {"q25",
       "SELECT SearchPhrase, EventTime FROM hits WHERE SearchPhrase <> '' "
       "ORDER BY EventTime LIMIT 10", "1a", 10},
      {"q26",
       "SELECT SearchPhrase FROM hits WHERE SearchPhrase <> '' "
       "ORDER BY SearchPhrase LIMIT 10", "0a", 10},
      {"q27",
       "SELECT SearchPhrase, EventTime FROM hits WHERE SearchPhrase <> '' "
       "ORDER BY EventTime, SearchPhrase LIMIT 10", "1a,0a", 10},
      {"q28",
       "SELECT CounterID, avg(length(URL)) AS l, count(*) AS c FROM hits "
       "WHERE URL <> '' GROUP BY CounterID HAVING count(*) > 50 "
       "ORDER BY l DESC LIMIT 25", "1d", 25},
      {"q29",
       "SELECT replace(Referer, 'http://', '') AS k, avg(length(Referer)) AS l, "
       "count(*) AS c FROM hits WHERE Referer <> '' GROUP BY k "
       "HAVING count(*) > 10 ORDER BY l DESC LIMIT 25", "1d", 25},
      {"q30",
       "SELECT sum(ResolutionWidth), sum(ResolutionWidth + 1), "
       "sum(ResolutionWidth + 2), sum(ResolutionWidth + 3), "
       "sum(ResolutionWidth + 4), sum(ResolutionWidth + 5), "
       "sum(ResolutionWidth + 6), sum(ResolutionWidth + 7), "
       "sum(ResolutionWidth + 8), sum(ResolutionWidth + 9) FROM hits"},
      {"q31",
       "SELECT SearchEngineID, IsRefresh, count(*) AS c FROM hits "
       "GROUP BY SearchEngineID, IsRefresh ORDER BY c DESC LIMIT 10", "2d", 10},
      {"q32",
       "SELECT WatchID % 1024 AS w, IsRefresh, count(*) AS c, sum(ResolutionWidth) "
       "FROM hits GROUP BY w, IsRefresh ORDER BY c DESC LIMIT 10", "2d", 10},
      {"q33", "SELECT URL, count(*) AS c FROM hits GROUP BY URL ORDER BY c DESC LIMIT 10",
       "1d", 10},
      {"q34",
       "SELECT 1 AS one, URL, count(*) AS c FROM hits GROUP BY one, URL "
       "ORDER BY c DESC LIMIT 10", "2d", 10},
      {"q36",
       "SELECT URL, count(*) AS c FROM hits WHERE IsRefresh = 0 "
       "GROUP BY URL ORDER BY c DESC LIMIT 10", "1d", 10},
      {"q37",
       "SELECT Title, count(*) AS c FROM hits WHERE IsRefresh = 0 AND "
       "Title <> '' GROUP BY Title ORDER BY c DESC LIMIT 10", "1d", 10},
      {"q38",
       "SELECT URL, EventTime FROM hits WHERE IsRefresh = 0 AND URL LIKE '%google%' "
       "ORDER BY EventTime LIMIT 10", "1a", 10},
      {"q39",
       "SELECT SearchPhrase, EventTime FROM hits WHERE SearchPhrase LIKE '%news%' AND "
       "IsRefresh = 0 ORDER BY EventTime LIMIT 10", "1a", 10},
      {"q40",
       "SELECT URL, count(*) AS c FROM hits WHERE Referer <> '' "
       "GROUP BY URL ORDER BY c DESC LIMIT 10 OFFSET 100", "1d", 10, true},
      {"q41",
       "SELECT RegionID, count(*) AS c FROM hits "
       "WHERE EventDate >= date '2013-07-10' AND EventDate <= date '2013-07-20' "
       "GROUP BY RegionID ORDER BY c DESC LIMIT 10", "1d", 10},
      {"q42",
       "SELECT SearchPhrase, count(*) AS c FROM hits "
       "WHERE EventDate >= date '2013-07-10' AND EventDate <= date '2013-07-20' "
       "AND SearchPhrase <> '' GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10", "1d", 10},
      {"q43",
       "SELECT date_part('day', EventDate) AS d, count(*) AS c FROM hits "
       "WHERE EventDate >= date '2013-07-10' AND EventDate <= date '2013-07-20' "
       "GROUP BY d ORDER BY d", "0a"},
  };
}

}  // namespace

TableData MakeHits(uint64_t seed, int64_t rows, int files) {
  return GenerateHits(seed, rows, files, nullptr);
}

AnalyticWorkload MakeClickBench(uint64_t seed, int64_t rows, int files) {
  HitsTally tally;
  AnalyticWorkload w;
  w.tables.push_back(GenerateHits(seed, rows, files, &tally));
  w.rows = rows;
  w.queries = ClickBenchQueries();
  const double n = static_cast<double>(tally.rows);
  for (auto& q : w.queries) {
    if (q.id == "q1") {
      q.exact = ExpectOneRow("Q1", {n}, {false});
    } else if (q.id == "q2") {
      q.exact = ExpectOneRow("Q2", {static_cast<double>(tally.adv_nonzero)}, {false});
    } else if (q.id == "q3") {
      q.exact = ExpectOneRow("Q3",
                             {static_cast<double>(tally.sum_adv), n,
                              static_cast<double>(tally.sum_resolution) / n},
                             {false, false, true});
    } else if (q.id == "q4") {
      q.exact = ExpectOneRow("Q4", {static_cast<double>(tally.sum_user) / n}, {true});
    } else if (q.id == "q5") {
      q.exact = ExpectOneRow("Q5", {static_cast<double>(tally.users.size())}, {false});
    } else if (q.id == "q6") {
      q.exact = ExpectOneRow("Q6", {static_cast<double>(tally.phrases.size())}, {false});
    } else if (q.id == "q7") {
      const int32_t lo = tally.min_date, hi = tally.max_date;
      q.exact = [lo, hi](const std::vector<RecordBatchPtr>& b) -> std::string {
        // Dates come back as date32 arrays; compare the day numbers.
        int64_t seen = 0;
        bool ok = true;
        for (const auto& batch : b) {
          for (int64_t r = 0; r < batch->num_rows(); ++r, ++seen) {
            if (batch->num_columns() != 2) return "Q7: shape";
            ok = ok && checked_cast<Int32Array>(*batch->column(0)).Value(r) == lo &&
                 checked_cast<Int32Array>(*batch->column(1)).Value(r) == hi;
          }
        }
        if (seen != 1) return "Q7: expected one row";
        return ok ? "" : "Q7: date range";
      };
    }
  }
  return w;
}

}  // namespace perfbench
