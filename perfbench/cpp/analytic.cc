// Analytic suites: set up (write + open + register) several times, run
// one warm-up pass, then whole passes over the query list until the run
// time is used up. Every execution is checked against the oracle. Times
// are host-normalised with the probe in util.h: each query's time is
// scaled by kReferenceProbeSeconds over the median probe time of its pass.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "check.h"
#include "layers.h"
#include "runner.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

/// Each suite runs the defaults an embedding user gets (one partition
/// per core), with the buffer and plan caches off so every pass decodes
/// and plans again.
core::SessionContextPtr MakeSession(int target_partitions) {
  exec::SessionConfig config;
  if (target_partitions > 0) config.target_partitions = target_partitions;
  config.plan_cache_entries = 0;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->buffer_cache = nullptr;
  return core::SessionContext::Make(config, env);
}

struct Oracle {
  Rows rows;
  std::vector<uint64_t> full_answer;  ///< LIMIT without ORDER BY: row hashes
  bool exact = false;
};

/// Median of a few probes taken now: the host speed for a set-up.
double ProbeNow() {
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(HostProbeSeconds());
  return Median(probes);
}

}  // namespace

void RunAnalytic(const RunOptions& options, AnalyticWorkload workload, Report* report) {
  Tracer tracer(options.trace);
  const int partitions = [] {
    const char* env = std::getenv("PERFBENCH_PARTITIONS");
    return env != nullptr ? std::atoi(env) : 0;
  }();

  // ---- set-up: write through the engine, open, register -------------
  const double phase0 = NowSeconds();
  std::vector<double> setup_s;
  core::SessionContextPtr session;
  std::vector<WrittenTable> written;
  std::string data_dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!data_dir.empty()) {
      session.reset();
      std::filesystem::remove_all(data_dir);
    }
    data_dir = options.work_dir + "/setup" + std::to_string(rep);
    const double probe = ProbeNow();
    ScopedSpan span(&tracer, "setup", 0, 0);
    const double t0 = NowSeconds();
    auto files = WriteTables(workload.tables, data_dir, &tracer, span.id());
    if (!files.ok()) {
      report->Fail("setup write: " + files.status().ToString());
      return;
    }
    written = std::move(*files);
    session = MakeSession(partitions);
    Status st = RegisterTables(session.get(), written, true, &tracer, span.id());
    setup_s.push_back((NowSeconds() - t0) * kReferenceProbeSeconds / probe);
    if (!st.ok()) {
      report->Fail("setup register: " + st.ToString());
      return;
    }
  }
  const int64_t stored_bytes = TreeBytes(data_dir);
  const double phase1 = NowSeconds();

  workload.tables.clear();  // generator buffers are not part of the query phase
  TrimHeap();
  const int64_t resident_before_oracle = CurrentRssBytes();

  // ---- oracle: exact tallies, else TIE on the same files ------------
  auto tie_session = MakeSession(1);
  Tracer untraced(false);
  if (Status st = RegisterTables(tie_session.get(), written, false, &untraced, 0); !st.ok()) {
    report->Fail("oracle register: " + st.ToString());
    return;
  }
  const auto& queries = workload.queries;
  // TIE runs every query (timed, for reference), and its answer is kept
  // for those without an exact check.
  std::vector<Oracle> oracles(queries.size());
  double tie_s = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& sql =
        queries[i].oracle_sql.empty() ? queries[i].sql : queries[i].oracle_sql;
    const double t0 = NowSeconds();
    auto tie = ExecuteTie(tie_session.get(), sql);
    tie_s += NowSeconds() - t0;
    if (!tie.ok()) {
      report->Fail(queries[i].id + " oracle: " + tie.status().ToString());
      return;
    }
    oracles[i].exact = static_cast<bool>(queries[i].exact);
    if (oracles[i].exact) continue;
    if (queries[i].oracle_sql.empty()) {
      oracles[i].rows = ToRows(*tie);
    } else {
      oracles[i].full_answer = RowHashes(ToRows(*tie));
    }
  }
  tie_session.reset();
  TrimHeap();

  // ---- query phase ----------------------------------------------------
  LayerStats layers;
  auto run_one = [&](size_t i) -> double {
    const Query& q = queries[i];
    report->attempted += 1;
    const double t0 = NowSeconds();
    auto result = options.trace ? ExecuteTraced(session.get(), q.sql, &tracer, &layers)
                                : session->ExecuteSql(q.sql);
    const double elapsed = NowSeconds() - t0;
    if (!result.ok()) {
      report->Fail(q.id + ": " + result.status().ToString());
      return -1;
    }
    std::string diff;
    if (oracles[i].exact) {
      diff = q.exact(*result);
    } else if (!q.oracle_sql.empty()) {
      diff = CompareWithFullAnswer(q, ToRows(*result), oracles[i].full_answer);
    } else {
      diff = CompareWithOracle(q, ToRows(*result), oracles[i].rows);
    }
    if (!diff.empty()) {
      report->correct = false;
      report->Fail(q.id + " answer: " + diff);
      return -1;
    }
    return elapsed;
  };

  const double phase2 = NowSeconds();
  // Resident before the first query: the program, the registered tables
  // and what the checks hold (reported on stderr with the checks' share).
  const int64_t resident_at_start = CurrentRssBytes();
  RssSampler rss;
  rss.Start();
  for (size_t i = 0; i < queries.size(); ++i) run_one(i);  // warm-up, untimed
  const double phase3 = NowSeconds();
  // Per query: raw and host-normalised seconds of every timed execution.
  std::vector<std::vector<double>> raw(queries.size()), normalised(queries.size());
  int64_t timed = 0;
  double normalised_busy_s = 0;
  const double start = NowSeconds();
  std::vector<double> pass_s, pass_probe_ms;
  while (pass_s.empty() || NowSeconds() - start < options.seconds) {
    std::vector<double> probes, times(queries.size(), -1);
    for (size_t i = 0; i < queries.size(); ++i) {
      probes.push_back(HostProbeSeconds());
      times[i] = run_one(i);
    }
    const double scale = kReferenceProbeSeconds / Median(probes);
    pass_s.push_back(0);
    pass_probe_ms.push_back(Median(probes) * 1e3);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (times[i] < 0) continue;
      raw[i].push_back(times[i]);
      normalised[i].push_back(times[i] * scale);
      normalised_busy_s += times[i] * scale;
      pass_s.back() += times[i];
      ++timed;
    }
  }
  const int64_t peak_rss = rss.Stop();

  // Per-query medians over the timed passes, in ms.
  std::vector<double> medians;
  double suite = 0, raw_suite = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (normalised[i].empty()) continue;
    medians.push_back(Median(normalised[i]) * 1e3);
    suite += medians.back() / 1e3;
    raw_suite += Median(raw[i]);
  }
  std::fprintf(stderr,
               "%s: %zu queries, %d timed passes, %zu rows generated; set-ups %.2f s, "
               "oracle %.2f s, warm-up %.2f s, timed passes %.2f s; resident %.1f MB at "
               "the first query (%.1f MB of it added by the oracle phase), peak %.1f MB\n",
               options.workload.c_str(), queries.size(), static_cast<int>(pass_s.size()),
               static_cast<size_t>(workload.rows), phase1 - phase0, phase2 - phase1,
               phase3 - phase2, NowSeconds() - phase3, static_cast<double>(resident_at_start) / 1e6,
               static_cast<double>(resident_at_start - resident_before_oracle) / 1e6,
               static_cast<double>(peak_rss) / 1e6);
  std::fputs("  pass times (s, raw):", stderr);
  for (double p : pass_s) std::fprintf(stderr, " %.3f", p);
  std::fputs("\n  pass probe medians (ms):", stderr);
  for (double p : pass_probe_ms) std::fprintf(stderr, " %.3f", p);
  std::fputs("\n  query   normalised ms      raw ms\n", stderr);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!raw[i].empty()) {
      std::fprintf(stderr, "  %-4s %15.2f %11.2f\n", queries[i].id.c_str(),
                   Median(normalised[i]) * 1e3, Median(raw[i]) * 1e3);
    }
  }
  std::fprintf(stderr,
               "%s suite_s=%.4f (raw %.4f) latency_p50_ms=%.3f setup_s=%.4f "
               "tie_suite_s=%.4f (raw)%s\n",
               options.workload.c_str(), suite, raw_suite, Median(medians), Median(setup_s),
               tie_s, options.trace ? " (traced)" : "");

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("suite_s", suite, "s");
    report->Set("query_geomean_ms", GeoMean(medians), "ms");
    report->Set("queries_per_s",
                normalised_busy_s > 0 ? static_cast<double>(timed) / normalised_busy_s : 0,
                "1/s");
    // A run executes each query only a few times, too few samples for a
    // tail over executions: the percentiles are over the per-query medians.
    report->Set("latency_p50_ms", Median(medians), "ms");
    report->Set("latency_p99_ms", Percentile(medians, 0.99), "ms");
    report->Set("peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB");
    report->Set("stored_mb", static_cast<double>(stored_bytes) / 1e6, "MB");
  } else {
    for (const auto& [name, unit] : PerLayerMetrics()) report->Set(name, 0, unit);
    ReportQueryLayers(tracer, layers, report);
    // Writers and opens are summed per set-up, then averaged over them.
    report->Set("format.write_ms", tracer.TotalMs("format.write") / kSetupRepeats, "ms");
    report->Set("catalog.open_ms", tracer.TotalMs("catalog.open") / kSetupRepeats, "ms");
    report->Set("exec.peak_threads",
                static_cast<double>(session->env()->scheduler()->peak_threads()), "count");
    std::fputs(tracer.SelfTimeSummary().c_str(), stderr);
    if (!tracer.WriteJson(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
    }
  }
  session.reset();
  std::filesystem::remove_all(data_dir);
}

}  // namespace perfbench
