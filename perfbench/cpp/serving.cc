// Flight serving: one FlightServer over a session with the default
// caches, and a closed loop of nproc client connections (one thread
// each) issuing dashboard reads, half ad hoc and half prepared, plus a
// small fixed share of do-put uploads that re-register a table and are
// read back. Every read is compared with an answer fixed at set-up.

#include <cstdio>
#include <filesystem>
#include <thread>

#include "arrow/builder.h"
#include "arrow/ipc.h"
#include "check.h"
#include "flight/client.h"
#include "flight/server.h"
#include "layers.h"
#include "runner.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

/// Fits the 256 MiB buffer cache with room to spare once decoded.
constexpr int64_t kHitsRows = 400'000;
constexpr int kHitsFiles = 4;
/// A client round: every template ad hoc and prepared, twice; then one
/// put and its read-back.
constexpr int kReadPassesPerRound = 2;
constexpr int64_t kPutRows = 2000;
constexpr int64_t kMinReads = 1000;
constexpr int kProbeRepeats = 10;

std::vector<Query> Templates() {
  return {
      {"t1", "SELECT count(*) FROM hits WHERE AdvEngineID <> 0"},
      {"t2",
       "SELECT AdvEngineID, count(*) AS c FROM hits WHERE AdvEngineID <> 0 "
       "GROUP BY AdvEngineID ORDER BY c DESC, AdvEngineID", "1d,0a"},
      {"t3",
       "SELECT SearchEngineID, count(*) AS c FROM hits WHERE SearchEngineID <> 0 "
       "GROUP BY SearchEngineID ORDER BY c DESC, SearchEngineID LIMIT 10", "1d,0a", 10},
      {"t4",
       "SELECT MobilePhoneModel, count(*) AS c, avg(ResolutionWidth) FROM hits "
       "WHERE MobilePhoneModel <> '' GROUP BY MobilePhoneModel ORDER BY c DESC", "1d"},
      {"t5",
       "SELECT RegionID, count(*) AS c FROM hits WHERE EventDate >= date '2013-07-10' "
       "AND EventDate <= date '2013-07-12' GROUP BY RegionID "
       "ORDER BY c DESC, RegionID LIMIT 10", "1d,0a", 10},
      {"t6", "SELECT min(EventTime), max(EventTime), count(*) FROM hits WHERE CounterID = 62"},
      {"t7",
       "SELECT SearchPhrase, count(*) AS c FROM hits WHERE SearchPhrase <> '' "
       "GROUP BY SearchPhrase ORDER BY c DESC, SearchPhrase LIMIT 10", "1d,0a", 10},
      {"t8",
       "SELECT UserID, count(*) AS c FROM hits WHERE UserID < 1000000100 "
       "GROUP BY UserID ORDER BY c DESC, UserID LIMIT 10", "1d,0a", 10},
  };
}

/// One upload: `kPutRows` rows (k, v) and the count/sum the client
/// expects to read back.
struct Upload {
  std::vector<RecordBatchPtr> batches;
  int64_t sum = 0;
};

Upload MakeUpload(uint64_t seed, int client, int64_t number) {
  Rng rng(seed, 1000 + static_cast<uint64_t>(client) * 100000 + static_cast<uint64_t>(number));
  Int64Builder k, v;
  Upload up;
  for (int64_t i = 0; i < kPutRows; ++i) {
    const int64_t x = rng.Uniform(0, 1'000'000);
    k.Append(i);
    v.Append(x);
    up.sum += x;
  }
  auto schema = fusion::schema({Field("k", int64(), false), Field("v", int64(), false)});
  up.batches.push_back(std::make_shared<RecordBatch>(
      schema, kPutRows, std::vector<ArrayPtr>{k.Finish().ValueOrDie(), v.Finish().ValueOrDie()}));
  return up;
}

struct Client {
  std::unique_ptr<flight::FlightClient> conn;
  std::vector<flight::PreparedStatement> prepared;
};

/// A running server with its connected, prepared clients.
struct Deployment {
  core::SessionContextPtr session;
  std::unique_ptr<flight::FlightServer> server;
  std::vector<Client> clients;

  void Stop() {
    for (auto& c : clients) c.conn->Close();
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    session.reset();
  }
};

/// Per-thread outcome of the closed loop.
struct ClientResult {
  std::vector<std::vector<double>> read_ms;  // per template
  std::vector<double> put_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool wrong = false;
  std::string first_error;
};

}  // namespace

void RunServing(const RunOptions& options, Report* report) {
  Tracer tracer(options.trace);
  const int conns = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<Query> templates = Templates();
  std::vector<TableData> tables = {MakeHits(options.seed, kHitsRows, kHitsFiles)};

  // ---- set-up: write, open, register, start, connect, prepare --------
  std::vector<double> setup_s;
  Deployment dep;
  std::vector<WrittenTable> written;
  std::string data_dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!data_dir.empty()) {
      dep.Stop();
      std::filesystem::remove_all(data_dir);
    }
    data_dir = options.work_dir + "/setup" + std::to_string(rep);
    ScopedSpan span(&tracer, "setup", 0, 0);
    const double t0 = NowSeconds();
    auto files = WriteTables(tables, data_dir, &tracer, span.id());
    if (!files.ok()) {
      report->Fail("setup write: " + files.status().ToString());
      return;
    }
    written = std::move(*files);
    dep.session = core::SessionContext::Make();
    Status st = RegisterTables(dep.session.get(), written, true, &tracer, span.id());
    auto server = st.ok() ? flight::FlightServer::Start(dep.session)
                          : Result<std::unique_ptr<flight::FlightServer>>(st);
    if (!server.ok()) {
      report->Fail("setup server: " + server.status().ToString());
      return;
    }
    dep.server = std::move(*server);
    for (int c = 0; c < conns; ++c) {
      auto conn = flight::FlightClient::Connect("127.0.0.1", dep.server->port());
      if (!conn.ok()) {
        report->Fail("setup connect: " + conn.status().ToString());
        dep.Stop();
        return;
      }
      Client client{std::move(*conn), {}};
      for (const Query& t : templates) {
        auto prepared = client.conn->Prepare(t.sql);
        if (!prepared.ok()) {
          report->Fail("setup prepare: " + prepared.status().ToString());
          dep.Stop();
          return;
        }
        client.prepared.push_back(*prepared);
      }
      dep.clients.push_back(std::move(client));
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  const int64_t stored_bytes = TreeBytes(data_dir);

  // ---- expected answers, from TIE over the same files ----------------
  std::vector<Rows> expected;
  {
    exec::SessionConfig config;
    config.target_partitions = 1;
    auto env = std::make_shared<exec::RuntimeEnv>();
    env->buffer_cache = nullptr;
    auto tie_session = core::SessionContext::Make(config, env);
    Tracer untraced(false);
    Status st = RegisterTables(tie_session.get(), written, false, &untraced, 0);
    for (const Query& t : templates) {
      auto tie = st.ok() ? ExecuteTie(tie_session.get(), t.sql)
                         : Result<std::vector<RecordBatchPtr>>(st);
      if (!tie.ok()) {
        report->Fail(t.id + " oracle: " + tie.status().ToString());
        dep.Stop();
        return;
      }
      expected.push_back(ToRows(*tie));
    }
  }
  tables.clear();
  TrimHeap();

  // ---- closed loop ------------------------------------------------------
  auto* scheduler = dep.session->env()->scheduler();
  const auto& plan_stats = *dep.session->env()->plan_cache_stats;
  const auto& buffer_cache = dep.session->env()->buffer_cache;
  std::vector<ClientResult> results(static_cast<size_t>(conns));
  std::atomic<int64_t> reads_done{0};
  std::atomic<int> warmed{0};
  std::atomic<bool> go{false};
  double loop_start = 0;
  flight::FlightServerStats server0;
  int64_t plan_hits0 = 0, plan_misses0 = 0, admission0 = 0;
  exec::BufferCache::Stats buffer0;

  auto client_loop = [&](int c) {
    Client& client = dep.clients[static_cast<size_t>(c)];
    ClientResult& out = results[static_cast<size_t>(c)];
    out.read_ms.resize(templates.size());
    auto fail = [&](const std::string& what, bool wrong) {
      out.failed += 1;
      out.wrong = out.wrong || wrong;
      if (out.first_error.empty()) out.first_error = what;
    };
    auto read = [&](size_t t, bool prepared, bool timed) {
      out.attempted += 1;
      ScopedSpan span(&tracer, prepared ? "serving.read_prepared" : "serving.read", 0, 0);
      const double t0 = NowSeconds();
      auto result = prepared ? client.conn->GetPrepared(client.prepared[t])
                             : client.conn->Get(templates[t].sql);
      const double ms = (NowSeconds() - t0) * 1e3;
      span.End();
      if (!result.ok()) return fail(templates[t].id + ": " + result.status().ToString(), false);
      std::string diff = CompareWithOracle(templates[t], ToRows(*result), expected[t]);
      if (!diff.empty()) return fail(templates[t].id + " answer: " + diff, true);
      if (timed) {
        out.read_ms[t].push_back(ms);
        reads_done.fetch_add(1);
      }
    };
    // Warm-up (untimed): fills the buffer and plan caches.
    for (size_t t = 0; t < templates.size(); ++t) {
      read(t, false, false);
      read(t, true, false);
    }
    warmed.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    const std::string table = "upload_" + std::to_string(c);
    for (int64_t round = 0;; ++round) {
      for (int pass = 0; pass < kReadPassesPerRound; ++pass) {
        for (size_t t = 0; t < templates.size(); ++t) {
          read(t, false, true);
          read(t, true, true);
        }
      }
      Upload up = MakeUpload(options.seed, c, round);
      out.attempted += 1;
      ScopedSpan span(&tracer, "flight.put", 0, 0);
      const double t0 = NowSeconds();
      auto put = client.conn->Put(table, up.batches, /*replace=*/true);
      const double ms = (NowSeconds() - t0) * 1e3;
      span.End();
      if (!put.ok()) {
        fail("put: " + put.status().ToString(), false);
      } else {
        out.put_ms.push_back(ms);
        auto back = client.conn->Get("SELECT count(*), sum(v) FROM " + table);
        if (!back.ok()) {
          fail("read-back: " + back.status().ToString(), false);
        } else {
          Rows rows = ToRows(*back);
          if (rows.size() != 1 || rows[0].size() != 2 ||
              rows[0][0].text != std::to_string(kPutRows) ||
              rows[0][1].text != std::to_string(up.sum)) {
            fail("read-back after put differs from the uploaded rows", true);
          }
        }
      }
      if (NowSeconds() - loop_start >= options.seconds && reads_done.load() >= kMinReads) {
        break;
      }
    }
  };

  RssSampler rss;
  rss.Start();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(client_loop, c);
  while (warmed.load() < conns) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server0 = dep.server->stats();
  plan_hits0 = plan_stats.hits.load();
  plan_misses0 = plan_stats.misses.load();
  admission0 = scheduler->admission_queued_total();
  if (buffer_cache != nullptr) buffer0 = buffer_cache->stats();
  loop_start = NowSeconds();
  go = true;
  for (auto& t : threads) t.join();
  const double loop_s = NowSeconds() - loop_start;
  const int64_t peak_rss = rss.Stop();
  const flight::FlightServerStats server1 = dep.server->stats();
  const int64_t plan_hits = plan_stats.hits.load() - plan_hits0;
  const int64_t plan_misses = plan_stats.misses.load() - plan_misses0;
  exec::BufferCache::Stats buffer1;
  if (buffer_cache != nullptr) buffer1 = buffer_cache->stats();

  std::vector<double> all, puts;
  std::vector<std::vector<double>> per_template(templates.size());
  for (const ClientResult& r : results) {
    report->attempted += r.attempted;
    report->failed += r.failed;
    if (r.wrong) report->correct = false;
    if (!r.first_error.empty()) std::fprintf(stderr, "FAILED: %s\n", r.first_error.c_str());
    for (size_t t = 0; t < templates.size(); ++t) {
      per_template[t].insert(per_template[t].end(), r.read_ms[t].begin(), r.read_ms[t].end());
      all.insert(all.end(), r.read_ms[t].begin(), r.read_ms[t].end());
    }
    puts.insert(puts.end(), r.put_ms.begin(), r.put_ms.end());
  }
  std::vector<double> medians;
  double suite_ms = 0;
  for (const auto& v : per_template) {
    medians.push_back(Median(v));
    suite_ms += medians.back();
  }
  std::fprintf(stderr,
               "serving: %d connections, %zu reads and %zu puts in %.2f s; "
               "read p50 %.3f ms, p99 %.3f ms; put p50 %.3f ms; plan cache %lld/%lld hits\n",
               conns, all.size(), puts.size(), loop_s, Median(all), Percentile(all, 0.99),
               Median(puts), static_cast<long long>(plan_hits),
               static_cast<long long>(plan_hits + plan_misses));

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("suite_s", suite_ms / 1e3, "s");
    report->Set("query_geomean_ms", GeoMean(medians), "ms");
    report->Set("queries_per_s", static_cast<double>(all.size()) / loop_s, "1/s");
    report->Set("latency_p50_ms", Median(all), "ms");
    report->Set("latency_p99_ms", Percentile(all, 0.99), "ms");
    report->Set("peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB");
    report->Set("stored_mb", static_cast<double>(stored_bytes) / 1e6, "MB");
    dep.Stop();
    std::filesystem::remove_all(data_dir);
    return;
  }

  // ---- traced probe: each template unloaded, in-process and on the wire
  LayerStats layers;
  Client& probe = dep.clients[0];
  for (size_t t = 0; t < templates.size(); ++t) {
    for (int r = 0; r < kProbeRepeats; ++r) {
      report->attempted += 3;
      std::vector<RecordBatchPtr> local;
      {
        ScopedSpan span(&tracer, "core.execute_sql", 0, 0);
        auto result = dep.session->ExecuteSql(templates[t].sql);
        if (!result.ok()) {
          report->Fail(templates[t].id + ": " + result.status().ToString());
          continue;
        }
        local = std::move(*result);
      }
      {
        ScopedSpan span(&tracer, "flight.get", 0, 0);
        auto wire = probe.conn->Get(templates[t].sql);
        span.End();
        if (!wire.ok()) {
          report->Fail(templates[t].id + ": " + wire.status().ToString());
          continue;
        }
        if (!CompareWithOracle(templates[t], ToRows(*wire), expected[t]).empty()) {
          report->correct = false;
          report->Fail(templates[t].id + " answer over the wire");
        }
      }
      // The wire path keeps dictionary codes; time the same encoding.
      std::vector<std::vector<uint8_t>> blobs;
      {
        ScopedSpan span(&tracer, "arrow.ipc_serialize", 0, 0);
        ipc::SerializeOptions ser;
        ser.preserve_dictionary = true;
        for (const auto& b : local) blobs.push_back(ipc::SerializeBatch(*b, ser));
      }
      {
        ScopedSpan span(&tracer, "arrow.ipc_deserialize", 0, 0);
        for (const auto& blob : blobs) {
          if (!ipc::DeserializeBatch(blob.data(), blob.size()).ok()) {
            report->Fail(templates[t].id + ": IPC round trip");
          }
        }
      }
      auto traced = ExecuteTraced(dep.session.get(), templates[t].sql, &tracer, &layers);
      if (!traced.ok()) report->Fail(templates[t].id + ": " + traced.status().ToString());
    }
  }

  for (const auto& [name, unit] : PerLayerMetrics()) report->Set(name, 0, unit);
  ReportQueryLayers(tracer, layers, report);
  report->Set("format.write_ms", tracer.TotalMs("format.write") / kSetupRepeats, "ms");
  report->Set("catalog.open_ms", tracer.TotalMs("catalog.open") / kSetupRepeats, "ms");
  report->Set("flight.get_ms", tracer.MeanMs("flight.get"), "ms");
  report->Set("flight.wire_overhead_ms",
              tracer.MeanMs("flight.get") - tracer.MeanMs("core.execute_sql"), "ms");
  report->Set("arrow.ipc_serialize_ms", tracer.MeanMs("arrow.ipc_serialize"), "ms");
  report->Set("arrow.ipc_deserialize_ms", tracer.MeanMs("arrow.ipc_deserialize"), "ms");
  report->Set("flight.put_ms", tracer.MeanMs("flight.put"), "ms");
  const int64_t queries = server1.queries_ok - server0.queries_ok;
  report->Set("flight.bytes_sent_per_query",
              queries > 0 ? static_cast<double>(server1.bytes_sent - server0.bytes_sent) /
                                static_cast<double>(queries)
                          : 0,
              "bytes");
  report->Set("core.plan_cache_lookups", static_cast<double>(plan_hits + plan_misses), "count");
  report->Set("core.plan_cache_hit_ratio",
              plan_hits + plan_misses > 0
                  ? static_cast<double>(plan_hits) / static_cast<double>(plan_hits + plan_misses)
                  : 0,
              "ratio");
  const int64_t buf_hits = buffer1.hits - buffer0.hits;
  const int64_t buf_lookups = buf_hits + buffer1.misses - buffer0.misses;
  report->Set("exec.buffer_cache_lookups", static_cast<double>(buf_lookups), "count");
  report->Set("exec.buffer_cache_hit_ratio",
              buf_lookups > 0 ? static_cast<double>(buf_hits) / static_cast<double>(buf_lookups)
                              : 0,
              "ratio");
  report->Set("exec.admission_queued",
              static_cast<double>(scheduler->admission_queued_total() - admission0), "count");
  report->Set("exec.peak_threads", static_cast<double>(scheduler->peak_threads()), "count");
  std::fputs(tracer.SelfTimeSummary().c_str(), stderr);
  if (!tracer.WriteJson(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  dep.Stop();
  std::filesystem::remove_all(data_dir);
}

}  // namespace perfbench
