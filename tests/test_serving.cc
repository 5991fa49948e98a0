// Serving-layer tests (paper §6.8/§7.4): the decoded-batch buffer
// cache (pinning, eviction, scan sharing, pool accounting), the
// logical-plan cache (hits, per-table eviction, no stale plans after a
// replace), and scheduler admission control (clean rejection, queueing,
// deadlines, zero leaked pool bytes).

#include "tests/test_util.h"

#include <sys/stat.h>

#include <atomic>
#include <thread>

#include "catalog/file_tables.h"
#include "common/fault_injector.h"
#include "exec/buffer_cache.h"
#include "exec/memory_pool.h"
#include "exec/scheduler.h"
#include "format/fpq.h"

namespace fusion {
namespace test {
namespace {

std::string TestDir() {
  std::string dir = "/tmp/fusion_test_serving";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Write an FPQ file shaped like MakeTestSession's table `t` (id, grp,
/// v nullable, f) but split into many small row groups so a tiny cache
/// budget creates real eviction pressure.
std::string WriteFpqTable(const std::string& name, int64_t rows,
                          int64_t row_group_rows) {
  Int64Builder id;
  StringBuilder grp;
  Int64Builder v;
  Float64Builder f;
  const char* groups[] = {"a", "b", "c"};
  for (int64_t i = 0; i < rows; ++i) {
    id.Append(i);
    grp.Append(groups[i % 3]);
    if (i % 7 == 6) {
      v.AppendNull();
    } else {
      v.Append(i * 2);
    }
    f.Append(static_cast<double>(i) * 0.5);
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("grp", utf8(), false),
                                Field("v", int64(), true),
                                Field("f", float64(), false)});
  std::vector<ArrayPtr> cols = {id.Finish().ValueOrDie(), grp.Finish().ValueOrDie(),
                                v.Finish().ValueOrDie(), f.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, rows, std::move(cols));
  std::string path = TestDir() + "/" + name + ".fpq";
  format::fpq::WriteOptions options;
  options.row_group_rows = row_group_rows;
  options.page_rows = row_group_rows;
  format::fpq::WriteFile(path, schema, {batch}, options).Abort();
  return path;
}

std::string RandomServingQuery(std::mt19937_64& rng, int64_t rows) {
  int64_t x = static_cast<int64_t>(rng() % static_cast<uint64_t>(rows));
  switch (rng() % 6) {
    case 0:
      return "SELECT grp, count(*), sum(v) FROM t GROUP BY grp";
    case 1:
      return "SELECT id, v FROM t WHERE id > " + std::to_string(x) +
             " ORDER BY id LIMIT 20";
    case 2:
      return "SELECT grp, avg(f) FROM t WHERE id > " + std::to_string(x) +
             " GROUP BY grp";
    case 3:
      return "SELECT count(*) FROM t WHERE v > " + std::to_string(2 * x);
    case 4:
      return "SELECT min(id), max(id) FROM t WHERE grp = 'b'";
    default:
      return "SELECT sum(f) FROM t WHERE id < " + std::to_string(1 + x);
  }
}

TEST(BufferCacheTest, RepeatedScansHitCache) {
  auto path = WriteFpqTable("hits", 8000, 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->buffer_cache = std::make_shared<exec::BufferCache>(64 << 20);
  auto ctx = core::SessionContext::Make({}, env);
  ASSERT_OK(ctx->RegisterFpq("t", path));

  ASSERT_OK_AND_ASSIGN(auto first, ctx->ExecuteSql("SELECT sum(v) FROM t"));
  auto after_first = env->buffer_cache->stats();
  EXPECT_GT(after_first.misses, 0);
  EXPECT_EQ(after_first.hits, 0);
  EXPECT_GT(after_first.cached_bytes, 0);
  EXPECT_EQ(after_first.pinned_bytes, 0) << "no pins may outlive the query";

  ASSERT_OK_AND_ASSIGN(auto second, ctx->ExecuteSql("SELECT sum(v) FROM t"));
  auto after_second = env->buffer_cache->stats();
  EXPECT_GT(after_second.hits, 0);
  EXPECT_EQ(after_second.misses, after_first.misses)
      << "warm re-scan must not decode again";
  EXPECT_EQ(SortedStringRows(first), SortedStringRows(second));
}

TEST(BufferCacheTest, ProjectionAndPredicateKeysDiffer) {
  // Different projections/pushed predicates decode different batches;
  // they must not alias to the same cache entry.
  auto path = WriteFpqTable("keys", 4000, 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->buffer_cache = std::make_shared<exec::BufferCache>(64 << 20);
  auto ctx = core::SessionContext::Make({}, env);
  ASSERT_OK(ctx->RegisterFpq("t", path));

  ASSERT_OK_AND_ASSIGN(auto a, ctx->ExecuteSql("SELECT sum(v) FROM t"));
  ASSERT_OK_AND_ASSIGN(auto b, ctx->ExecuteSql("SELECT sum(f) FROM t"));
  ASSERT_OK_AND_ASSIGN(auto c,
                       ctx->ExecuteSql("SELECT sum(v) FROM t WHERE id >= 2000"));
  EXPECT_EQ(ToStringRows(a)[0][0], std::to_string([] {
              int64_t s = 0;
              for (int64_t i = 0; i < 4000; ++i) {
                if (i % 7 != 6) s += i * 2;
              }
              return s;
            }()));
  EXPECT_EQ(ToStringRows(c)[0][0], std::to_string([] {
              int64_t s = 0;
              for (int64_t i = 2000; i < 4000; ++i) {
                if (i % 7 != 6) s += i * 2;
              }
              return s;
            }()));
}

TEST(BufferCacheTest, PoolChargingAndRelease) {
  // Cached bytes are charged to the pool under the "buffer-cache"
  // consumer; Clear() and destruction return every byte.
  auto path = WriteFpqTable("pool", 6000, 1024);
  auto pool = std::make_shared<exec::GreedyMemoryPool>(256 << 20);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  env->buffer_cache = std::make_shared<exec::BufferCache>(64 << 20, pool);
  auto ctx = core::SessionContext::Make({}, env);
  ASSERT_OK(ctx->RegisterFpq("t", path));

  ASSERT_OK(ctx->ExecuteSql("SELECT sum(v), sum(f) FROM t").status());
  auto stats = env->buffer_cache->stats();
  EXPECT_GT(stats.cached_bytes, 0);
  EXPECT_EQ(pool->bytes_allocated(), stats.cached_bytes)
      << "pool must hold exactly the cache's charge after the query";

  env->buffer_cache->Clear();
  EXPECT_EQ(env->buffer_cache->stats().cached_bytes, 0);
  EXPECT_EQ(pool->bytes_allocated(), 0) << "Clear() must return all bytes";
}

TEST(BufferCacheTest, ScanSharingCoalescesConcurrentDecodes) {
  // Many threads scanning the same cold file: every row group is
  // decoded once (misses == row groups on the slowest path is not
  // guaranteed, but misses must stay well under threads * row_groups,
  // and all results must agree).
  const int64_t kRows = 16000;
  auto path = WriteFpqTable("share", kRows, 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->buffer_cache = std::make_shared<exec::BufferCache>(256 << 20);
  auto ctx = core::SessionContext::Make({}, env);
  ASSERT_OK(ctx->RegisterFpq("t", path));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::vector<RecordBatchPtr>> results(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto res = ctx->ExecuteSql("SELECT grp, count(*), sum(v) FROM t GROUP BY grp");
      if (res.ok()) {
        results[i] = *res;
      } else {
        statuses[i] = res.status();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(SortedStringRows(results[i]), SortedStringRows(results[0]));
  }
  auto stats = env->buffer_cache->stats();
  const int64_t row_groups = (kRows + 1023) / 1024;
  EXPECT_GE(stats.misses, row_groups);
  EXPECT_LT(stats.misses, kThreads * row_groups)
      << "concurrent cold scans should coalesce, not all decode";
  EXPECT_GT(stats.hits + stats.coalesced, 0);
  EXPECT_EQ(stats.pinned_bytes, 0);
}

TEST(BufferCacheTest, CachedVsColdOracleUnderEvictionAndFaults) {
  // The load-bearing correctness test: a tiny pool-charged cache (heavy
  // eviction) + fpq.read fault injection must stay row-identical with a
  // cache-disabled fault-free baseline — or fail with a clean Status.
  const int64_t kRows = 12000;
  auto path = WriteFpqTable("oracle", kRows, 512);

  auto cold_env = std::make_shared<exec::RuntimeEnv>();
  cold_env->buffer_cache = nullptr;  // cache off: the oracle
  auto cold = core::SessionContext::Make({}, cold_env);
  ASSERT_OK(cold->RegisterFpq("t", path));

  auto pool = std::make_shared<exec::GreedyMemoryPool>(64 << 20);
  auto warm_env = std::make_shared<exec::RuntimeEnv>();
  warm_env->memory_pool = pool;
  // ~a handful of row groups fit -> constant eviction under the query mix.
  warm_env->buffer_cache = std::make_shared<exec::BufferCache>(96 * 1024, pool);
  auto warm = core::SessionContext::Make({}, warm_env);
  ASSERT_OK(warm->RegisterFpq("t", path));

  ASSERT_OK_AND_ASSIGN(auto injector,
                       FaultInjector::Make("fpq.read:0.03", 17));

  std::mt19937_64 rng(17);
  int64_t failed_clean = 0;
  for (int q = 0; q < 40; ++q) {
    std::string sql = RandomServingQuery(rng, kRows);
    FaultInjector::Install(nullptr);
    auto expected_res = cold->ExecuteSql(sql);
    ASSERT_TRUE(expected_res.ok()) << sql << ": " << expected_res.status().ToString();
    auto expected = SortedStringRows(*expected_res);

    FaultInjector::Install(injector);
    auto res = warm->ExecuteSql(sql);
    FaultInjector::Install(nullptr);
    if (res.ok()) {
      EXPECT_EQ(SortedStringRows(*res), expected) << "cached diverged on: " << sql;
    } else {
      ++failed_clean;
      EXPECT_FALSE(res.status().message().empty()) << sql;
    }
    // Between queries only the cache's own charge may remain in the pool.
    auto stats = warm_env->buffer_cache->stats();
    EXPECT_EQ(stats.pinned_bytes, 0) << sql;
    EXPECT_EQ(pool->bytes_allocated(), stats.cached_bytes)
        << "leaked pool bytes after: " << sql;
  }
  auto stats = warm_env->buffer_cache->stats();
  EXPECT_GT(stats.evictions, 0) << "budget must actually create eviction pressure";
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(injector->total_injected(), 0);
  std::fprintf(stderr,
               "[serving] oracle: %lld clean failures, %lld evictions, "
               "%lld hits, %lld faults\n",
               static_cast<long long>(failed_clean),
               static_cast<long long>(stats.evictions),
               static_cast<long long>(stats.hits),
               static_cast<long long>(injector->total_injected()));

  warm_env->buffer_cache->Clear();
  EXPECT_EQ(pool->bytes_allocated(), 0) << "zero leaked pool bytes at shutdown";
}

TEST(PlanCacheTest, RepeatedTemplatesHitAndCatalogChangesInvalidate) {
  auto env = std::make_shared<exec::RuntimeEnv>();
  exec::SessionConfig config;
  config.plan_cache_entries = 16;
  auto ctx = core::SessionContext::Make(config, env);

  auto path = WriteFpqTable("plancache", 600, 256);
  ASSERT_OK(ctx->RegisterFpq("t", path));
  const std::string sql = "SELECT grp, count(*) FROM t GROUP BY grp";
  ASSERT_OK(ctx->ExecuteSql(sql).status());
  int64_t hits0 = env->plan_cache_stats->hits.load();
  ASSERT_OK(ctx->ExecuteSql(sql).status());
  ASSERT_OK(ctx->ExecuteSql(sql).status());
  EXPECT_GE(env->plan_cache_stats->hits.load(), hits0 + 2)
      << "repeated template must hit the plan cache";
  EXPECT_GT(env->plan_cache_stats->entries.load(), 0);

  // Catalog change: the cache flushes and the same SQL sees new data.
  int64_t invalidations0 = env->plan_cache_stats->invalidations.load();
  auto path2 = WriteFpqTable("plancache2", 30, 16);
  ASSERT_OK(ctx->DeregisterTable("t"));
  ASSERT_OK(ctx->RegisterFpq("t", path2));
  EXPECT_GT(env->plan_cache_stats->invalidations.load(), invalidations0);
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(rows)[0][0], "30");
}

/// A one-column table `v` holding the single row `value`.
catalog::TableProviderPtr OneRowTable(int64_t value) {
  Int64Builder v;
  v.Append(value);
  auto schema = fusion::schema({Field("v", int64(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 1, std::vector<ArrayPtr>{v.Finish().ValueOrDie()});
  return catalog::MemoryTable::Make(schema, {batch}).ValueOrDie();
}

TEST(PlanCacheTest, PlanResolvedBeforeAReplaceNeverAnswersForTheNewTable) {
  auto env = std::make_shared<exec::RuntimeEnv>();
  exec::SessionConfig config;
  config.plan_cache_entries = 16;
  auto ctx = core::SessionContext::Make(config, env);
  ASSERT_OK(ctx->RegisterTable("t", OneRowTable(1)));
  ASSERT_OK_AND_ASSIGN(auto prepared, ctx->CreateLogicalPlan("SELECT v FROM t"));
  ASSERT_OK(ctx->RegisterTable("t", OneRowTable(2)));
  // The prepared plan stays bound to the table it resolved; optimizing
  // it now caches a plan over the old table.
  ASSERT_OK_AND_ASSIGN(auto old_rows, ctx->ExecutePlan(prepared));
  EXPECT_EQ(ToStringRows(old_rows)[0][0], "1");
  // An ad hoc read resolves the new table and must not be served that plan.
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql("SELECT v FROM t"));
  EXPECT_EQ(ToStringRows(rows)[0][0], "2");
}

TEST(PlanCacheTest, ReplacingOneTableKeepsPlansOverOthersCached) {
  auto env = std::make_shared<exec::RuntimeEnv>();
  exec::SessionConfig config;
  config.plan_cache_entries = 16;
  auto ctx = core::SessionContext::Make(config, env);
  ASSERT_OK(ctx->RegisterTable("t", OneRowTable(1)));
  ASSERT_OK(ctx->RegisterTable("u", OneRowTable(5)));
  ASSERT_OK(ctx->ExecuteSql("SELECT v FROM t").status());
  ASSERT_OK(ctx->ExecuteSql("SELECT v FROM u").status());
  ASSERT_EQ(ctx->plan_cache()->entries(), 2u);

  const auto& stats = env->plan_cache_stats;
  int64_t invalidations0 = stats->invalidations.load();
  ASSERT_OK(ctx->RegisterTable("u", OneRowTable(6)));
  EXPECT_EQ(stats->invalidations.load(), invalidations0 + 1)
      << "re-registering u evicts the plan over u";
  EXPECT_EQ(ctx->plan_cache()->entries(), 1u);

  int64_t hits0 = stats->hits.load();
  ASSERT_OK_AND_ASSIGN(auto t_rows, ctx->ExecuteSql("SELECT v FROM t"));
  EXPECT_EQ(ToStringRows(t_rows)[0][0], "1");
  EXPECT_EQ(stats->hits.load(), hits0 + 1) << "the plan over t must survive";
  int64_t misses0 = stats->misses.load();
  ASSERT_OK_AND_ASSIGN(auto u_rows, ctx->ExecuteSql("SELECT v FROM u"));
  EXPECT_EQ(ToStringRows(u_rows)[0][0], "6");
  EXPECT_EQ(stats->misses.load(), misses0 + 1);
}

TEST(PlanCacheTest, ReplacesRacingCachedReadsNeverGoBackInTime) {
  // Per-table eviction mutates the cache while readers look plans up
  // and insert them. A read of u that starts after u = i was registered
  // must see i or later; reads of t stay answered from its cached plan.
  auto env = std::make_shared<exec::RuntimeEnv>();
  exec::SessionConfig config;
  config.plan_cache_entries = 16;
  auto ctx = core::SessionContext::Make(config, env);
  ASSERT_OK(ctx->RegisterTable("t", OneRowTable(-1)));
  ASSERT_OK(ctx->RegisterTable("u", OneRowTable(0)));

  std::atomic<int64_t> registered{0};
  std::atomic<int64_t> reads{0};
  std::atomic<bool> done{false};
  constexpr int kReaders = 3;
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto fail = [&](std::string error) {
        if (errors[r].empty()) errors[r] = std::move(error);
      };
      while (!done.load()) {
        const int64_t floor = registered.load();
        auto t = ctx->ExecuteSql("SELECT v FROM t");
        auto u = ctx->ExecuteSql("SELECT v FROM u");
        if (!t.ok() || !u.ok()) {
          fail((t.ok() ? u.status() : t.status()).ToString());
        } else if (ToStringRows(*t)[0][0] != "-1") {
          fail("t read " + ToStringRows(*t)[0][0]);
        } else if (std::stoll(ToStringRows(*u)[0][0]) < floor) {
          fail("u read " + ToStringRows(*u)[0][0] + " after " +
               std::to_string(floor) + " was registered");
        }
        reads.fetch_add(1);
      }
    });
  }
  Status replace;
  for (int64_t i = 1; i <= 100 && replace.ok(); ++i) {
    // A few reads between replaces, so both plans are looked up and
    // re-inserted while u's are evicted.
    const int64_t target = reads.load() + kReaders;
    while (reads.load() < target) std::this_thread::yield();
    replace = ctx->RegisterTable("u", OneRowTable(i));
    registered.store(i);
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  ASSERT_OK(replace);
  for (const auto& error : errors) EXPECT_EQ(error, "");
  EXPECT_GT(env->plan_cache_stats->hits.load(), 0);
}

TEST(AdmissionTest, RejectsCleanlyPastQueueLimit) {
  exec::QueryScheduler sched(2);
  exec::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.max_queued = 0;

  ASSERT_OK_AND_ASSIGN(auto first, sched.Admit(limits, nullptr, nullptr));
  EXPECT_TRUE(first.admitted());
  auto second = sched.Admit(limits, nullptr, nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourcesExhausted())
      << second.status().ToString();
  EXPECT_FALSE(second.status().message().empty());
  EXPECT_EQ(sched.admission_rejected_total(), 1);

  first.Release();
  ASSERT_OK_AND_ASSIGN(auto third, sched.Admit(limits, nullptr, nullptr));
  EXPECT_TRUE(third.admitted());
  third.Release();
  EXPECT_EQ(sched.admission_running(), 0);
  EXPECT_EQ(sched.admission_queued(), 0);
}

TEST(AdmissionTest, QueuedQueriesHonorDeadlinesAndCancellation) {
  exec::QueryScheduler sched(2);
  exec::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.max_queued = 4;

  ASSERT_OK_AND_ASSIGN(auto holder, sched.Admit(limits, nullptr, nullptr));

  // Deadline: a queued query whose token expires gets Cancelled, not a hang.
  auto deadline_token = exec::CancellationToken::WithTimeout(50);
  auto timed_out = sched.Admit(limits, nullptr, deadline_token.get());
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsCancelled()) << timed_out.status().ToString();

  // Client-driven cancel from another thread unblocks the waiter.
  auto cancel_token = exec::CancellationToken::Make();
  std::atomic<bool> done{false};
  Status queued_status = Status::OK();
  std::thread waiter([&] {
    auto res = sched.Admit(limits, nullptr, cancel_token.get());
    queued_status = res.ok() ? Status::OK() : res.status();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "waiter must still be queued";
  cancel_token->Cancel();
  waiter.join();
  EXPECT_TRUE(queued_status.IsCancelled()) << queued_status.ToString();

  // The abandoned waits released their queue slots.
  EXPECT_EQ(sched.admission_queued(), 0);
  holder.Release();
  EXPECT_EQ(sched.admission_running(), 0);
}

TEST(AdmissionTest, MemoryWatermarkQueuesButNeverWedges) {
  exec::QueryScheduler sched(2);
  auto pool = std::make_shared<exec::GreedyMemoryPool>(1000);
  exec::AdmissionLimits limits;
  limits.max_concurrent = 4;
  limits.max_queued = 0;  // watermark block -> immediate clean rejection
  limits.memory_watermark = 0.5;

  // Liveness waiver: memory above the watermark with nothing running
  // (e.g. a full buffer cache) must not block the first query.
  ASSERT_OK(pool->Grow("resident", 600));
  ASSERT_OK_AND_ASSIGN(auto first, sched.Admit(limits, pool.get(), nullptr));
  EXPECT_TRUE(first.admitted());

  // With a query running and memory above watermark, new ones are held.
  auto blocked = sched.Admit(limits, pool.get(), nullptr);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsResourcesExhausted());

  pool->Shrink("resident", 600);
  ASSERT_OK_AND_ASSIGN(auto second, sched.Admit(limits, pool.get(), nullptr));
  EXPECT_TRUE(second.admitted());
  first.Release();
  second.Release();
  EXPECT_EQ(sched.admission_running(), 0);
}

TEST(AdmissionTest, EndToEndConcurrentQueriesQueueAndComplete) {
  // 8 client threads through a 1-wide admission gate: everything
  // completes, results agree, gauges return to zero, no pool leaks.
  auto path = WriteFpqTable("admit", 6000, 1024);
  auto pool = std::make_shared<exec::FairMemoryPool>(64 << 20);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  env->buffer_cache = nullptr;  // isolate admission from cache charges
  env->query_scheduler = std::make_shared<exec::QueryScheduler>(4);
  exec::SessionConfig config;
  config.admission_max_concurrent = 1;
  config.admission_max_queued = 16;
  auto ctx = core::SessionContext::Make(config, env);
  ASSERT_OK(ctx->RegisterFpq("t", path));

  // Hold the single admission slot directly so client arrivals are
  // guaranteed to queue behind it — no timing luck required.
  auto* sched_pre = env->scheduler();
  exec::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.max_queued = 16;
  ASSERT_OK_AND_ASSIGN(auto gate_ticket,
                       sched_pre->Admit(limits, pool.get(), nullptr));

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 3;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  std::vector<Status> failures[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto res = ctx->ExecuteSql("SELECT grp, sum(v) FROM t GROUP BY grp");
        if (res.ok()) {
          ok_count.fetch_add(1);
        } else {
          failures[i].push_back(res.status());
        }
      }
    });
  }
  // Wait for a client to park behind the held slot, then free it.
  for (int i = 0; i < 5000 && sched_pre->admission_queued() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(sched_pre->admission_queued(), 0);
  gate_ticket.Release();
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    for (const auto& st : failures[i]) {
      ADD_FAILURE() << "query failed under admission: " << st.ToString();
    }
  }
  EXPECT_EQ(ok_count.load(), kThreads * kQueriesPerThread);
  auto* sched = env->scheduler();
  // +1 for the gate ticket this test held to force client queueing.
  EXPECT_EQ(sched->admission_admitted_total(), kThreads * kQueriesPerThread + 1);
  EXPECT_GT(sched->admission_queued_total(), 0)
      << "8 threads through 1 slot must have queued";
  EXPECT_EQ(sched->admission_running(), 0);
  EXPECT_EQ(sched->admission_queued(), 0);
  EXPECT_EQ(pool->bytes_allocated(), 0) << "zero leaked pool bytes";
}

}  // namespace
}  // namespace test
}  // namespace fusion
