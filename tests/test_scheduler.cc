// Tests for the shared query scheduler: task groups, cooperative
// parking/waking through the exchange queues, fairness across
// concurrent queries, and bounded thread usage.

#include "tests/test_util.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>

#include "exec/scheduler.h"
#include "physical/exchange_exec.h"

namespace fusion {
namespace test {
namespace {

using exec::QueryScheduler;
using exec::TaskStatus;

exec::SessionConfig FourPartitionConfig() {
  exec::SessionConfig config;
  config.target_partitions = 4;
  return config;
}

/// MakeTestSession on a dedicated scheduler instead of the process one.
core::SessionContextPtr MakeScheduledSession(
    int64_t rows, exec::SessionConfig config,
    const std::shared_ptr<QueryScheduler>& sched) {
  auto session = MakeTestSession(rows, config);
  session->env()->query_scheduler = sched;
  return session;
}

TEST(TaskGroupTest, RunAllRunsEverythingAndReportsFirstError) {
  QueryScheduler sched(2);
  auto group = sched.MakeGroup();
  std::atomic<int> counter{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([&counter, i]() -> Status {
      counter.fetch_add(1);
      if (i == 7) return Status::Internal("task 7 exploded");
      return Status::OK();
    });
  }
  Status st = group->RunAll(std::move(tasks));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(counter.load(), 20);  // an error does not cancel siblings
  EXPECT_EQ(group->tasks_spawned(), 20);
}

TEST(TaskGroupTest, FinishJoinsSpawnedTasks) {
  QueryScheduler sched(2);
  auto group = sched.MakeGroup();
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    group->Spawn([&done]() -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_OK(group->Finish());
  EXPECT_EQ(done.load(), 8);
}

TEST(TaskGroupTest, UnwindHooksRunOnFinish) {
  QueryScheduler sched(1);
  auto group = sched.MakeGroup();
  std::atomic<bool> unwound{false};
  group->AddUnwindHook([&unwound] { unwound.store(true); });
  EXPECT_FALSE(unwound.load());
  ASSERT_OK(group->Finish());
  EXPECT_TRUE(unwound.load());
  // After the group unwound, late hooks fire immediately (a queue
  // created by a straggling stream still gets closed).
  std::atomic<bool> late{false};
  group->AddUnwindHook([&late] { late.store(true); });
  EXPECT_TRUE(late.load());
}

TEST(TaskGroupTest, NestedRunAllInsideTask) {
  // A RunAll task that itself calls RunAll on the same group (the
  // scheduler analogue of a nested collect) must complete even with a
  // single worker: blocked callers lend their thread to the group.
  QueryScheduler sched(1);
  auto group = sched.MakeGroup();
  std::atomic<int> inner_runs{0};
  std::vector<std::function<Status()>> outer;
  for (int i = 0; i < 2; ++i) {
    outer.push_back([&group, &inner_runs]() -> Status {
      std::vector<std::function<Status()>> inner;
      for (int j = 0; j < 2; ++j) {
        inner.push_back([&inner_runs]() -> Status {
          inner_runs.fetch_add(1);
          return Status::OK();
        });
      }
      return group->RunAll(std::move(inner));
    });
  }
  ASSERT_OK(group->RunAll(std::move(outer)));
  EXPECT_EQ(inner_runs.load(), 4);
}

TEST(TaskGroupTest, ClaimHoldersNeverNestBeneathSiblingWaiters) {
  // Regression for a stack-shaped deadlock (scheduler invariant 4):
  // partitioned aggregation's drivers claim shared build units; a
  // claim-holder blocked on producer data lends its thread to the
  // group. If that help could run a *sibling* driver nested on the same
  // stack, the sibling would finish its claims and then wait for the
  // suspended holder's claim beneath it — unwakeable. Mimic the shape:
  // driver 0 claims, spawns a producer (younger generation), and waits
  // for it helping the group; both drivers then wait for all claims.
  auto body = [] {
    for (int round = 0; round < 100; ++round) {
      QueryScheduler sched(1);
      auto group = sched.MakeGroup();
      std::atomic<int> next{0};
      std::atomic<int> done{0};
      std::atomic<bool> produced{false};
      auto driver = [&]() -> Status {
        const int p = next.fetch_add(1);
        if (p == 0) {
          group->Spawn([&]() -> Status {
            produced.store(true);
            group->NotifyProgress();
            return Status::OK();
          });
          while (!produced.load()) {
            uint64_t epoch = group->progress_epoch();
            if (produced.load()) break;
            group->HelpOrWait(epoch, nullptr);
          }
        }
        done.fetch_add(1);
        group->NotifyProgress();
        while (done.load() < 2) {
          uint64_t epoch = group->progress_epoch();
          if (done.load() >= 2) break;
          group->HelpOrWait(epoch, nullptr);
        }
        return Status::OK();
      };
      std::vector<std::function<Status()>> tasks{driver, driver};
      Status st = group->RunAll(std::move(tasks));
      if (!st.ok()) return st;
    }
    return Status::OK();
  };
  auto result = std::async(std::launch::async, body);
  if (result.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "claim-sibling nesting deadlocked\n");
    std::_Exit(1);  // threads are wedged; joining would hang forever
  }
  ASSERT_OK(result.get());
}

TEST(TaskGroupTest, GroupsDroppedWhileQueuedNeverWedgeAWorker) {
  // Regression for a self-deadlock: a group whose ready tasks its own
  // Finish() ran is still in the run queue. A worker that pops it just
  // as the owner lets go holds the last reference, and the group's
  // destructor (Finish) takes the scheduler mutex that worker holds.
  // Many short-lived groups on several threads open that window often.
  auto body = [] {
    QueryScheduler sched(2);
    std::vector<std::thread> owners;
    for (int t = 0; t < 4; ++t) {
      owners.emplace_back([&sched] {
        for (int i = 0; i < 2000; ++i) {
          auto group = sched.MakeGroup();
          for (int k = 0; k < 4; ++k) {
            group->SpawnResumable([](const exec::Waker&) { return TaskStatus::kDone; });
          }
          (void)group->Finish();
        }
      });
    }
    for (auto& owner : owners) owner.join();
    return Status::OK();
  };
  auto result = std::async(std::launch::async, body);
  if (result.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "dropping a queued group deadlocked a worker\n");
    std::_Exit(1);  // threads are wedged; joining would hang forever
  }
  ASSERT_OK(result.get());
}

TEST(TaskGroupTest, ParkedProducerRewokenByConsumer) {
  // A producer task facing a capacity-1 queue must park (returning its
  // worker) and be rewoken by the consumer's pops until all batches
  // made it through.
  QueryScheduler sched(1);
  auto group = sched.MakeGroup();
  auto schema = fusion::schema({Field("x", int64(), false)});
  physical::BatchQueue queue(1, nullptr, group);
  queue.AddProducer();
  const int kBatches = 16;
  auto state = std::make_shared<int>(0);  // batches pushed so far
  group->SpawnResumable(
      [&queue, schema, state](const exec::Waker& waker) -> TaskStatus {
        while (*state < kBatches) {
          auto batch = std::make_shared<RecordBatch>(
              schema, 1, std::vector<ArrayPtr>{MakeInt64Array({*state})});
          if (!queue.PushOrPark(&batch, waker)) return TaskStatus::kParked;
          ++*state;
        }
        queue.ProducerDone();
        return TaskStatus::kDone;
      });
  int64_t seen = 0;
  for (;;) {
    auto batch = queue.Pop();
    ASSERT_OK(batch.status());
    if (*batch == nullptr) break;
    ++seen;
  }
  EXPECT_EQ(seen, kBatches);
  ASSERT_OK(group->Finish());
}

TEST(TaskGroupTest, DeadlineExpiryInPopDoesNotSelfDeadlock) {
  // Regression: Pop re-checks cancellation while holding the queue
  // mutex. Latching the deadline there used to fire the token's
  // listeners synchronously — including this queue's own listener,
  // which locks the same mutex — deadlocking the consumer the moment
  // it woke at the deadline. The check under the lock must not latch.
  auto token = exec::CancellationToken::WithTimeout(30);
  physical::BatchQueue queue(4, token);
  queue.AddProducer();  // never pushes; the consumer sleeps to the deadline
  auto res = queue.Pop();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
}

TEST(TaskGroupTest, DeadlineExpiryInHelpOrWaitDoesNotSelfDeadlock) {
  // Same regression through the scheduler path: a group-attached
  // consumer waits in WaitEpoch (under epoch_mu_), and the queue's
  // cancellation listener calls NotifyProgress -> BumpEpoch, which
  // locks epoch_mu_ — so neither the epoch wait nor Pop's re-check may
  // latch the token.
  QueryScheduler sched(1);
  auto group = sched.MakeGroup();
  auto token = exec::CancellationToken::WithTimeout(30);
  physical::BatchQueue queue(4, token, group);
  queue.AddProducer();
  auto res = queue.Pop();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
  ASSERT_OK(group->Finish());
}

TEST(SchedulerTest, SingleWorkerRunsPartitionedQueryToCompletion) {
  // The hardest deadlock case: 4 partitions' drivers, repartition
  // producers and a coalesce all multiplexed onto ONE worker plus the
  // calling thread. Progress relies entirely on cooperative
  // help/park — any true blocking wait would hang here.
  auto sched = std::make_shared<QueryScheduler>(1);
  auto session = MakeScheduledSession(300, FourPartitionConfig(), sched);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      session->ExecuteSql(
          "SELECT grp, count(*) AS c FROM t GROUP BY grp ORDER BY grp"));
  EXPECT_EQ(SortedStringRows(batches),
            (std::vector<StringRow>{{"a", "100"}, {"b", "100"}, {"c", "100"}}));
}

TEST(SchedulerTest, EightConcurrentQueriesBoundedThreads) {
  // 8 concurrent 4-partition queries on a 4-worker scheduler: all must
  // complete (no deadlock), correctly, while the engine never grows
  // beyond the fixed pool (pool_size + 1 with the collector thread).
  auto sched = std::make_shared<QueryScheduler>(4);
  const int kQueries = 8;
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kQueries);
  std::vector<int64_t> rows(kQueries, 0);
  for (int q = 0; q < kQueries; ++q) {
    clients.emplace_back([q, sched, &statuses, &rows] {
      auto session = MakeScheduledSession(240, FourPartitionConfig(), sched);
      auto result = session->ExecuteSql(
          "SELECT grp, count(*), sum(v) FROM t GROUP BY grp");
      statuses[q] = result.status();
      if (result.ok()) rows[q] = TotalRows(*result);
    });
  }
  for (auto& c : clients) c.join();
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_OK(statuses[q]);
    EXPECT_EQ(rows[q], 3);
  }
  EXPECT_LE(sched->peak_threads(), sched->num_workers() + 1);
  EXPECT_GT(sched->total_tasks(), 0);
}

TEST(SchedulerTest, FairnessShortQueryFinishesDuringLongQuery) {
  // Fairness floor: a short query submitted while a long cross join
  // saturates the scheduler must finish before the long query does —
  // its collector thread always drives its own task group.
  auto sched = std::make_shared<QueryScheduler>(1);
  auto token = exec::CancellationToken::Make();
  std::atomic<bool> long_done{false};
  std::thread long_client([sched, token, &long_done] {
    // ~340M joined rows: runs for many seconds unless cancelled.
    auto session = MakeScheduledSession(700, FourPartitionConfig(), sched);
    auto result = session->ExecuteSql(
        "SELECT count(*) FROM t a CROSS JOIN t b CROSS JOIN t c", token);
    (void)result;  // cancelled below
    long_done.store(true);
  });
  // Wait until the long query has tasks on the scheduler, then give it
  // a head start occupying the single worker.
  for (int i = 0; i < 2000 && sched->total_tasks() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto session = MakeScheduledSession(120, FourPartitionConfig(), sched);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      session->ExecuteSql("SELECT grp, count(*) FROM t GROUP BY grp"));
  EXPECT_EQ(TotalRows(batches), 3);
  EXPECT_FALSE(long_done.load())
      << "long query finished before the short one — not a fairness run";
  token->Cancel();
  long_client.join();
}

TEST(SchedulerTest, ExplainAnalyzeReportsSchedulerGauges) {
  auto sched = std::make_shared<QueryScheduler>(2);
  auto session = MakeScheduledSession(200, FourPartitionConfig(), sched);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      session->ExecuteSql(
          "EXPLAIN ANALYZE SELECT grp, count(*) FROM t GROUP BY grp"));
  ASSERT_EQ(TotalRows(batches), 1);
  std::string text = batches[0]->column(0)->ValueToString(0);
  EXPECT_NE(text.find("== Scheduler =="), std::string::npos) << text;
  EXPECT_NE(text.find("workers=2"), std::string::npos) << text;
  EXPECT_NE(text.find("peak_threads=2"), std::string::npos) << text;
  EXPECT_NE(text.find("query_tasks="), std::string::npos) << text;
  // The partitioned aggregate pre-aggregates one build unit per input
  // partition without an exchange; its phase-1 stats land in the
  // per-operator annotations.
  EXPECT_NE(text.find("partial_groups="), std::string::npos) << text;
}

TEST(SchedulerTest, EarlyLimitUnwindsProducersThroughFinish) {
  // A LIMIT satisfied after one batch abandons exchange streams with
  // producers still live; ExecuteSql must still return promptly with
  // every task joined (TaskGroup::Finish closes the queues).
  auto sched = std::make_shared<QueryScheduler>(2);
  auto session = MakeScheduledSession(5000, FourPartitionConfig(), sched);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       session->ExecuteSql("SELECT id FROM t LIMIT 3"));
  EXPECT_EQ(TotalRows(batches), 3);
}

}  // namespace
}  // namespace test
}  // namespace fusion
