#include "mars/util/memo_batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "mars/util/worker_pool.h"

namespace mars::util {
namespace {

using Memo = std::unordered_map<int, int>;

/// The pricing function under test: a pure function of the key.
int priced(int key) { return key * 100; }

/// Two keys already memoised (10, 20), in-batch duplicates (30 x3,
/// 40 x2) and four new keys in all.
const std::vector<int> kBatch = {30, 10, 30, 40, 20, 50, 40, 30, 60};

Memo seeded() { return {{10, 1}, {20, 2}}; }

/// What one batch did, for comparing runs.
struct BatchRun {
  Memo memo;
  long long hits = 0;
  long long misses = 0;
  std::vector<bool> probe_hits;        // probe() returned a memoised value
  std::vector<int> published;          // on_publish order
  int price_calls = 0;
};

BatchRun run_batch(WorkerPool* pool) {
  BatchRun out;
  out.memo = seeded();
  MemoBatch<Memo, int> batch(out.memo);
  for (const int key : kBatch) {
    out.probe_hits.push_back(batch.probe(key, [key] { return key; }) !=
                             nullptr);
  }
  std::atomic<int> calls{0};
  batch.publish(
      [&calls](int key) {
        ++calls;
        return priced(key);
      },
      pool, [&out](int& value) { out.published.push_back(value); });
  out.hits = batch.hits();
  out.misses = batch.misses();
  out.price_calls = calls.load();
  return out;
}

TEST(MemoBatchTest, CountsMatchASerialLeftToRightSweep) {
  // Reference: memoised lookups one at a time, inserting on each miss.
  Memo reference = seeded();
  long long hits = 0;
  long long misses = 0;
  for (const int key : kBatch) {
    if (reference.contains(key)) {
      ++hits;
    } else {
      ++misses;
      reference.emplace(key, priced(key));
    }
  }
  const BatchRun batched = run_batch(nullptr);
  EXPECT_EQ(batched.hits, hits);
  EXPECT_EQ(batched.misses, misses);
  EXPECT_EQ(batched.misses, 4);
  EXPECT_EQ(batched.price_calls, 4);  // each new key priced once
  EXPECT_EQ(batched.memo, reference);
  // Only keys in the memo before the batch answer the probe directly.
  EXPECT_EQ(batched.probe_hits,
            (std::vector<bool>{false, true, false, false, true, false, false,
                               false, false}));
}

TEST(MemoBatchTest, PublishesInFirstSeenOrder) {
  const BatchRun batched = run_batch(nullptr);
  EXPECT_EQ(batched.published,
            (std::vector<int>{3000, 4000, 5000, 6000}));
}

TEST(MemoBatchTest, WorkerPoolChangesNothing) {
  const BatchRun serial = run_batch(nullptr);
  WorkerPool pool(4);
  const BatchRun parallel = run_batch(&pool);
  EXPECT_EQ(parallel.memo, serial.memo);
  EXPECT_EQ(parallel.hits, serial.hits);
  EXPECT_EQ(parallel.misses, serial.misses);
  EXPECT_EQ(parallel.probe_hits, serial.probe_hits);
  EXPECT_EQ(parallel.published, serial.published);
  EXPECT_EQ(parallel.price_calls, serial.price_calls);
}

TEST(MemoBatchTest, PricingFailurePublishesNothing) {
  WorkerPool pool(4);
  for (WorkerPool* p : {static_cast<WorkerPool*>(nullptr), &pool}) {
    Memo memo = seeded();
    MemoBatch<Memo, int> batch(memo);
    for (const int key : kBatch) batch.probe(key, [key] { return key; });
    // The misses are 30, 40, 50, 60: at 4 threads each is its own chunk,
    // and chunks 1 and 3 both throw. The lowest chunk's error wins.
    try {
      batch.publish(
          [](int key) {
            if (key == 40 || key == 60) {
              throw std::runtime_error(std::to_string(key));
            }
            return priced(key);
          },
          p);
      ADD_FAILURE() << "publish did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "40");
    }
    EXPECT_EQ(memo, seeded());
    // Counts were charged by the probes, before pricing ran.
    EXPECT_EQ(batch.hits(), 5);
    EXPECT_EQ(batch.misses(), 4);
  }
}

}  // namespace
}  // namespace mars::util
