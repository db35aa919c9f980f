// Tests for the pipeline training system (§V): host store semantics, the
// embedding cache LC protocol, and — the paper's key correctness claim —
// pipelined training with the cache matching a sequential oracle exactly,
// while disabling the cache reproduces the RAW staleness bug.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "pipeline/embedding_cache.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_trainer.hpp"
#include "pipeline_test_util.hpp"

namespace elrec {
namespace {

TEST(HostEmbeddingStore, PullGathersRows) {
  Prng rng(1);
  HostEmbeddingStore store(20, 4, rng);
  Matrix rows;
  store.pull({3, 17, 3}, rows);
  ASSERT_EQ(rows.rows(), 3);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_EQ(rows.at(0, j), store.weights().at(3, j));
    EXPECT_EQ(rows.at(1, j), store.weights().at(17, j));
    EXPECT_EQ(rows.at(2, j), rows.at(0, j));
  }
}

TEST(HostEmbeddingStore, ApplyGradientsIsSgd) {
  Prng rng(2);
  HostEmbeddingStore store(20, 2, rng);
  const auto before = store.row_copy(5);
  Matrix grads{{1.0f, -2.0f}};
  store.apply_gradients({5}, grads, 0.5f);
  const auto after = store.row_copy(5);
  EXPECT_NEAR(after[0], before[0] - 0.5f, 1e-6f);
  EXPECT_NEAR(after[1], before[1] + 1.0f, 1e-6f);
}

TEST(HostEmbeddingStore, PullOutOfRangeThrows) {
  Prng rng(3);
  HostEmbeddingStore store(20, 2, rng);
  Matrix rows;
  EXPECT_THROW(store.pull({20}, rows), Error);
}

TEST(EmbeddingCacheTest, SyncPatchesOnlyCachedRows) {
  EmbeddingCache cache(2, 3);
  Matrix vals{{10.0f, 11.0f}};
  cache.insert({7}, vals, 0);
  Matrix rows{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const index_t patched = cache.sync({7, 8}, rows);
  EXPECT_EQ(patched, 1);
  EXPECT_EQ(rows.at(0, 0), 10.0f);  // patched from cache
  EXPECT_EQ(rows.at(1, 0), 3.0f);   // untouched
}

TEST(EmbeddingCacheTest, LifeCycleEvictsAfterHostAbsorption) {
  EmbeddingCache cache(1, 2);  // 2 lives
  Matrix vals{{5.0f}};
  cache.insert({1}, vals, /*batch_id=*/0);
  // Host has NOT applied batch 0 yet: lives must not drain.
  cache.retire_batch(-1);
  cache.retire_batch(-1);
  cache.retire_batch(-1);
  EXPECT_EQ(cache.size(), 1u);
  // Host applied batch 0: two retirements drain the lives.
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 1u);
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmbeddingCacheTest, RefreshResetsLifeCycle) {
  EmbeddingCache cache(1, 2);
  Matrix vals{{5.0f}};
  cache.insert({1}, vals, 0);
  cache.retire_batch(0);
  Matrix vals2{{6.0f}};
  cache.insert({1}, vals2, 3);  // refresh: new write, new lives
  cache.retire_batch(0);        // batch 3 not yet absorbed -> no drain
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 1u);
  Matrix rows{{0.0f}};
  cache.sync({1}, rows);
  EXPECT_EQ(rows.at(0, 0), 6.0f);  // latest value
}

TEST(EmbeddingCacheTest, PeakSizeTracksHighWater) {
  EmbeddingCache cache(1, 1);
  Matrix v{{1.0f}, {2.0f}, {3.0f}};
  cache.insert({1, 2, 3}, v, 0);
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.peak_size(), 3u);
}

// ---------------------------------------------------------------------
// Pipeline vs sequential-oracle equivalence.
// ---------------------------------------------------------------------

using testutil::BatchList;
using testutil::decay_compute;
using testutil::list_source;
using testutil::make_stores;
using testutil::overlapping_batches;

struct DepthCase {
  index_t depth;
  index_t stores;  // 1: one 24x3 store; 2: adds a 16x2 store
};

// Single-store cases print as the bare depth, which keeps their test names.
void PrintTo(const DepthCase& c, std::ostream* os) {
  *os << c.depth;
  if (c.stores > 1) *os << "_" << c.stores << "stores";
}

class PipelineDepthTest : public ::testing::TestWithParam<DepthCase> {};

TEST_P(PipelineDepthTest, MatchesSequentialOracleWithCache) {
  const DepthCase c = GetParam();
  // Each store gets its own overlapping batch stream.
  std::vector<BatchList> batches{overlapping_batches(40, 24, 77)};
  std::vector<testutil::StoreShape> shapes{{24, 3}};
  if (c.stores > 1) {
    batches.push_back(overlapping_batches(40, 16, 78));
    shapes.push_back({16, 2});
  }
  auto oracle = make_stores(shapes, 123);
  testutil::run_sequential_oracle(oracle, batches, decay_compute(), 0.3f);

  auto stores = make_stores(shapes, 123);
  PipelineConfig cfg;
  cfg.queue_capacity = c.depth;
  cfg.lr = 0.3f;
  cfg.use_embedding_cache = true;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const PipelineStats stats =
      trainer.run(40, list_source(batches), decay_compute());
  EXPECT_EQ(stats.batches, 40);
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_LT(Matrix::max_abs_diff(stores[s].weights(), oracle[s].weights()),
              1e-5f)
        << "pipelined training diverged from the sequential oracle at depth "
        << c.depth << ", store " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthTest,
                         ::testing::Values(DepthCase{1, 1}, DepthCase{2, 1},
                                           DepthCase{4, 1}, DepthCase{8, 1},
                                           DepthCase{1, 2}, DepthCase{4, 2},
                                           DepthCase{8, 2}));

TEST(PipelineTrainerTest, DisablingCacheReproducesRawBug) {
  // With deep queues and no cache, prefetched rows are stale and the result
  // must deviate from the oracle (this is Fig. 10a's failure mode). Guards
  // against the test above passing vacuously.
  const std::vector<BatchList> batches{overlapping_batches(40, 24, 77)};
  auto oracle = make_stores({{24, 3}}, 123);
  testutil::run_sequential_oracle(oracle, batches, decay_compute(), 0.3f);

  // The worker holds batch b's compute until the server has started loading
  // batch b+1, so that pull cannot see b's update: the stale read is forced
  // rather than left to thread timing (a fast worker on a loaded machine
  // otherwise kept the queue empty and the rows fresh).
  const index_t num_batches = 40;
  std::atomic<index_t> requested{-1};
  const BatchSource list = list_source(batches);
  const BatchSource source = [&](index_t b, MiniBatch& batch,
                                 std::vector<std::vector<index_t>>& unique) {
    list(b, batch, unique);
    requested.store(b, std::memory_order_release);
  };
  const ComputeStep decay = decay_compute();
  const ComputeStep compute =
      [&](index_t b, const MiniBatch& batch,
          const std::vector<std::vector<index_t>>& unique,
          const std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (b + 1 < num_batches &&
               requested.load(std::memory_order_acquire) <= b &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        decay(b, batch, unique, rows, grads);
      };

  auto stores = make_stores({{24, 3}}, 123);
  PipelineConfig cfg;
  cfg.queue_capacity = 8;
  cfg.lr = 0.3f;
  cfg.use_embedding_cache = false;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  trainer.run(num_batches, source, compute);
  EXPECT_GT(Matrix::max_abs_diff(stores[0].weights(), oracle[0].weights()),
            1e-3f);
}

TEST(PipelineTrainerTest, CachePatchesRowsUnderDeepPipelines) {
  auto stores = make_stores({{16, 2}}, 9);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const PipelineStats stats = trainer.run(
      30, list_source({overlapping_batches(30, 16, 5)}), decay_compute());
  EXPECT_GT(stats.rows_patched, 0);
  // LC management must bound the cache: never more than a few batches of
  // rows resident.
  EXPECT_LE(stats.cache_peak, 16u * (4 + 2));
}

TEST(PipelineTrainerTest, SequentialModeNeedsNoPatches) {
  // Depth-1 queues serialize server and worker; with gradients applied
  // before the next pull there is no staleness... but the server MAY
  // prefetch batch i+1 before batch i's gradient arrives, so patches can
  // still occur. What must hold: the result matches the oracle (covered by
  // the parameterized test) and the pipeline completes without deadlock.
  auto stores = make_stores({{8, 2}}, 4);
  PipelineConfig cfg;
  cfg.queue_capacity = 1;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const PipelineStats stats = trainer.run(
      10, list_source({overlapping_batches(10, 8, 3)}), decay_compute());
  EXPECT_EQ(stats.batches, 10);
}

TEST(PipelineTrainerTest, ZeroHostStoresRunsPayloadOnly) {
  // With no host store (every table on the device) the runtime is a
  // bounded producer/consumer of payloads: the server thread sources
  // batches in order, the caller computes them in order, and no byte
  // crosses a queue.
  constexpr index_t kBatches = 13;
  constexpr index_t kStart = 2;
  std::vector<index_t> expected;
  for (index_t b = kStart; b < kBatches; ++b) expected.push_back(b);

  for (const index_t depth : {1, 4}) {
    SCOPED_TRACE("queue depth " + std::to_string(depth));
    std::vector<index_t> sourced, computed;
    const BatchSource source = [&](index_t b, MiniBatch& batch,
                                   std::vector<std::vector<index_t>>& unique) {
      EXPECT_TRUE(unique.empty());
      sourced.push_back(b);
      batch.labels.assign(1, static_cast<float>(b));
    };
    const ComputeStep compute =
        [&](index_t b, const MiniBatch& batch,
            const std::vector<std::vector<index_t>>& unique,
            const std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
          EXPECT_TRUE(unique.empty() && rows.empty() && grads.empty());
          ASSERT_EQ(batch.labels.size(), 1u);
          EXPECT_EQ(batch.labels[0], static_cast<float>(b));
          computed.push_back(b);
        };
    PipelineConfig cfg;
    cfg.queue_capacity = depth;
    PipelineTrainer trainer({}, cfg);
    const PipelineStats stats = trainer.run(kBatches, source, compute, kStart);

    EXPECT_EQ(sourced, expected);
    EXPECT_EQ(computed, expected);
    EXPECT_EQ(stats.batches, kBatches - kStart);
    EXPECT_EQ(stats.encoded_queue_bytes, 0u);
    EXPECT_EQ(stats.raw_queue_bytes, 0u);
    EXPECT_EQ(stats.rows_patched, 0);
    EXPECT_EQ(stats.cache_peak, 0u);
  }
}

}  // namespace
}  // namespace elrec
