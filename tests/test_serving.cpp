// Serving-engine tests: frozen-path equivalence with training predict(),
// micro-batch determinism (same request, any batch composition, identical
// bits), concurrent const readers, load shedding, and drain-on-shutdown.
// Registered with the "sanitize" label — run under TSan to check the
// concurrent-reader contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "obs/metrics.hpp"
#include "data/synthetic.hpp"
#include "embed/embedding_bag.hpp"
#include "serve/inference_session.hpp"
#include "serve/request_scheduler.hpp"

namespace elrec {
namespace {

constexpr index_t kRowsTT = 800;
constexpr index_t kRowsBag = 60;
constexpr index_t kDim = 8;
constexpr index_t kDense = 3;

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "serve";
  spec.num_dense = kDense;
  spec.table_rows = {kRowsTT, kRowsBag};
  spec.num_samples = 1 << 20;
  spec.zipf_s = 1.1;
  return spec;
}

std::unique_ptr<DlrmModel> make_model(std::uint64_t seed) {
  Prng rng(seed);
  DlrmConfig cfg;
  cfg.num_dense = kDense;
  cfg.embedding_dim = kDim;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  tables.push_back(std::make_unique<EffTTTable>(
      kRowsTT, TTShape::balanced(kRowsTT, kDim, 3, 4), rng));
  tables.push_back(std::make_unique<EmbeddingBag>(kRowsBag, kDim, rng));
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

std::unique_ptr<DlrmModel> make_trained_model(std::uint64_t seed) {
  auto model = make_model(seed);
  SyntheticDataset data(tiny_spec(), seed + 1);
  for (int b = 0; b < 10; ++b) model->train_step(data.next_batch(64), 0.05f);
  return model;
}

RankingRequest make_request(Prng& rng, index_t max_bag = 3) {
  RankingRequest req;
  req.dense.resize(static_cast<std::size_t>(kDense));
  for (auto& v : req.dense) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  req.sparse.resize(2);
  const index_t bag0 =
      1 + static_cast<index_t>(
              rng.uniform_index(static_cast<std::uint64_t>(max_bag)));
  for (index_t i = 0; i < bag0; ++i) {
    req.sparse[0].push_back(static_cast<index_t>(
        rng.uniform_index(static_cast<std::uint64_t>(kRowsTT))));
  }
  req.sparse[1].push_back(static_cast<index_t>(
      rng.uniform_index(static_cast<std::uint64_t>(kRowsBag))));
  return req;
}

MiniBatch to_minibatch(const std::vector<RankingRequest>& reqs) {
  MiniBatch mb;
  const auto b = static_cast<index_t>(reqs.size());
  mb.dense.resize(b, kDense);
  mb.sparse.resize(2);
  for (auto& ib : mb.sparse) ib.offsets.assign(1, 0);
  for (index_t i = 0; i < b; ++i) {
    const RankingRequest& r = reqs[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < kDense; ++j) {
      mb.dense.at(i, j) = r.dense[static_cast<std::size_t>(j)];
    }
    for (std::size_t t = 0; t < 2; ++t) {
      auto& ib = mb.sparse[t];
      ib.indices.insert(ib.indices.end(), r.sparse[t].begin(),
                        r.sparse[t].end());
      ib.offsets.push_back(static_cast<index_t>(ib.indices.size()));
    }
  }
  return mb;
}

TEST(InferenceSession, FrozenPredictMatchesTrainingPredict) {
  auto model = make_trained_model(11);
  DlrmModel* raw = model.get();
  SyntheticDataset data(tiny_spec(), 4);
  const MiniBatch eval = data.eval_batch(64, 9);

  std::vector<float> train_probs;
  raw->predict(eval, train_probs);

  InferenceSession session(std::move(model));  // cache disabled
  auto state = session.make_worker_state();
  std::vector<float> serve_probs;
  session.predict(eval, serve_probs, *state);

  ASSERT_EQ(train_probs.size(), serve_probs.size());
  for (std::size_t i = 0; i < train_probs.size(); ++i) {
    // Bitwise: the frozen path reorders no accumulation.
    EXPECT_EQ(train_probs[i], serve_probs[i]) << "sample " << i;
  }
}

TEST(InferenceSession, BijectionTableServesTrainingPredictBits) {
  // The Eff-TT table remaps rows inside materialize_rows(): served through
  // one shared model with the cache off, cold and warmed, the bits must
  // still equal training predict().
  auto model = make_model(19);
  std::vector<index_t> mapping(static_cast<std::size_t>(kRowsTT));
  for (index_t i = 0; i < kRowsTT; ++i) {
    mapping[static_cast<std::size_t>(i)] = (i * 7 + 3) % kRowsTT;
  }
  dynamic_cast<EffTTTable&>(model->table(0)).set_index_bijection(mapping);
  SyntheticDataset data(tiny_spec(), 20);
  for (int b = 0; b < 10; ++b) model->train_step(data.next_batch(64), 0.05f);
  const MiniBatch eval = data.eval_batch(64, 3);
  std::vector<float> want;
  model->predict(eval, want);

  const std::shared_ptr<const DlrmModel> shared = std::move(model);
  InferenceSessionConfig cfg;
  cfg.cache.capacity = 64;
  cfg.cache.admit_min_freq = 100000;  // only warm_cache fills the cache
  InferenceSession uncached(shared);
  InferenceSession cached(shared, cfg);
  auto uncached_state = uncached.make_worker_state();
  auto cached_state = cached.make_worker_state();

  std::vector<float> got;
  uncached.predict(eval, got, *uncached_state);
  EXPECT_EQ(got, want) << "cache off";
  cached.predict(eval, got, *cached_state);
  EXPECT_EQ(got, want) << "cache cold";
  EXPECT_EQ(cached.cache_hit_rate(), 0.0);
  const auto& idx = eval.sparse[0].indices;
  cached.warm_cache(0, std::vector<index_t>(idx.begin(), idx.begin() + 32));
  cached.predict(eval, got, *cached_state);
  EXPECT_EQ(got, want) << "cache warmed";
  EXPECT_GT(cached.cache_hit_rate(), 0.0);
}

TEST(InferenceSession, BatchOneMatchesCoalescedBatchBitwise) {
  InferenceSessionConfig cfg;
  cfg.cache.capacity = 64;
  cfg.cache.admit_min_freq = 1;
  InferenceSession session(make_trained_model(13), cfg);
  auto state = session.make_worker_state();

  Prng rng(99);
  std::vector<RankingRequest> reqs;
  for (int i = 0; i < 24; ++i) reqs.push_back(make_request(rng));

  // Each request alone (batch size 1).
  std::vector<float> solo(reqs.size());
  std::vector<float> probs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    session.predict(to_minibatch({reqs[i]}), probs, *state);
    solo[i] = probs[0];
  }

  // Same requests inside one coalesced micro-batch — and a second pass so
  // both cold (computed) and hot (cached) rows are exercised.
  for (int pass = 0; pass < 2; ++pass) {
    session.predict(to_minibatch(reqs), probs, *state);
    ASSERT_EQ(probs.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(solo[i], probs[i]) << "request " << i << " pass " << pass;
    }
  }
  EXPECT_GT(session.cache_hit_rate(), 0.0);
}

TEST(InferenceSession, ConcurrentReadersMatchSerialReference) {
  InferenceSessionConfig cfg;
  cfg.cache.capacity = 128;
  cfg.cache.admit_min_freq = 1;
  InferenceSession session(make_trained_model(17), cfg);

  constexpr int kThreads = 8;
  constexpr int kBatchesPerThread = 20;

  // Reference answers computed serially first (cache warmth must not change
  // bits, so pre-populating it via the serial pass is fine).
  std::vector<std::vector<MiniBatch>> work(kThreads);
  std::vector<std::vector<std::vector<float>>> expected(kThreads);
  {
    auto state = session.make_worker_state();
    for (int t = 0; t < kThreads; ++t) {
      Prng rng(1000 + static_cast<std::uint64_t>(t));
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<RankingRequest> reqs;
        for (int i = 0; i < 8; ++i) reqs.push_back(make_request(rng));
        work[t].push_back(to_minibatch(reqs));
        std::vector<float> probs;
        session.predict(work[t].back(), probs, *state);
        expected[t].push_back(probs);
      }
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto state = session.make_worker_state();
      std::vector<float> probs;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        session.predict(work[t][static_cast<std::size_t>(b)], probs, *state);
        for (std::size_t i = 0; i < probs.size(); ++i) {
          if (probs[i] !=
              expected[t][static_cast<std::size_t>(b)][i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferenceSession, WarmCacheFromMeasuredHotSetHits) {
  InferenceSessionConfig cfg;
  cfg.cache.capacity = 64;
  cfg.cache.admit_min_freq = 100000;  // admission effectively off: only warm
  InferenceSession session(make_trained_model(23), cfg);

  SyntheticDataset data(tiny_spec(), 6);
  const auto hot = top_accessed_indices(data, /*t=*/0, /*k=*/64,
                                        /*num_draws=*/20000);
  ASSERT_FALSE(hot.empty());
  session.warm_cache(0, hot);
  ASSERT_EQ(session.cache(0)->size(), static_cast<index_t>(hot.size()));

  auto state = session.make_worker_state();
  std::vector<float> probs;
  for (int b = 0; b < 20; ++b) {
    session.predict(data.next_batch(64), probs, *state);
  }
  // Zipf traffic against the measured hot set: a solid fraction must hit.
  const ServingCacheStats s = session.cache(0)->stats_snapshot();
  EXPECT_GT(s.hits, 0u);
  const double rate = static_cast<double>(s.hits) /
                      static_cast<double>(s.hits + s.misses);
  EXPECT_GT(rate, 0.2) << "hot-set warmup should absorb Zipf traffic";
}

TEST(RequestScheduler, ServesCorrectResultsAndCoalesces) {
  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  scfg.cache.admit_min_freq = 1;
  InferenceSession session(make_trained_model(29), scfg);

  // Reference bits for each request, computed directly at batch size 1.
  Prng rng(7);
  std::vector<RankingRequest> reqs;
  for (int i = 0; i < 64; ++i) reqs.push_back(make_request(rng));
  std::vector<float> expected(reqs.size());
  {
    auto state = session.make_worker_state();
    std::vector<float> probs;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      session.predict(to_minibatch({reqs[i]}), probs, *state);
      expected[i] = probs[0];
    }
  }

  RequestSchedulerConfig cfg;
  cfg.num_workers = 1;  // single worker => followers must coalesce
  cfg.max_batch = 8;
  cfg.max_wait_us = 100000;  // generous window so the test is not timing-shy
  cfg.queue_capacity = 128;
  // The scheduler mirrors every request's latency split into the global
  // registry histograms; delta across this run must match the per-instance
  // recorder exactly.
  auto& reg = obs::MetricsRegistry::global();
  const std::size_t queue_before = reg.histogram("serve.queue_us").count();
  const std::size_t compute_before = reg.histogram("serve.compute_us").count();
  RequestScheduler sched(session, cfg);

  std::vector<std::future<RankingResponse>> futs(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(sched.submit(reqs[i], futs[i]), SubmitStatus::kAccepted);
  }
  index_t largest = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const RankingResponse r = futs[i].get();
    // Micro-batched result must be bitwise equal to the batch-1 reference,
    // whatever batch composition the scheduler chose.
    EXPECT_EQ(r.prob, expected[i]) << "request " << i;
    EXPECT_GE(r.queue_us, 0.0);
    EXPECT_GT(r.compute_us, 0.0);
    largest = std::max(largest, r.micro_batch);
  }
  sched.shutdown();
  const auto s = sched.stats();
  EXPECT_EQ(s.accepted, reqs.size());
  EXPECT_EQ(s.served, reqs.size());
  EXPECT_EQ(s.shed, 0u);
  // 64 requests through 1 worker with an open window: coalescing must kick
  // in (the worker can't pop-serve 64 times inside the windows).
  EXPECT_GT(largest, 1) << "scheduler never built a micro-batch";
  EXPECT_EQ(s.largest_batch, largest);
  EXPECT_EQ(sched.latency().count(), reqs.size());
  EXPECT_EQ(reg.histogram("serve.queue_us").count() - queue_before,
            reqs.size());
  EXPECT_EQ(reg.histogram("serve.compute_us").count() - compute_before,
            reqs.size());
  const LatencySummary total = sched.latency().total_summary();
  EXPECT_EQ(total.count, reqs.size());
  EXPECT_GT(total.p50, 0.0);
  EXPECT_GE(total.p99, total.p50);
  EXPECT_GE(total.max, total.p99);  // summary clamps estimates to exact max
}

TEST(RequestScheduler, OverloadShedsAndAcceptedAreAllServed) {
  InferenceSession session(make_trained_model(31));
  RequestSchedulerConfig cfg;
  cfg.num_workers = 1;   // one worker, no batching: drain rate is one
  cfg.max_batch = 1;     // forward pass per request
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 1;  // minimal admission bound
  RequestScheduler sched(session, cfg);

  // Pre-generate heavy requests (bags of up to 256 indices) so the flood
  // loop below runs much faster than one forward pass: with a single
  // in-flight slot, back-to-back submissions during any forward must shed.
  Prng rng(3);
  std::vector<RankingRequest> reqs;
  for (int i = 0; i < 1000; ++i) {
    reqs.push_back(make_request(rng, /*max_bag=*/256));
  }
  std::vector<std::future<RankingResponse>> accepted;
  std::size_t overloaded = 0;
  bool typed_error_seen = false;
  for (const RankingRequest& r : reqs) {
    std::future<RankingResponse> fut;
    switch (sched.submit(r, fut)) {
      case SubmitStatus::kAccepted:
        accepted.push_back(std::move(fut));
        break;
      case SubmitStatus::kOverloaded:
        ++overloaded;
        if (!typed_error_seen) {
          // The queue was full a moment ago: the blocking API must surface
          // the structured error. A worker may drain in between — then the
          // call just serves and a later overload retries the check.
          try {
            (void)sched.submit_blocking(make_request(rng, 16));
          } catch (const OverloadedError&) {
            typed_error_seen = true;
          }
        }
        break;
      case SubmitStatus::kClosed:
        FAIL() << "scheduler closed unexpectedly";
    }
  }
  EXPECT_GT(overloaded, 0u) << "admission bound never tripped";
  EXPECT_TRUE(typed_error_seen);

  // Every accepted request below the shedding threshold completes: zero
  // drops.
  for (auto& f : accepted) {
    const RankingResponse r = f.get();
    EXPECT_GE(r.prob, 0.0f);
    EXPECT_LE(r.prob, 1.0f);
  }
  sched.shutdown();
  const auto s = sched.stats();
  // submit_blocking retries above go through submit() too, so shed can
  // exceed the count we tallied from the flood loop alone.
  EXPECT_GE(s.shed, overloaded);
  EXPECT_GE(s.served, accepted.size());
}

TEST(RequestScheduler, ShutdownDrainsQueueAndRejectsNewWork) {
  InferenceSession session(make_trained_model(37));
  RequestSchedulerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  cfg.queue_capacity = 256;
  RequestScheduler sched(session, cfg);

  Prng rng(5);
  std::vector<std::future<RankingResponse>> futs(100);
  for (auto& fut : futs) {
    ASSERT_EQ(sched.submit(make_request(rng), fut), SubmitStatus::kAccepted);
  }
  sched.shutdown();

  // Every accepted request was served before the workers exited.
  for (auto& fut : futs) {
    EXPECT_NO_THROW({ (void)fut.get(); });
  }
  EXPECT_EQ(sched.stats().served, futs.size());

  std::future<RankingResponse> fut;
  EXPECT_EQ(sched.submit(make_request(rng), fut), SubmitStatus::kClosed);
  EXPECT_THROW((void)sched.submit_blocking(make_request(rng)), Error);
}

// A backend whose workers cannot build their state.
class NoStateBackend : public IRankingBackend {
 public:
  index_t num_tables() const override { return 2; }
  index_t num_dense() const override { return kDense; }
  std::unique_ptr<State> make_state() const override {
    throw Error("worker state unavailable");
  }
  void predict(const MiniBatch&, std::vector<float>&, State&) const override {}
};

TEST(RequestScheduler, WorkerFailureSurfacesOnceFromShutdown) {
  NoStateBackend backend;
  RequestSchedulerConfig cfg;
  cfg.num_workers = 1;
  {
    RequestScheduler sched(backend, cfg);
    EXPECT_THROW(sched.shutdown(), Error);
    EXPECT_NO_THROW(sched.shutdown());  // reported once
  }
  cfg.num_workers = 2;
  // Never shut down explicitly: the destructor joins and swallows the
  // failures instead of terminating.
  RequestScheduler unattended(backend, cfg);
}

TEST(RequestScheduler, MalformedRequestsAreRejectedUpFront) {
  InferenceSession session(make_trained_model(41));
  RequestScheduler sched(session, RequestSchedulerConfig{});

  RankingRequest bad_dense;
  bad_dense.dense.resize(1);  // model wants kDense
  bad_dense.sparse.resize(2);
  bad_dense.sparse[0].push_back(0);
  bad_dense.sparse[1].push_back(0);
  std::future<RankingResponse> fut;
  EXPECT_THROW((void)sched.submit(bad_dense, fut), Error);

  RankingRequest bad_tables;
  bad_tables.dense.resize(static_cast<std::size_t>(kDense));
  bad_tables.sparse.resize(1);  // model has 2 tables
  EXPECT_THROW((void)sched.submit(bad_tables, fut), Error);
}

}  // namespace
}  // namespace elrec
