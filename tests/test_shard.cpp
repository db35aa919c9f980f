// Sharded serving tier tests: consistent-hash ring properties,
// statistics-driven placement, router ≡ single-process bitwise equality,
// out-of-range request rejection, overload shedding, transient-fault
// absorption, and the two headline fault drills — kill-a-shard under
// replicated load (zero accepted-request loss, bounded p99, revived shard
// rejoins) and unreplicated degraded mode (local fallback, never
// wrong-answer).
// Registered with the "sanitize" label: run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault_injector.hpp"
#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "data/synthetic.hpp"
#include "embed/embedding_bag.hpp"
#include "serve/inference_session.hpp"
#include "serve/request_scheduler.hpp"
#include "shard/placement.hpp"
#include "shard/shard_router.hpp"

namespace elrec {
namespace {

constexpr index_t kRowsTT = 800;
constexpr index_t kRowsBag = 60;
constexpr index_t kDim = 8;
constexpr index_t kDense = 3;

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "shard";
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

// Training is bitwise replayable, so every call with the same seed yields
// an identical model — that is how each shard gets its own copy of "the"
// frozen model, exactly as checkpoint restore would produce.
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

/// A full mini-tier: per-shard sessions + servers, a router fallback
/// session, and the router. Everything over bitwise-identical model copies.
struct Tier {
  std::vector<std::unique_ptr<InferenceSession>> sessions;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<InferenceSession> fallback;
  std::unique_ptr<ShardRouter> router;

  Tier(int num_shards, std::uint64_t model_seed, ShardRouterConfig rcfg,
       ShardServerConfig svr = {}) {
    InferenceSessionConfig scfg;
    scfg.cache.capacity = 128;
    std::vector<ShardServer*> raw;
    for (int s = 0; s < num_shards; ++s) {
      sessions.push_back(std::make_unique<InferenceSession>(
          make_trained_model(model_seed), scfg));
      servers.push_back(
          std::make_unique<ShardServer>(s, *sessions.back(), svr));
      raw.push_back(servers.back().get());
    }
    fallback = std::make_unique<InferenceSession>(make_trained_model(model_seed),
                                                  scfg);
    router = std::make_unique<ShardRouter>(*fallback, raw, rcfg);
  }

  std::uint64_t calls_served() const {
    std::uint64_t calls = 0;
    for (const auto& s : servers) calls += s->calls_served();
    return calls;
  }
};

TEST(HashRing, DeterministicDistinctOwnersAndBalance) {
  HashRing a(4), b(4);
  std::vector<int> load(4, 0);
  std::vector<int> owners_a, owners_b;
  for (index_t row = 0; row < 4000; ++row) {
    const index_t t = row % 3;
    ASSERT_EQ(a.owner_of(t, row), b.owner_of(t, row));
    a.owners_of(t, row, 3, owners_a);
    b.owners_of(t, row, 3, owners_b);
    ASSERT_EQ(owners_a, owners_b);
    ASSERT_EQ(owners_a.size(), 3u);
    ASSERT_EQ(owners_a[0], a.owner_of(t, row));
    std::vector<int> sorted = owners_a;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::unique(sorted.begin(), sorted.end()) == sorted.end())
        << "ladder rungs must be distinct shards";
    ++load[static_cast<std::size_t>(owners_a[0])];
  }
  for (const int l : load) {
    EXPECT_GT(l, 4000 / 4 / 2) << "vnode ring left a shard badly underloaded";
    EXPECT_LT(l, 4000 / 4 * 2) << "vnode ring left a shard badly overloaded";
  }
}

TEST(Placement, ReplicatesHotRowsAcrossOwnerLadder) {
  HashRing ring(3);
  std::vector<std::vector<index_t>> hot = {{5, 17, 99, 140, 7}, {1, 2}};
  PlacementConfig cfg;
  cfg.replication = 2;
  const PlacementPlan plan = plan_placement(ring, hot, cfg);
  ASSERT_EQ(plan.warm_rows.size(), 3u);

  std::vector<int> owners;
  for (std::size_t t = 0; t < hot.size(); ++t) {
    for (const index_t row : hot[t]) {
      ring.owners_of(static_cast<index_t>(t), row, 2, owners);
      int copies = 0;
      for (int s = 0; s < 3; ++s) {
        const auto& dst = plan.warm_rows[static_cast<std::size_t>(s)][t];
        const bool has = std::find(dst.begin(), dst.end(), row) != dst.end();
        const bool owns =
            std::find(owners.begin(), owners.end(), s) != owners.end();
        EXPECT_EQ(has, owns) << "row " << row << " shard " << s;
        copies += has ? 1 : 0;
      }
      EXPECT_EQ(copies, 2);
    }
  }
  double total = 0.0;
  for (const double share : plan.shard_share) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);

  // The per-table warm cap truncates, keeping the hottest ranks.
  cfg.warm_rows_per_table = 1;
  const PlacementPlan capped = plan_placement(ring, hot, cfg);
  for (int s = 0; s < 3; ++s) {
    for (std::size_t t = 0; t < hot.size(); ++t) {
      EXPECT_LE(capped.warm_rows[static_cast<std::size_t>(s)][t].size(), 1u);
    }
  }
}

TEST(MergeHotRows, InterleavesByRankAndDedups) {
  const std::vector<std::vector<index_t>> per_shard = {
      {3, 1, 9}, {3, 7}, {5, 1, 8, 2}};
  const std::vector<index_t> merged = merge_hot_rows(per_shard, 0);
  // Rank 0 of every source first (deduped), then rank 1, ...
  const std::vector<index_t> want = {3, 5, 1, 7, 9, 8, 2};
  EXPECT_EQ(merged, want);
  const std::vector<index_t> capped = merge_hot_rows(per_shard, 4);
  EXPECT_EQ(capped, (std::vector<index_t>{3, 5, 1, 7}));
}

TEST(ShardRouter, BitwiseEqualsSingleProcessSession) {
  Tier tier(3, 21, ShardRouterConfig{});

  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession reference(make_trained_model(21), scfg);

  Prng rng(77);
  std::vector<RankingRequest> reqs;
  for (int i = 0; i < 64; ++i) reqs.push_back(make_request(rng));
  const MiniBatch mb = to_minibatch(reqs);

  auto ref_state = reference.make_worker_state();
  std::vector<float> want;
  reference.predict(mb, want, *ref_state);

  auto state = tier.router->make_state();
  std::vector<float> got;
  tier.router->predict(mb, got, *state);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "sample " << i;
  }
  EXPECT_GT(tier.calls_served(), 0u);
  EXPECT_EQ(tier.router->stats().fallback_rows, 0u);
}

// A request index outside a table's rows (too large, or negative) must be
// rejected with Error before any per-row state is touched, on the local
// cached path and through every shard session alike.
TEST(ShardRouter, OutOfRangeRequestIndexThrows) {
  Tier tier(2, 43, ShardRouterConfig{});
  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession session(make_trained_model(43), scfg);
  auto session_state = session.make_worker_state();
  auto router_state = tier.router->make_state();

  RankingRequest req;
  req.dense.assign(static_cast<std::size_t>(kDense), 0.1f);
  for (const index_t bad : {kRowsTT, index_t{1} << 40, index_t{-1}}) {
    req.sparse = {{3, bad}, {0}};
    const MiniBatch mb = to_minibatch({req});
    std::vector<float> probs;
    EXPECT_THROW(session.predict(mb, probs, *session_state), Error)
        << "index " << bad;
    EXPECT_THROW(tier.router->predict(mb, probs, *router_state), Error)
        << "index " << bad;
  }

  // The rejected requests leave both backends serving correct answers.
  req.sparse = {{3, kRowsTT - 1}, {0}};
  const MiniBatch mb = to_minibatch({req});
  std::vector<float> want, got;
  session.predict(mb, want, *session_state);
  tier.router->predict(mb, got, *router_state);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(want[0], got[0]);
}

// Overload: one slot per shard, held by a caller stalled inside the serve
// path. A second caller for the same rows waits `shard_deadline`, counts a
// shed, and is answered by the replica — bitwise equal to a local session.
TEST(ShardRouter, OverloadedShardShedsAfterDeadline) {
  FaultInjector::instance().reset();
  ShardRouterConfig rcfg;
  rcfg.replication = 2;
  rcfg.shard_deadline = std::chrono::milliseconds(5);
  ShardServerConfig svr;
  svr.num_workers = 1;
  Tier tier(2, 47, rcfg, svr);

  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession reference(make_trained_model(47), scfg);
  auto ref_state = reference.make_worker_state();

  Prng rng(53);
  const MiniBatch mb = to_minibatch({make_request(rng)});
  std::vector<float> want;
  reference.predict(mb, want, *ref_state);

  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.max_fires = 1;
  stall.delay = std::chrono::seconds(30);  // cut short by reset() below
  FaultInjector::instance().arm("shard.serve", stall);

  std::vector<float> stalled_probs;
  std::thread stalled([&] {
    auto state = tier.router->make_state();
    tier.router->predict(mb, stalled_probs, *state);
  });
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FaultInjector::instance().fires("shard.serve") == 0 &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool held = FaultInjector::instance().fires("shard.serve") == 1;
  std::vector<float> got;
  if (held) {
    auto state = tier.router->make_state();
    tier.router->predict(mb, got, *state);
  }
  const ShardRouter::RouterStats stats = tier.router->stats();

  FaultInjector::instance().reset();  // wakes the stalled caller
  stalled.join();

  ASSERT_TRUE(held) << "the first caller should be holding the slot";
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(want[0], got[0]) << "shed call must still be answered bitwise";
  ASSERT_EQ(want.size(), stalled_probs.size());
  EXPECT_EQ(want[0], stalled_probs[0]);
  EXPECT_GE(stats.shed, 1u) << "the second caller should have given up";
  EXPECT_GE(stats.failovers, 1u) << "shed rows move on to the replica";
}

TEST(ShardRouter, StatisticsDrivenWarmingCoversHotTraffic) {
  Tier tier(3, 23, ShardRouterConfig{});

  // RecShard-style: hot rows from the access distribution drive placement;
  // each shard warms its owned partitions (primary + replica copies).
  SyntheticDataset data(tiny_spec(), 5);
  std::vector<std::vector<index_t>> hot(2);
  hot[0] = top_accessed_indices(data, 0, 64, 4096);
  hot[1] = top_accessed_indices(data, 1, 16, 4096);
  PlacementConfig pcfg;
  pcfg.replication = 2;
  const PlacementPlan plan = plan_placement(tier.router->ring(), hot, pcfg);

  for (std::size_t s = 0; s < tier.sessions.size(); ++s) {
    for (index_t t = 0; t < 2; ++t) {
      tier.sessions[s]->warm_cache(
          t, plan.warm_rows[s][static_cast<std::size_t>(t)]);
    }
  }
  // A hot row's primary shard serves it from cache on first touch.
  const index_t hot_row = hot[0].front();
  const int owner = tier.router->ring().owner_of(0, hot_row);
  const auto hits_before =
      tier.sessions[static_cast<std::size_t>(owner)]->cache(0)->stats_snapshot();
  auto state = tier.router->make_state();
  std::vector<float> probs;
  RankingRequest req;
  req.dense.assign(static_cast<std::size_t>(kDense), 0.1f);
  req.sparse = {{hot_row}, {0}};
  tier.router->predict(to_minibatch({req}), probs, *state);
  const auto hits_after =
      tier.sessions[static_cast<std::size_t>(owner)]->cache(0)->stats_snapshot();
  EXPECT_GT(hits_after.hits, hits_before.hits)
      << "warmed primary should serve the hot row from cache";
}

TEST(ShardRouter, TransientFaultsAbsorbedByRetry) {
  FaultInjector::instance().reset();
  ShardRouterConfig rcfg;
  rcfg.retry.max_attempts = 4;
  Tier tier(2, 29, rcfg);

  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession reference(make_trained_model(29), scfg);
  auto ref_state = reference.make_worker_state();

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.probability = 0.3;
  spec.message = "flaky shard serve";
  FaultInjector::instance().arm("shard.serve", spec);

  Prng rng(31);
  auto state = tier.router->make_state();
  for (int i = 0; i < 40; ++i) {
    const MiniBatch mb = to_minibatch({make_request(rng)});
    std::vector<float> want, got;
    reference.predict(mb, want, *ref_state);
    tier.router->predict(mb, got, *state);
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(want[0], got[0]) << "request " << i;
  }
  EXPECT_GT(FaultInjector::instance().fires("shard.serve"), 0u);
  FaultInjector::instance().reset();
  EXPECT_GT(tier.router->stats().retries, 0u);
}

TEST(ShardRouter, UnreplicatedDeadShardDegradesToLocalFallback) {
  ShardRouterConfig rcfg;
  rcfg.replication = 1;  // no replicas: dead shard => degraded mode
  Tier tier(2, 35, rcfg);

  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession reference(make_trained_model(35), scfg);
  auto ref_state = reference.make_worker_state();

  tier.servers[0]->kill();

  Prng rng(41);
  auto state = tier.router->make_state();
  for (int i = 0; i < 20; ++i) {
    const MiniBatch mb = to_minibatch({make_request(rng, 4)});
    std::vector<float> want, got;
    reference.predict(mb, want, *ref_state);
    tier.router->predict(mb, got, *state);
    EXPECT_EQ(want[0], got[0]) << "degraded request " << i << " must still "
                               << "be bitwise correct";
  }
  const ShardRouter::RouterStats stats = tier.router->stats();
  EXPECT_GT(stats.fallback_rows, 0u)
      << "dead unreplicated shard must be served by the local fallback";
  EXPECT_FALSE(tier.router->shard_live(0));
  EXPECT_TRUE(tier.router->shard_live(1));
}

// The headline drill: FaultInjector kills one shard mid-load under
// replication 2. Every accepted request completes with bitwise-correct
// results, tail latency stays within 3x of steady state (generous floor for
// sanitizer builds), and the revived shard rejoins and serves again.
TEST(ShardRouter, KillAShardMidLoadZeroLossBoundedTailAndRejoin) {
  FaultInjector::instance().reset();
  ShardRouterConfig rcfg;
  rcfg.replication = 2;
  rcfg.retry.max_attempts = 3;
  Tier tier(3, 51, rcfg);

  InferenceSessionConfig scfg;
  scfg.cache.capacity = 128;
  InferenceSession reference(make_trained_model(51), scfg);
  auto ref_state = reference.make_worker_state();

  RequestSchedulerConfig qcfg;
  qcfg.num_workers = 2;
  qcfg.max_batch = 8;
  RequestScheduler scheduler(*tier.router, qcfg);

  Prng rng(61);
  auto run_phase = [&](int n) {
    std::vector<double> lat_us;
    lat_us.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const RankingRequest req = make_request(rng);
      const MiniBatch mb = to_minibatch({req});
      std::vector<float> want;
      reference.predict(mb, want, *ref_state);
      const auto t0 = std::chrono::steady_clock::now();
      const RankingResponse resp = scheduler.submit_blocking(req);
      const auto t1 = std::chrono::steady_clock::now();
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      EXPECT_EQ(want[0], resp.prob) << "request " << i;
    }
    std::sort(lat_us.begin(), lat_us.end());
    return lat_us[static_cast<std::size_t>(
        static_cast<double>(lat_us.size() - 1) * 0.99)];
  };

  const double steady_p99_us = run_phase(150);

  // Arm the kill: the next serve attempt on whichever shard reaches the
  // site first dies mid-request (exactly one fire).
  FaultSpec crash;
  crash.kind = FaultKind::kError;
  crash.max_fires = 1;
  crash.message = "chaos drill";
  FaultInjector::instance().arm("shard.crash", crash);

  const double killed_p99_us = run_phase(150);
  FaultInjector::instance().reset();

  int dead = -1;
  for (int s = 0; s < 3; ++s) {
    if (!tier.servers[static_cast<std::size_t>(s)]->alive()) {
      ASSERT_EQ(dead, -1) << "exactly one shard should have died";
      dead = s;
    }
  }
  ASSERT_NE(dead, -1) << "the armed crash should have killed a shard";
  EXPECT_FALSE(tier.router->shard_live(dead))
      << "the router must stop routing to a dead shard";

  // Bounded degradation: generous floor absorbs sanitizer/VM noise while
  // still catching a deadline-stall regression (which would cost >= 20ms).
  EXPECT_LE(killed_p99_us, std::max(3.0 * steady_p99_us, 15000.0))
      << "steady p99 " << steady_p99_us << "us";

  // Revive: the router routes to the shard again from the next request.
  tier.servers[static_cast<std::size_t>(dead)]->revive();
  ASSERT_TRUE(tier.servers[static_cast<std::size_t>(dead)]->alive());
  ASSERT_TRUE(tier.router->shard_live(dead))
      << "a revived shard is live for the very next request";

  const std::uint64_t calls_before =
      tier.servers[static_cast<std::size_t>(dead)]->calls_served();
  run_phase(60);
  EXPECT_GT(tier.servers[static_cast<std::size_t>(dead)]->calls_served(),
            calls_before)
      << "rejoined shard should serve traffic again";

  scheduler.shutdown();
  const RequestScheduler::Stats qstats = scheduler.stats();
  EXPECT_EQ(qstats.accepted, qstats.served)
      << "zero accepted-request loss through the kill";
}

}  // namespace
}  // namespace elrec
