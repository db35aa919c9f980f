// Sharded serving tier benchmark: throughput scaling vs shard count at a
// held tail-latency budget against the single-process baseline, plus the
// degraded-mode latency delta when an unreplicated shard is lost and its
// rows fall back to the router-side cold-tail path.
//
//   --quick   4k requests per config, writes BENCH_sharded.json
//   (default) 20k requests per config
//
// Configs: local is one InferenceSession warmed with the merged hot set,
// the baseline every sharded arm is measured against; shards_1 / shards_2 /
// shards_4 (replication 2, placement-warmed caches) measure shard-count
// scaling; degraded_2 runs 2 shards with no replicas, kills shard 0
// halfway, and reports steady vs degraded p50/p99. Every config runs the
// same scheduler config and request stream and checks zero
// accepted-request loss.
#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "data/synthetic.hpp"
#include "serve/inference_session.hpp"
#include "serve/request_scheduler.hpp"
#include "shard/placement.hpp"
#include "shard/shard_router.hpp"

namespace {

using namespace elrec;
using benchutil::fmt;

constexpr index_t kDense = 13;
constexpr index_t kDim = 16;
constexpr index_t kCacheRows = 4096;

DatasetSpec sharded_spec() {
  DatasetSpec spec;
  spec.name = "sharded";
  spec.num_dense = kDense;
  spec.table_rows = {50000, 20000};
  spec.num_samples = 1 << 22;
  spec.zipf_s = 1.05;
  return spec;
}

// Deterministic from the fixed seed: every call builds a bitwise-identical
// frozen model, which is how each shard gets its own copy.
std::unique_ptr<DlrmModel> make_model(const DatasetSpec& spec) {
  Prng rng(42);
  DlrmConfig cfg;
  cfg.num_dense = kDense;
  cfg.embedding_dim = kDim;
  cfg.bottom_hidden = {64, 32};
  cfg.top_hidden = {64, 32};
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (index_t rows : spec.table_rows) {
    tables.push_back(std::make_unique<EffTTTable>(
        rows, TTShape::balanced(rows, kDim, 3, 16), rng));
  }
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

InferenceSessionConfig session_config() {
  InferenceSessionConfig scfg;
  scfg.cache.capacity = kCacheRows;
  scfg.cache.admit_min_freq = 2;
  return scfg;
}

// The hot set every arm warms from (RecShard-style access statistics).
std::vector<std::vector<index_t>> hot_rows(const DatasetSpec& spec) {
  SyntheticDataset stats_data(spec, 99);
  std::vector<std::vector<index_t>> hot;
  for (std::size_t t = 0; t < spec.table_rows.size(); ++t) {
    hot.push_back(top_accessed_indices(stats_data, static_cast<index_t>(t),
                                       /*k=*/kCacheRows, /*num_draws=*/100000));
  }
  return hot;
}

// The single-process baseline: one session holding, per table, what the
// 4-shard tier's placement warms across all its shards, merged by rank and
// capped at the cache size.
std::unique_ptr<InferenceSession> build_local(
    const DatasetSpec& spec, const std::vector<std::vector<index_t>>& hot) {
  auto session =
      std::make_unique<InferenceSession>(make_model(spec), session_config());
  PlacementConfig pcfg;
  pcfg.replication = 2;
  const PlacementPlan plan = plan_placement(HashRing(4), hot, pcfg);
  for (std::size_t t = 0; t < hot.size(); ++t) {
    std::vector<std::vector<index_t>> per_shard;
    for (const auto& shard_rows : plan.warm_rows) {
      per_shard.push_back(shard_rows[t]);
    }
    session->warm_cache(static_cast<index_t>(t),
                        merge_hot_rows(per_shard, kCacheRows));
  }
  return session;
}

struct Tier {
  std::vector<std::unique_ptr<InferenceSession>> sessions;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<InferenceSession> fallback;
  std::unique_ptr<ShardRouter> router;
};

Tier build_tier(const DatasetSpec& spec,
                const std::vector<std::vector<index_t>>& hot, int num_shards,
                int replication) {
  Tier tier;
  std::vector<ShardServer*> raw;
  for (int s = 0; s < num_shards; ++s) {
    tier.sessions.push_back(
        std::make_unique<InferenceSession>(make_model(spec), session_config()));
    tier.servers.push_back(
        std::make_unique<ShardServer>(s, *tier.sessions.back()));
    raw.push_back(tier.servers.back().get());
  }
  tier.fallback =
      std::make_unique<InferenceSession>(make_model(spec), session_config());
  ShardRouterConfig rcfg;
  rcfg.replication = replication;
  tier.router = std::make_unique<ShardRouter>(*tier.fallback, raw, rcfg);

  // RecShard-style statistics-driven placement: warm each shard's owned
  // partition of the hot set (replicas included).
  PlacementConfig pcfg;
  pcfg.replication = replication;
  const PlacementPlan plan = plan_placement(tier.router->ring(), hot, pcfg);
  for (int s = 0; s < num_shards; ++s) {
    for (std::size_t t = 0; t < hot.size(); ++t) {
      tier.sessions[static_cast<std::size_t>(s)]->warm_cache(
          static_cast<index_t>(t),
          plan.warm_rows[static_cast<std::size_t>(s)][t]);
    }
  }
  return tier;
}

struct StreamResult {
  LatencySummary total;
  double throughput_rps = 0.0;
  std::size_t shed = 0;
  double batch_mean = 0.0;  // requests per micro-batch
  std::size_t dropped = 0;
};

StreamResult run_stream(RequestScheduler& sched, SyntheticDataset& data,
                        Prng& rng, index_t num_tables,
                        std::size_t num_requests) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<RankingResponse>> futs;
  futs.reserve(num_requests);
  for (std::size_t r = 0; r < num_requests; ++r) {
    RankingRequest req;
    req.dense.resize(static_cast<std::size_t>(kDense));
    for (auto& v : req.dense) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    req.sparse.resize(static_cast<std::size_t>(num_tables));
    for (index_t t = 0; t < num_tables; ++t) {
      req.sparse[static_cast<std::size_t>(t)].push_back(
          data.sampler(t).sample(rng));
    }
    std::future<RankingResponse> fut;
    for (;;) {
      const SubmitStatus st = sched.submit(req, fut);
      if (st == SubmitStatus::kAccepted) break;
      ELREC_CHECK(st == SubmitStatus::kOverloaded, "queue closed mid-run");
      std::this_thread::yield();
    }
    futs.push_back(std::move(fut));
  }
  std::size_t completed = 0;
  for (auto& f : futs) {
    (void)f.get();
    ++completed;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The worker bumps served_ after fulfilling the batch's promises, so the
  // counters are only settled once the workers are joined.
  sched.shutdown();
  const auto stats = sched.stats();
  StreamResult res;
  res.total = sched.latency().total_summary();
  res.throughput_rps = static_cast<double>(completed) / wall_s;
  res.shed = stats.shed;
  res.batch_mean = static_cast<double>(stats.served) /
                   static_cast<double>(std::max<std::size_t>(stats.batches, 1));
  res.dropped = stats.accepted - stats.served;
  ELREC_CHECK(res.dropped == 0, "no accepted request may be dropped");
  return res;
}

RequestSchedulerConfig scheduler_config() {
  RequestSchedulerConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 32;
  cfg.max_wait_us = 100;
  cfg.queue_capacity = 512;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = benchutil::has_flag(argc, argv, "--quick");
  const std::size_t num_requests = quick ? 4000 : 20000;

  benchutil::header("Sharded serving tier: shard-count scaling + failover");
  benchutil::note("requests/config = " + std::to_string(num_requests));

  const DatasetSpec spec = sharded_spec();
  benchutil::JsonBenchReport report("sharded");
  std::vector<std::vector<std::string>> table = {
      {"config", "p50 us", "p95 us", "p99 us", "req/s", "batch", "shed",
       "fallback rows", "failovers"}};
  // One table row and one report entry per steady-state arm.
  auto record = [&](const std::string& name, int shards, const StreamResult& r,
                    std::uint64_t fallback_rows, std::uint64_t failovers) {
    table.push_back({name, fmt(r.total.p50), fmt(r.total.p95),
                     fmt(r.total.p99), fmt(r.throughput_rps, 0),
                     fmt(r.batch_mean, 1), std::to_string(r.shed),
                     std::to_string(fallback_rows),
                     std::to_string(failovers)});
    report.add(name, {{"shards", static_cast<double>(shards)},
                      {"requests", static_cast<double>(num_requests)},
                      {"p50_us", r.total.p50},
                      {"p95_us", r.total.p95},
                      {"p99_us", r.total.p99},
                      {"throughput_rps", r.throughput_rps},
                      {"batch_mean", r.batch_mean},
                      {"shed", static_cast<double>(r.shed)},
                      {"fallback_rows", static_cast<double>(fallback_rows)},
                      {"failovers", static_cast<double>(failovers)}});
  };

  const auto hot = hot_rows(spec);

  // Single-process baseline on the same stream.
  {
    const auto session = build_local(spec, hot);
    RequestScheduler sched(*session, scheduler_config());
    SyntheticDataset data(spec, 7);
    Prng rng(13);
    const StreamResult r =
        run_stream(sched, data, rng, session->num_tables(), num_requests);
    record("local", 0, r, 0, 0);
  }

  // Throughput scaling: 1 / 2 / 4 shards, replication 2, same stream.
  for (const int shards : {1, 2, 4}) {
    Tier tier = build_tier(spec, hot, shards, /*replication=*/2);
    RequestScheduler sched(*tier.router, scheduler_config());
    SyntheticDataset data(spec, 7);
    Prng rng(13);
    const StreamResult r =
        run_stream(sched, data, rng, tier.router->num_tables(), num_requests);
    const ShardRouter::RouterStats rs = tier.router->stats();
    record("shards_" + std::to_string(shards), shards, r, rs.fallback_rows,
           rs.failovers);
  }

  // Degraded mode: 2 shards, no replicas. Steady phase, then kill shard 0
  // and measure the latency delta of the fallback path.
  {
    Tier tier = build_tier(spec, hot, 2, /*replication=*/1);
    SyntheticDataset data(spec, 7);
    Prng rng(13);
    StreamResult steady, degraded;
    {
      RequestScheduler sched(*tier.router, scheduler_config());
      steady = run_stream(sched, data, rng, tier.router->num_tables(),
                          num_requests / 2);
      sched.shutdown();
    }
    tier.servers[0]->kill();
    {
      RequestScheduler sched(*tier.router, scheduler_config());
      degraded = run_stream(sched, data, rng, tier.router->num_tables(),
                            num_requests / 2);
      sched.shutdown();
    }
    const ShardRouter::RouterStats rs = tier.router->stats();
    table.push_back({"degraded_2_steady", fmt(steady.total.p50),
                     fmt(steady.total.p95), fmt(steady.total.p99),
                     fmt(steady.throughput_rps, 0), fmt(steady.batch_mean, 1),
                     std::to_string(steady.shed), "0", "0"});
    table.push_back({"degraded_2_killed", fmt(degraded.total.p50),
                     fmt(degraded.total.p95), fmt(degraded.total.p99),
                     fmt(degraded.throughput_rps, 0),
                     fmt(degraded.batch_mean, 1), std::to_string(degraded.shed),
                     std::to_string(rs.fallback_rows),
                     std::to_string(rs.failovers)});
    report.add("degraded_2",
               {{"shards", 2.0},
                {"requests", static_cast<double>(num_requests)},
                {"steady_p50_us", steady.total.p50},
                {"steady_p99_us", steady.total.p99},
                {"killed_p50_us", degraded.total.p50},
                {"killed_p99_us", degraded.total.p99},
                {"p99_delta_us", degraded.total.p99 - steady.total.p99},
                {"steady_rps", steady.throughput_rps},
                {"killed_rps", degraded.throughput_rps},
                {"fallback_rows", static_cast<double>(rs.fallback_rows)}});
  }

  benchutil::print_table(table);
  if (quick) report.write();
  return 0;
}
