// Fault-tolerant sharded serving demo: train a small Eff-TT DLRM,
// checkpoint it, restore one copy per shard (TT compression makes the full
// model per node cheap), build a 3-shard tier with replication-2 placement
// behind the failover router, serve a Zipf stream, kill a shard mid-load,
// then revive it: the router routes to it again from the next request.
//
//   ./shard_demo            (~10s, 20k requests, kill + revive drill)
//   ./shard_demo --smoke    tiny run for scripts/check.sh --shard
//                           (3 shards, 5k requests, one injected kill)
//
// Fault sites can also be armed without recompiling, e.g.
//   ELREC_FAULT_SITES='shard.serve:0.01:transient' ./shard_demo --smoke
// to sprinkle retryable faults over the stream.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "data/synthetic.hpp"
#include "dlrm/model_checkpoint.hpp"
#include "serve/inference_session.hpp"
#include "serve/request_scheduler.hpp"
#include "shard/placement.hpp"
#include "shard/shard_router.hpp"

using namespace elrec;

namespace {

DatasetSpec demo_spec(bool smoke) {
  DatasetSpec spec;
  spec.name = "shard-demo";
  spec.num_dense = 13;
  spec.table_rows = smoke ? std::vector<index_t>{20000, 8000}
                          : std::vector<index_t>{50000, 20000, 5000};
  spec.num_samples = 1 << 22;
  spec.zipf_s = 1.05;
  return spec;
}

std::unique_ptr<DlrmModel> make_model(const DatasetSpec& spec,
                                      std::uint64_t seed) {
  Prng rng(seed);
  DlrmConfig cfg;
  cfg.num_dense = spec.num_dense;
  cfg.embedding_dim = 16;
  cfg.bottom_hidden = {64, 32};
  cfg.top_hidden = {64, 32};
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (index_t rows : spec.table_rows) {
    tables.push_back(std::make_unique<EffTTTable>(
        rows, TTShape::balanced(rows, cfg.embedding_dim, 3, 16), rng));
  }
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const DatasetSpec spec = demo_spec(smoke);
  constexpr int kShards = 3;

  // --- Phase 1: train briefly and checkpoint. ----------------------------
  std::printf("training a %lld-table Eff-TT DLRM...\n",
              static_cast<long long>(spec.table_rows.size()));
  auto model = make_model(spec, 1);
  SyntheticDataset data(spec, 2);
  const int train_batches = smoke ? 40 : 200;
  float loss = 0.0f;
  for (int b = 0; b < train_batches; ++b) {
    loss = model->train_step(data.next_batch(128), 0.05f);
  }
  std::printf("  final loss %.4f\n", loss);

  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "elrec_shard_demo.ckpt")
          .string();
  save_dlrm_model(*model, ckpt);
  model.reset();

  // --- Phase 2: restore one full model per shard + router fallback. ------
  InferenceSessionConfig scfg;
  scfg.cache.capacity = 4096;
  scfg.cache.admit_min_freq = 2;
  auto restore_session = [&](std::uint64_t seed) {
    auto m = make_model(spec, seed);  // fresh init, overwritten by restore
    load_dlrm_model(*m, ckpt);
    return std::make_unique<InferenceSession>(std::move(m), scfg);
  };
  std::vector<std::unique_ptr<InferenceSession>> sessions;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardServer*> raw;
  for (int s = 0; s < kShards; ++s) {
    sessions.push_back(restore_session(100 + static_cast<std::uint64_t>(s)));
    servers.push_back(std::make_unique<ShardServer>(s, *sessions.back()));
    raw.push_back(servers.back().get());
  }
  auto fallback = restore_session(999);
  std::remove(ckpt.c_str());

  ShardRouterConfig rcfg;
  rcfg.replication = 2;
  ShardRouter router(*fallback, raw, rcfg);

  // Statistics-driven placement: each shard warms its owned hot partition
  // (primary + replica copies), RecShard-style.
  SyntheticDataset stats_data(spec, 3);
  std::vector<std::vector<index_t>> hot;
  for (index_t t = 0; t < router.num_tables(); ++t) {
    hot.push_back(
        top_accessed_indices(stats_data, t, /*k=*/4096, /*num_draws=*/50000));
  }
  PlacementConfig pcfg;
  pcfg.replication = rcfg.replication;
  const PlacementPlan plan = plan_placement(router.ring(), hot, pcfg);
  for (int s = 0; s < kShards; ++s) {
    for (std::size_t t = 0; t < hot.size(); ++t) {
      sessions[static_cast<std::size_t>(s)]->warm_cache(
          static_cast<index_t>(t),
          plan.warm_rows[static_cast<std::size_t>(s)][t]);
    }
    std::printf("shard %d: hot-traffic share %.2f\n", s,
                plan.shard_share[static_cast<std::size_t>(s)]);
  }

  // --- Phase 3: serve; kill a shard mid-stream; revive it. ---------------
  RequestSchedulerConfig qcfg;
  qcfg.num_workers = 4;
  qcfg.max_batch = 32;
  qcfg.max_wait_us = 100;
  qcfg.queue_capacity = 512;
  RequestScheduler sched(router, qcfg);

  const std::size_t kRequests = smoke ? 5000 : 20000;
  const std::size_t kill_at = kRequests / 2;
  const int victim = 1;
  Prng rng(4);
  std::vector<std::future<RankingResponse>> futs;
  futs.reserve(kRequests);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRequests; ++r) {
    if (r == kill_at) {
      std::printf("killing shard %d mid-load...\n", victim);
      servers[static_cast<std::size_t>(victim)]->kill();
    }
    RankingRequest req;
    req.dense.resize(static_cast<std::size_t>(spec.num_dense));
    for (auto& v : req.dense) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    req.sparse.resize(static_cast<std::size_t>(router.num_tables()));
    for (index_t t = 0; t < router.num_tables(); ++t) {
      req.sparse[static_cast<std::size_t>(t)].push_back(
          stats_data.sampler(t).sample(rng));
    }
    std::future<RankingResponse> fut;
    while (sched.submit(req, fut) != SubmitStatus::kAccepted) {
      std::this_thread::yield();
    }
    futs.push_back(std::move(fut));
  }
  for (auto& f : futs) (void)f.get();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sched.shutdown();

  const LatencySummary total = sched.latency().total_summary();
  const auto qstats = sched.stats();
  const ShardRouter::RouterStats rs = router.stats();
  std::printf("\nserved %zu requests in %.2fs (%.0f req/s)\n", qstats.served,
              wall_s, static_cast<double>(qstats.served) / wall_s);
  std::printf("latency p50 %.0fus  p95 %.0fus  p99 %.0fus\n", total.p50,
              total.p95, total.p99);
  std::uint64_t shard_calls = 0;
  for (const auto& s : servers) shard_calls += s->calls_served();
  std::printf("router: %llu shard calls, %llu retries, %llu failovers, "
              "%llu fallback rows, %llu shed\n",
              static_cast<unsigned long long>(shard_calls),
              static_cast<unsigned long long>(rs.retries),
              static_cast<unsigned long long>(rs.failovers),
              static_cast<unsigned long long>(rs.fallback_rows),
              static_cast<unsigned long long>(rs.shed));
  std::printf("shard %d live: %s\n", victim,
              router.shard_live(victim) ? "yes" : "no");
  if (qstats.accepted != qstats.served) {
    std::printf("FAIL: %zu accepted requests were lost\n",
                qstats.accepted - qstats.served);
    return 1;
  }

  // --- Phase 4: revive; the next request is routed to the shard again. ---
  servers[static_cast<std::size_t>(victim)]->revive();
  const std::uint64_t calls_before =
      servers[static_cast<std::size_t>(victim)]->calls_served();
  {
    RequestScheduler rejoin(router, qcfg);
    for (std::size_t r = 0; r < 200; ++r) {
      RankingRequest req;
      req.dense.assign(static_cast<std::size_t>(spec.num_dense), 0.5f);
      req.sparse.resize(static_cast<std::size_t>(router.num_tables()));
      for (index_t t = 0; t < router.num_tables(); ++t) {
        req.sparse[static_cast<std::size_t>(t)].push_back(
            stats_data.sampler(t).sample(rng));
      }
      (void)rejoin.submit_blocking(req);
    }
  }
  const bool rejoined =
      servers[static_cast<std::size_t>(victim)]->calls_served() > calls_before;
  std::printf("revived shard %d; %s\n", victim,
              rejoined ? "it serves again (rejoined)" : "STILL no calls");
  if (!rejoined) return 1;

  const std::string env_err = FaultInjector::instance().env_config_error();
  if (!env_err.empty()) {
    std::printf("warning: ELREC_FAULT_SITES parse error: %s\n",
                env_err.c_str());
  }
  std::printf("zero accepted-request loss through kill + revive. done.\n");
  return 0;
}
