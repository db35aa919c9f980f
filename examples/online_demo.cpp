// Online-training demo: the closed train -> checkpoint -> promote loop with
// zero serving downtime.
//
// A continuous trainer consumes the drifting Criteo-like stream (the hot
// set migrates on a seeded schedule) and emits a checksummed checkpoint
// every N batches; the main thread hands each one to the ModelPromoter,
// which restores it, warms its serving caches from the live AccessStats
// snapshot, and hot-swaps it behind the HotSwapBackend seam — all while
// client threads keep a RequestScheduler under sustained Zipf load. One
// promotion attempt is killed at the commit fault site (the same
// ELREC_FAULT_SITES grammar production binaries honor) to show the old
// generation keeps serving and the loop recovers.
//
//   ./online_demo            (~10s, 5 promotions)
//   ./online_demo --smoke    tiny run for scripts/check.sh --online
//                            (3 promotions, 1 injected promoter kill)
//
// Exits non-zero on any accepted-request loss, a promotion shortfall, or a
// response outside [0, 1].
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "core/eff_tt_table.hpp"
#include "data/drift.hpp"
#include "dlrm/model_checkpoint.hpp"
#include "obs/metrics.hpp"
#include "online/hot_swap_backend.hpp"
#include "online/model_promoter.hpp"
#include "online/online_trainer.hpp"
#include "serve/request_scheduler.hpp"

using namespace elrec;

namespace {

DatasetSpec demo_spec(bool smoke) {
  DatasetSpec spec;
  spec.name = "online-demo";
  spec.num_dense = 13;
  spec.table_rows = smoke ? std::vector<index_t>{8000, 2000}
                          : std::vector<index_t>{20000, 8000};
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
  const int target_promotions = smoke ? 3 : 5;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "elrec_online_demo").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // --- Phase 1: bootstrap the first serving generation. ------------------
  DriftScheduleConfig drift;
  drift.period_batches = smoke ? 20 : 50;
  drift.max_step_fraction = 0.05;
  DriftingDataset stream(spec, 2, drift);

  OnlineTrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.checkpoint_every_n = smoke ? 30 : 80;
  tcfg.checkpoint_dir = dir;
  tcfg.stats_decay_every_n = 200;
  OnlineTrainer trainer(make_model(spec, 1), stream, tcfg);

  std::printf("bootstrapping: training %d batches...\n", smoke ? 30 : 80);
  trainer.train_batches(tcfg.checkpoint_every_n);
  const std::string ckpt0 = trainer.latest_checkpoint();
  std::printf("  loss %.4f, first checkpoint %s\n", trainer.stats().last_loss,
              ckpt0.c_str());

  ModelPromoterConfig pcfg;
  pcfg.session.cache.capacity = 2048;
  pcfg.session.cache.admit_min_freq = 2;
  pcfg.warm_top_k = 1024;
  auto gen0 = std::make_shared<ServingGeneration>();
  gen0->id = 0;
  gen0->checkpoint_path = ckpt0;
  {
    auto m = make_model(spec, 99);  // fresh init, overwritten by restore
    load_dlrm_model(*m, ckpt0);
    gen0->session =
        std::make_unique<InferenceSession>(std::move(m), pcfg.session);
  }
  HotSwapBackend backend(std::move(gen0));
  ModelPromoter promoter(
      backend, [&spec] { return make_model(spec, 12345); }, pcfg);

  // --- Phase 2: serve while training and promoting continuously. ---------
  RequestSchedulerConfig qcfg;
  qcfg.num_workers = 3;
  qcfg.max_batch = 16;
  qcfg.max_wait_us = 100;
  qcfg.queue_capacity = 512;
  RequestScheduler sched(backend, qcfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_probs{0};
  std::atomic<std::uint64_t> client_served{0};
  constexpr int kClients = 2;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SyntheticDataset data(spec, 40 + static_cast<std::uint64_t>(c));
      Prng rng(70 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_acquire)) {
        RankingRequest req;
        req.dense.resize(static_cast<std::size_t>(spec.num_dense));
        for (auto& v : req.dense) {
          v = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        req.sparse.resize(spec.table_rows.size());
        for (index_t t = 0; t < backend.num_tables(); ++t) {
          req.sparse[static_cast<std::size_t>(t)].push_back(
              data.sampler(t).sample(rng));
        }
        std::future<RankingResponse> fut;
        if (sched.submit(req, fut) != SubmitStatus::kAccepted) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const RankingResponse resp = fut.get();
        client_served.fetch_add(1, std::memory_order_relaxed);
        if (resp.prob < 0.0f || resp.prob > 1.0f) {
          bad_probs.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Kill exactly one promotion at the commit point: built generation
  // abandoned, old one keeps serving, the next emit promotes cleanly.
  FaultInjector::instance().arm_from_string("online.promote.commit:1:error:1");
  std::printf("armed online.promote.commit (first promotion will be killed)\n");

  // Train -> emit -> promote on this thread while the clients keep the
  // scheduler loaded. Each train_batches call ends on a checkpoint
  // boundary, so it returns with a fresh durable checkpoint to promote.
  int killed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(smoke ? 60 : 120);
  while (promoter.stats().promotions <
             static_cast<std::uint64_t>(target_promotions) &&
         std::chrono::steady_clock::now() < deadline) {
    trainer.train_batches(tcfg.checkpoint_every_n);
    const std::uint64_t seq = trainer.stats().checkpoints - 1;
    try {
      const std::uint64_t id = promoter.promote(trainer.latest_checkpoint(),
                                                &trainer.access_stats());
      std::printf("promoted checkpoint %llu -> generation %llu "
                  "(offset[0]=%lld)\n",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(id),
                  static_cast<long long>(stream.current_offset(0)));
    } catch (const InjectedFault&) {
      ++killed;
      std::printf("promotion of checkpoint %llu killed at commit; "
                  "generation %llu keeps serving\n",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(backend.generation_id()));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();
  sched.shutdown();
  FaultInjector::instance().reset();

  // --- Phase 3: report and verify. ---------------------------------------
  const auto ts = trainer.stats();
  const auto ps = promoter.stats();
  const auto qs = sched.stats();
  const auto swap_summary =
      obs::MetricsRegistry::global().histogram("online.swap_us").summary();
  std::printf("\ntrained %llu batches (%llu checkpoints), final loss %.4f\n",
              static_cast<unsigned long long>(ts.batches),
              static_cast<unsigned long long>(ts.checkpoints), ts.last_loss);
  std::printf("promotions: %llu ok, %llu killed; swap p50 %.0fus p99 %.0fus; "
              "drain timeouts %llu\n",
              static_cast<unsigned long long>(ps.promotions),
              static_cast<unsigned long long>(ps.failed),
              swap_summary.p50, swap_summary.p99,
              static_cast<unsigned long long>(ps.drain_timeouts));
  std::printf("serving generation %llu; cache hit rate %.2f\n",
              static_cast<unsigned long long>(backend.generation_id()),
              backend.current()->session->cache_hit_rate());
  std::printf("served %zu requests (%zu shed at admission)\n", qs.served,
              qs.shed);

  std::filesystem::remove_all(dir);

  bool ok = true;
  if (qs.accepted != qs.served) {
    std::printf("FAIL: %zu accepted requests were lost\n",
                qs.accepted - qs.served);
    ok = false;
  }
  if (ps.promotions < static_cast<std::uint64_t>(target_promotions)) {
    std::printf("FAIL: only %llu/%d promotions landed before the deadline\n",
                static_cast<unsigned long long>(ps.promotions),
                target_promotions);
    ok = false;
  }
  if (killed != 1) {
    std::printf("FAIL: commit fault fired %d times (expected 1)\n", killed);
    ok = false;
  }
  if (backend.generation_id() != ps.promotions) {
    std::printf("FAIL: serving generation %llu != successful promotions\n",
                static_cast<unsigned long long>(backend.generation_id()));
    ok = false;
  }
  if (bad_probs.load(std::memory_order_relaxed) != 0) {
    std::printf("FAIL: %llu responses outside [0,1]\n",
                static_cast<unsigned long long>(
                    bad_probs.load(std::memory_order_relaxed)));
    ok = false;
  }
  if (!ok) return 1;
  std::printf("zero downtime, zero loss across %d promotions + 1 injected "
              "kill. done.\n",
              target_promotions);
  return 0;
}
