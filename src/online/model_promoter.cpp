#include "online/model_promoter.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injector.hpp"
#include "dlrm/model_checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elrec {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

ModelPromoter::ModelPromoter(HotSwapBackend& target, ModelFactory make_model,
                             ModelPromoterConfig config)
    : target_(target),
      make_model_(std::move(make_model)),
      config_(std::move(config)) {
  ELREC_CHECK(make_model_ != nullptr, "model promoter needs a model factory");
  ELREC_CHECK(config_.num_shards >= 0, "shard count must be non-negative");
  // Generation ids continue past the initial generation the backend was
  // constructed with.
  next_id_ = target_.generation_id() + 1;
}

ModelPromoter::~ModelPromoter() = default;

std::shared_ptr<ServingGeneration> ModelPromoter::build_generation(
    const std::string& checkpoint_path, const AccessStats* stats,
    std::uint64_t id) const {
  auto gen = std::make_shared<ServingGeneration>();
  gen->id = id;
  gen->checkpoint_path = checkpoint_path;
  // One restore per generation: the fallback and every shard session serve
  // from this one frozen model.
  std::unique_ptr<DlrmModel> restored = make_model_();
  ELREC_CHECK(restored != nullptr, "model factory returned null");
  load_dlrm_model(*restored, checkpoint_path);
  const std::shared_ptr<const DlrmModel> model = std::move(restored);
  gen->session = std::make_unique<InferenceSession>(model, config_.session);

  // Warm sets come from the live traffic snapshot: the hot rows *right now*,
  // not the hot rows of the distribution the previous generation warmed on.
  std::vector<std::vector<index_t>> hot;
  if (stats != nullptr && config_.warm_top_k > 0) {
    ELREC_CHECK(stats->num_tables() == gen->session->num_tables(),
                "access stats table count does not match the model");
    hot = stats->top_k_all(config_.warm_top_k);
  }

  if (config_.num_shards <= 0) {
    for (std::size_t t = 0; t < hot.size(); ++t) {
      gen->session->warm_cache(static_cast<index_t>(t), hot[t]);
    }
    return gen;
  }

  // Sharded tier: every shard session serves the same full model
  // (bitwise-identical rows everywhere, warmth is the only difference) and
  // warms its consistent-hash partition of the hot set.
  gen->shard_sessions.reserve(static_cast<std::size_t>(config_.num_shards));
  gen->servers.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    gen->shard_sessions.push_back(
        std::make_unique<InferenceSession>(model, config_.session));
  }

  const HashRing ring(config_.num_shards, config_.router.vnodes_per_shard,
                      config_.router.ring_seed);
  if (!hot.empty()) {
    const PlacementPlan plan = plan_placement(ring, hot, config_.placement);
    for (int s = 0; s < config_.num_shards; ++s) {
      const auto& per_table = plan.warm_rows[static_cast<std::size_t>(s)];
      for (std::size_t t = 0; t < per_table.size(); ++t) {
        gen->shard_sessions[static_cast<std::size_t>(s)]->warm_cache(
            static_cast<index_t>(t), per_table[t]);
      }
    }
    // The fallback session absorbs degraded-mode traffic; warm it with the
    // merged hot set so a mid-promotion shard failure stays fast.
    for (std::size_t t = 0; t < hot.size(); ++t) {
      gen->session->warm_cache(static_cast<index_t>(t), hot[t]);
    }
  }

  std::vector<ShardServer*> raw;
  raw.reserve(gen->shard_sessions.size());
  for (int s = 0; s < config_.num_shards; ++s) {
    gen->servers.push_back(std::make_unique<ShardServer>(
        s, *gen->shard_sessions[static_cast<std::size_t>(s)],
        config_.shard_server));
    raw.push_back(gen->servers.back().get());
  }
  gen->router = std::make_unique<ShardRouter>(*gen->session, std::move(raw),
                                              config_.router);
  return gen;
}

bool ModelPromoter::drain(
    const std::shared_ptr<ServingGeneration>& gen) const {
  const auto deadline = std::chrono::steady_clock::now() + config_.drain_timeout;
  // use_count() == 1 means every in-flight predict() released its pin and
  // the backend no longer holds the generation: we are the sole owner. The
  // count can only decrease once the generation is out of the backend, so a
  // reading of 1 is stable, not a race window.
  while (gen.use_count() > 1) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(config_.drain_poll);
  }
  return true;
}

std::uint64_t ModelPromoter::promote(const std::string& checkpoint_path,
                                     const AccessStats* stats) {
  TRACE_SPAN("online.promote");
  static obs::Counter& promotions =
      obs::MetricsRegistry::global().counter("online.promotions");
  static obs::Counter& failures =
      obs::MetricsRegistry::global().counter("online.promote_failures");
  static obs::Histogram& swap_us =
      obs::MetricsRegistry::global().histogram("online.swap_us");

  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_;
  }

  std::shared_ptr<ServingGeneration> old;
  double build_us = 0.0;
  double this_swap_us = 0.0;
  try {
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<ServingGeneration> next =
        build_generation(checkpoint_path, stats, id);
    const auto t1 = std::chrono::steady_clock::now();
    build_us = elapsed_us(t0, t1);

    // Commit point: a promoter killed here (fault-drill) abandons `next` —
    // the serving generation has not been touched yet.
    ELREC_FAULT_POINT("online.promote.commit");

    old = target_.swap(std::move(next));
    this_swap_us = elapsed_us(t1, std::chrono::steady_clock::now());
  } catch (...) {
    failures.inc();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
    throw;
  }

  promotions.inc();
  swap_us.record(this_swap_us);

  const auto d0 = std::chrono::steady_clock::now();
  const bool drained = drain(old);
  const double drain_us = elapsed_us(d0, std::chrono::steady_clock::now());

  {
    std::lock_guard<std::mutex> lock(mu_);
    next_id_ = id + 1;
    ++stats_.promotions;
    stats_.last_build_us = build_us;
    stats_.last_swap_us = this_swap_us;
    stats_.last_drain_us = drain_us;
    if (!drained) {
      ++stats_.drain_timeouts;
      retired_.push_back(std::move(old));
    }
    // Requests that drained earlier may also have released parked
    // generations; sweep the ones that became unique.
    std::erase_if(retired_, [](const std::shared_ptr<ServingGeneration>& g) {
      return g.use_count() == 1;
    });
  }

  if (old != nullptr) {  // drained: retire and destroy outside the lock
    old->retire();
    old.reset();
  }
  return id;
}

PromoterStats ModelPromoter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ModelPromoter::retired_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

}  // namespace elrec
