// serve_local and serve_sharded: a DLRM with Eff-TT tables is saved with
// save_dlrm_model, restored with load_dlrm_model, and served through a
// RequestScheduler, either from one InferenceSession (serve_local) or
// through a ShardRouter over two ShardServers (serve_sharded). Both get the
// same seeded traffic from an open-loop Poisson generator running on the
// calling thread.
//
// Latency of a request runs from the moment it was due to be sent to the
// end of the micro-batch forward that answered it:
//   (send - due) + RankingResponse::queue_us + RankingResponse::compute_us,
// where queue_us starts at admission inside submit(). A request shed at
// admission counts as failed and as missing the latency limit.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "data/synthetic.hpp"
#include "dlrm/model_checkpoint.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/inference_session.hpp"
#include "serve/request_scheduler.hpp"
#include "shard/placement.hpp"
#include "shard/shard_router.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace elrec;

namespace {

constexpr index_t kDim = 16;
constexpr index_t kRank = 32;
constexpr index_t kCacheRows = 4096;
constexpr index_t kMaxBatch = 32;
constexpr int kShards = 2;
// The served model and the population its users come from (the synthetic
// teacher behind the labels) are part of the workload, fixed across seeds;
// --seed picks arrival times and where in that population's stream the
// traffic starts. With a per-seed teacher the answers' normalized entropy
// differed by 17% between seeds.
constexpr std::uint64_t kModelSeed = 42;
constexpr std::uint64_t kPopulationSeed = 7;

// Scheduler workers of serve_local: every CPU but the load generator's.
// serve_sharded splits the same budget between its scheduler and shards.
int serve_local_workers() { return std::max(1, hardware_threads() - 1); }

// Fixed traffic and limits shared by both serving workloads. Rates form a
// ladder kLadderBase * kLadderStep^k, k in [0, kLadderRungs); the nominal
// rate is one of its rungs.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 110;
constexpr int kNominalRung = 23;  // 3071.5 requests/s
constexpr int kCoarseStride = 8;
constexpr int kBisections = 3;
constexpr double kSloP99Ms = 25.0;  // p99 latency limit
constexpr double kLagFlagUs = 1000.0;
// Tail figures are medians over windows of consecutive requests, each big
// enough for a p99 with 10 samples beyond it.
constexpr std::size_t kWindowRequests = 1000;
constexpr std::size_t kMaxWindows = 8;

double rung_rate(int k) { return kLadderBase * std::pow(kLadderStep, k); }
const double kNominalRps = rung_rate(kNominalRung);

// The eight largest Criteo Kaggle features at 1/50 of their published
// cardinalities (1.8k-203k rows), all Eff-TT, with multi-hot bags of 1..8
// indices.
DatasetSpec serve_spec() {
  DatasetSpec spec = criteo_kaggle_spec().scaled(50);
  std::vector<index_t> rows = spec.table_rows;
  std::sort(rows.rbegin(), rows.rend());
  spec.table_rows.assign(rows.begin(), rows.begin() + 8);
  spec.multi_hot_max = 8;
  return spec;
}

std::unique_ptr<DlrmModel> make_model(const DatasetSpec& spec,
                                      std::uint64_t seed) {
  Prng rng(seed);
  DlrmConfig cfg;
  cfg.num_dense = spec.num_dense;
  cfg.embedding_dim = kDim;
  cfg.bottom_hidden = {256, 64};
  cfg.top_hidden = {256, 128};
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (index_t rows : spec.table_rows) {
    tables.push_back(std::make_unique<EffTTTable>(
        rows, TTShape::balanced(rows, kDim, 3, kRank), rng));
  }
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

// A fresh model of the same shape with the checkpoint's parameters.
std::unique_ptr<DlrmModel> restore_model(const DatasetSpec& spec,
                                         const std::string& path) {
  auto model = make_model(spec, 0x0ddba11ULL);  // overwritten by the load
  load_dlrm_model(*model, path);
  return model;
}

// Benchmark-side timing decorator around IRankingBackend::predict. Each
// worker state owns its sample list; lists are read only between rungs,
// after every response of the rung has been received (the sample is
// recorded before the scheduler fulfils the batch's promises).
class TimedBackend final : public IRankingBackend {
 public:
  explicit TimedBackend(const IRankingBackend& inner) : inner_(inner) {}

  index_t num_tables() const override { return inner_.num_tables(); }
  index_t num_dense() const override { return inner_.num_dense(); }

  std::unique_ptr<State> make_state() const override {
    auto st = std::make_unique<TimedState>();
    st->inner = inner_.make_state();
    std::lock_guard lock(mu_);
    lists_.push_back(std::make_unique<std::vector<double>>());
    st->us = lists_.back().get();
    return st;
  }

  void predict(const MiniBatch& batch, std::vector<float>& probs,
               State& state) const override {
    auto& st = static_cast<TimedState&>(state);
    const auto t0 = Clock::now();
    inner_.predict(batch, probs, *st.inner);
    st.us->push_back(seconds_since(t0) * 1e6);
  }

  /// Every predict() time since the last call, in microseconds.
  Samples take() const {
    Samples out;
    std::lock_guard lock(mu_);
    for (auto& l : lists_) {
      for (double v : *l) out.add(v);
      l->clear();
    }
    return out;
  }

 private:
  struct TimedState : State {
    std::unique_ptr<State> inner;
    std::vector<double>* us = nullptr;
  };
  const IRankingBackend& inner_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<std::vector<double>>> lists_;
};

struct Traffic {
  std::vector<RankingRequest> requests;
  std::vector<float> labels;
  std::vector<double> due_s;  // offsets from the rung's start
};

// Poisson arrivals at `rate` for `duration` seconds; requests are the
// population's samples (Zipf indices, session locality, teacher labels),
// drawn 256 at a time like a stream of user sessions, from a point of the
// stream the seed picks.
Traffic make_traffic(const DatasetSpec& spec, std::uint64_t seed, double rate,
                     double duration) {
  Traffic tr;
  Prng rng(seed);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    tr.due_s.push_back(t);
  }
  SyntheticDataset data(spec, kPopulationSeed);
  data.skip_batches(static_cast<index_t>(rng.uniform_index(64)), 256);
  const std::size_t n = tr.due_s.size();
  tr.requests.reserve(n);
  while (tr.requests.size() < n) {
    const MiniBatch mb = data.next_batch(256);
    for (index_t i = 0; i < mb.batch_size() && tr.requests.size() < n; ++i) {
      RankingRequest req;
      req.dense.assign(mb.dense.row(i), mb.dense.row(i) + spec.num_dense);
      req.sparse.resize(mb.sparse.size());
      for (std::size_t t = 0; t < mb.sparse.size(); ++t) {
        const IndexBatch& ib = mb.sparse[t];
        req.sparse[t].assign(ib.indices.begin() + ib.bag_begin(i),
                             ib.indices.begin() + ib.bag_end(i));
      }
      tr.requests.push_back(std::move(req));
      tr.labels.push_back(mb.labels[static_cast<std::size_t>(i)]);
    }
  }
  return tr;
}

struct RungResult {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  std::size_t backlog_end = 0;  // admitted but unanswered at the last send
  Samples latency_ms;
  Samples lag_us;
  Samples queue_us;
  Samples compute_us;
  Samples backend_us;
  double batches = 0.0;  // micro-batches that answered this rung
  double micro_batch_mean = 0.0;
  double gemm_products_per_req = 0.0;
  double achieved_rps = 0.0;
  std::vector<float> probs;  // per request; NaN when not answered
  std::vector<double> latency_by_request_ms;  // NaN when not answered

  // Median over up to kMaxWindows equal runs of consecutive requests of
  // each run's p99 (an unanswered request counts as missing any limit).
  // A host hiccup spoils one window, not the figure.
  Samples window_p99() const {
    Samples out;
    const std::size_t n = latency_by_request_ms.size();
    const std::size_t w = std::min(kMaxWindows, n / kWindowRequests);
    for (std::size_t k = 0; k < w; ++k) {
      Samples win;
      for (std::size_t i = k * n / w; i < (k + 1) * n / w; ++i) {
        const double lat = latency_by_request_ms[i];
        win.add(std::isnan(lat) ? 1e9 : lat);
      }
      out.add(win.percentile(99.0));
    }
    return out;
  }

  // Meets the limit: windowed p99 within it, no shed or failed request, and
  // no more queued at the last send than the limit's worth of arrivals.
  bool meets_slo() const {
    const Samples p99 = window_p99();
    return shed == 0 && errors == 0 && p99.count() >= 3 &&
           p99.median() <= kSloP99Ms &&
           static_cast<double>(backlog_end) <= rate * kSloP99Ms / 1e3;
  }
};

// Timer wake-ups can land milliseconds late on a virtualized host (tick
// granularity), so the generator sleeps only through long gaps and spins
// through the last stretch. It owns one CPU of the thread budget.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(6);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

RungResult run_rung(RequestScheduler& sched, const TimedBackend& backend,
                    const Traffic& tr, double rate) {
  RungResult res;
  res.rate = rate;
  const std::size_t n = tr.requests.size();
  std::vector<std::future<RankingResponse>> futs(n);
  std::vector<double> send_late_us(n, 0.0);
  std::vector<double> send_at_s(n, 0.0);
  const RequestScheduler::Stats before = sched.stats();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(tr.due_s[i]));
    wait_until(due);
    const auto sent = Clock::now();
    send_late_us[i] = std::chrono::duration<double, std::micro>(sent - due).count();
    send_at_s[i] = std::chrono::duration<double>(sent - start).count();
    res.lag_us.add(send_late_us[i]);
    if (sched.submit(tr.requests[i], futs[i]) != SubmitStatus::kAccepted) {
      ++res.shed;
    }
  }
  {
    // served_ is bumped after a batch's promises are fulfilled, so the
    // previous rung's last batch can land after `before`: clamp at 0.
    const RequestScheduler::Stats now = sched.stats();
    const std::size_t admitted = now.accepted - before.accepted;
    const std::size_t answered = now.served - before.served;
    res.backlog_end = admitted > answered ? admitted - answered : 0;
  }
  res.sent = n;
  res.probs.assign(n, std::nanf(""));
  res.latency_by_request_ms.assign(n, std::nan(""));
  double last_done_s = 0.0;
  double gemm_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!futs[i].valid()) continue;
    try {
      const RankingResponse r = futs[i].get();
      res.probs[i] = r.prob;
      const double lat_ms = (send_late_us[i] + r.queue_us + r.compute_us) / 1e3;
      res.latency_ms.add(lat_ms);
      res.latency_by_request_ms[i] = lat_ms;
      res.queue_us.add(r.queue_us);
      res.compute_us.add(r.compute_us);
      // Each request carries 1/b of its micro-batch of b.
      const double share =
          1.0 / static_cast<double>(std::max<index_t>(1, r.micro_batch));
      res.batches += share;
      gemm_sum += static_cast<double>(r.gemm_products) * share;
      last_done_s = std::max(
          last_done_s, send_at_s[i] + (r.queue_us + r.compute_us) / 1e6);
    } catch (const std::exception&) {
      ++res.errors;
    }
  }
  const double answered = static_cast<double>(res.latency_ms.count());
  if (answered > 0) {
    res.micro_batch_mean = answered / res.batches;
    res.gemm_products_per_req = gemm_sum / answered;
    res.achieved_rps = answered / std::max(1e-9, last_done_s - tr.due_s.front());
  }
  res.backend_us = backend.take();
  return res;
}

// A twentieth of the run, and long enough for three windows even when the
// Poisson count falls short of its mean.
double probe_seconds(double rate, double run_seconds) {
  return std::max(0.05 * run_seconds,
                  3.5 * static_cast<double>(kWindowRequests) / rate);
}

// The serving tier under test: everything between the checkpoint and the
// scheduler, built in set-up.
struct Tier {
  std::unique_ptr<InferenceSession> session;  // serve_local
  std::vector<std::unique_ptr<InferenceSession>> shard_sessions;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<InferenceSession> fallback;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<RequestScheduler> scheduler;

  void shutdown() {
    if (scheduler) scheduler->shutdown();
  }
  /// Tears down front to back: nothing outlives what it references.
  void reset() {
    scheduler.reset();
    backend.reset();
    router.reset();
    fallback.reset();
    servers.clear();
    shard_sessions.clear();
    session.reset();
  }
};

InferenceSessionConfig cached_session() {
  InferenceSessionConfig cfg;
  cfg.cache.capacity = kCacheRows;
  cfg.cache.admit_min_freq = 2;
  return cfg;
}

// RecShard-style hot set per table, measured on the population's stream.
std::vector<std::vector<index_t>> hot_rows(const DatasetSpec& spec) {
  SyntheticDataset stats_data(spec, kPopulationSeed);
  std::vector<std::vector<index_t>> hot;
  for (index_t t = 0; t < spec.num_tables(); ++t) {
    hot.push_back(top_accessed_indices(stats_data, t, kCacheRows,
                                       /*num_draws=*/16384,
                                       /*batch_size=*/1024));
  }
  return hot;
}

// Builds the tier from scratch: model, checkpoint save + restore, cache
// warm-up (and shard placement), scheduler.
Tier build_tier(const DatasetSpec& spec, bool sharded,
                const std::string& ckpt) {
  Tier tier;
  save_dlrm_model(*make_model(spec, kModelSeed), ckpt);
  const auto hot = hot_rows(spec);
  RequestSchedulerConfig scfg;
  scfg.max_batch = kMaxBatch;
  scfg.max_wait_us = 0;
  // Deep enough that an over-capacity probe shows up as latency and
  // backlog, not as shed requests.
  scfg.queue_capacity = 1 << 16;
  if (!sharded) {
    tier.session = std::make_unique<InferenceSession>(
        restore_model(spec, ckpt), cached_session());
    for (index_t t = 0; t < spec.num_tables(); ++t) {
      tier.session->warm_cache(t, hot[static_cast<std::size_t>(t)]);
    }
    tier.backend = std::make_unique<TimedBackend>(*tier.session);
    scfg.num_workers = static_cast<std::size_t>(serve_local_workers());
  } else {
    std::vector<ShardServer*> raw;
    ShardServerConfig svr;
    svr.num_workers = 1;
    for (int s = 0; s < kShards; ++s) {
      tier.shard_sessions.push_back(std::make_unique<InferenceSession>(
          restore_model(spec, ckpt), cached_session()));
      tier.servers.push_back(
          std::make_unique<ShardServer>(s, *tier.shard_sessions.back(), svr));
      raw.push_back(tier.servers.back().get());
    }
    tier.fallback = std::make_unique<InferenceSession>(
        restore_model(spec, ckpt), cached_session());
    ShardRouterConfig rcfg;
    rcfg.replication = kShards;
    // The per-shard gather budget sits above the latency limit: a probe
    // past capacity must show up as latency, not flip shards into degraded
    // mode midway through the climb.
    rcfg.shard_deadline = std::chrono::milliseconds(250);
    tier.router = std::make_unique<ShardRouter>(*tier.fallback, raw, rcfg);
    PlacementConfig pcfg;
    pcfg.replication = kShards;
    const PlacementPlan plan = plan_placement(tier.router->ring(), hot, pcfg);
    for (int s = 0; s < kShards; ++s) {
      for (std::size_t t = 0; t < hot.size(); ++t) {
        tier.shard_sessions[static_cast<std::size_t>(s)]->warm_cache(
            static_cast<index_t>(t),
            plan.warm_rows[static_cast<std::size_t>(s)][t]);
      }
    }
    tier.backend = std::make_unique<TimedBackend>(*tier.router);
    scfg.num_workers = static_cast<std::size_t>(
        serve_local_workers() - kShards * static_cast<int>(svr.num_workers));
  }
  tier.scheduler = std::make_unique<RequestScheduler>(*tier.backend, scfg);
  return tier;
}

ServingCacheStats cache_totals(
    const std::vector<const InferenceSession*>& sessions) {
  ServingCacheStats sum;
  for (const InferenceSession* s : sessions) {
    for (index_t t = 0; t < s->num_tables(); ++t) {
      if (const ServingCache* c = s->cache(t)) {
        const ServingCacheStats st = c->stats_snapshot();
        sum.hits += st.hits;
        sum.misses += st.misses;
      }
    }
  }
  return sum;
}

double hit_ratio(const ServingCacheStats& before,
                 const ServingCacheStats& after) {
  const double h = static_cast<double>(after.hits - before.hits);
  const double m = static_cast<double>(after.misses - before.misses);
  return h + m > 0 ? h / (h + m) : 0.0;
}

// Normalized entropy of the answers: their BCE over the labels' entropy.
double normalized_entropy(const std::vector<float>& probs,
                          const std::vector<float>& labels) {
  double sum = 0.0, positives = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (std::isnan(probs[i])) continue;
    const double p = std::clamp(static_cast<double>(probs[i]), 1e-7, 1 - 1e-7);
    const bool pos = labels[i] > 0.5f;
    sum -= pos ? std::log(p) : std::log(1.0 - p);
    positives += pos ? 1.0 : 0.0;
    ++n;
  }
  if (n == 0) return 0.0;
  const double h = label_entropy(positives / static_cast<double>(n));
  return h > 0 ? sum / static_cast<double>(n) / h : 0.0;
}

// frozen == predict (and, for the sharded tier, sharded == local): a seeded
// sample of served answers against batch-of-1 InferenceSession::predict on
// an uncached session restored from the same checkpoint.
void check_against_reference(Report& report, const DatasetSpec& spec,
                             const std::string& ckpt, const Traffic& tr,
                             const std::vector<float>& probs,
                             std::uint64_t seed, const std::string& name) {
  InferenceSession ref(restore_model(spec, ckpt));
  auto state = ref.make_worker_state();
  Prng pick(seed ^ 0xc4ecULL);
  std::size_t compared = 0, mismatched = 0;
  std::vector<float> out;
  for (std::size_t i = 0; i < tr.requests.size(); ++i) {
    if (pick.uniform() >= 1.0 / 16.0) continue;
    const RankingRequest& req = tr.requests[i];
    MiniBatch mb;
    mb.dense.resize(1, spec.num_dense);
    std::copy(req.dense.begin(), req.dense.end(), mb.dense.row(0));
    for (const auto& bag : req.sparse) {
      IndexBatch ib;
      ib.indices = bag;
      ib.offsets = {0, static_cast<index_t>(bag.size())};
      mb.sparse.push_back(std::move(ib));
    }
    ref.predict(mb, out, *state);
    ++compared;
    if (std::isnan(probs[i]) || float_bits(probs[i]) != float_bits(out[0])) {
      ++mismatched;
    }
  }
  report.check(name, compared > 0 && mismatched == 0,
               std::to_string(compared) + " sampled responses, " +
                   std::to_string(mismatched) + " differ bitwise");
}

struct LadderResult {
  int best = -1;  // highest rung meeting the limit, -1 when none
  double best_achieved_rps = 0.0;
  std::vector<int> bisections;  // rung each bisection settled on
  int probes = 0;
  std::size_t sent = 0, shed = 0, errors = 0;
};

// Highest ladder rung meeting the limit. From the nominal rung's verdict a
// coarse walk strides kCoarseStride rungs to the first change of verdict
// (a coarse rung misses only when two attempts in a row miss, so one host
// hiccup cannot end the walk). The bracket it leaves is then bisected
// kBisections times on fresh traffic and the median rung is reported:
// single probes near the boundary flip with host noise.
LadderResult climb_ladder(Tier& tier, const DatasetSpec& spec,
                          const Args& args, const RungResult& nominal) {
  LadderResult lr;
  std::vector<double> achieved(kLadderRungs, 0.0);  // last passing rate
  std::uint64_t traffic = 0;
  auto note = [&](int k, const RungResult& r, bool ok) {
    const Samples p99 = r.window_p99();
    std::printf("  ladder rung %3d  %9.0f/s  p50 %8.3f ms  windowed p99 %8.3f ms"
                "  lag p99 %8.1f us  batch %5.2f  backlog %5zu  %s\n",
                k, r.rate, r.latency_ms.median(), p99.median(),
                r.lag_us.percentile(99.0), r.micro_batch_mean, r.backlog_end,
                ok ? "meets" : "misses");
    if (ok) achieved[static_cast<std::size_t>(k)] = r.achieved_rps;
  };
  auto attempt = [&](int k) {
    const double rate = rung_rate(k);
    const Traffic tr = make_traffic(spec, args.seed * 1000003ULL + ++traffic,
                                    rate, probe_seconds(rate, args.seconds));
    const RungResult r = run_rung(*tier.scheduler, *tier.backend, tr, rate);
    ++lr.probes;
    lr.sent += r.sent;
    lr.shed += r.shed;
    lr.errors += r.errors;
    const bool ok = r.meets_slo();
    note(k, r, ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ok;
  };
  auto coarse = [&](int k) { return attempt(k) || attempt(k); };

  const bool nominal_ok = nominal.meets_slo();
  note(kNominalRung, nominal, nominal_ok);
  int lo = -1, hi = kLadderRungs;  // lo meets (or -1), hi misses (or top)
  if (nominal_ok) {
    lo = kNominalRung;
    for (int k = lo + kCoarseStride; k < kLadderRungs; k += kCoarseStride) {
      if (!coarse(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
    if (hi == kLadderRungs && lo < kLadderRungs - 1) {
      if (coarse(kLadderRungs - 1)) lo = kLadderRungs - 1;
      else hi = kLadderRungs - 1;
    }
  } else {
    hi = kNominalRung;
    for (int k = hi - kCoarseStride; k >= 0; k -= kCoarseStride) {
      if (coarse(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  for (int b = 0; b < kBisections; ++b) {
    int l = lo, h = hi;
    while (h - l > 1) {
      const int mid = l + (h - l) / 2;
      if (attempt(mid)) {
        l = mid;
      } else {
        h = mid;
      }
    }
    lr.bisections.push_back(l);
  }
  std::vector<int> sorted = lr.bisections;
  std::sort(sorted.begin(), sorted.end());
  lr.best = sorted[sorted.size() / 2];
  if (lr.best >= 0) {
    lr.best_achieved_rps = achieved[static_cast<std::size_t>(lr.best)];
  }
  return lr;
}

// Shard-layer figures of one untraced nominal pass through a sharded tier.
struct ShardFigures {
  double rows_per_call = 0.0;
  double fallback_rows = 0.0;
  double failovers = 0.0;
  double shed = 0.0;
  double cache_hit_ratio = 0.0;
};

// One nominal pass of `tier`, traced into `trace_path` when it is not
// empty. Fills `shard` when the tier is sharded.
RungResult nominal_pass(Tier& tier, const Traffic& traffic,
                        const std::string& trace_path, Report& report,
                        ShardFigures* shard = nullptr) {
  std::vector<const InferenceSession*> shard_sessions;
  for (auto& s : tier.shard_sessions) shard_sessions.push_back(s.get());
  const ServingCacheStats cache_before = cache_totals(shard_sessions);
  const ShardRouter::RouterStats rs_before =
      tier.router ? tier.router->stats() : ShardRouter::RouterStats{};
  const CounterDelta counters({"shard.rows", "shard.calls"});
  if (!trace_path.empty()) {
    obs::clear_trace();
    obs::set_trace_enabled(true);
  }
  RungResult r = run_rung(*tier.scheduler, *tier.backend, traffic, kNominalRps);
  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    report.check("trace_written", obs::write_chrome_trace(trace_path),
                 trace_path);
    flag_dropped_spans(report);
  }
  if (shard != nullptr && tier.router) {
    const ShardRouter::RouterStats rs = tier.router->stats();
    const double calls = counters("shard.calls");
    shard->rows_per_call = calls > 0 ? counters("shard.rows") / calls : 0.0;
    shard->fallback_rows =
        static_cast<double>(rs.fallback_rows - rs_before.fallback_rows);
    shard->failovers = static_cast<double>(rs.failovers - rs_before.failovers);
    shard->shed = static_cast<double>(rs.shed - rs_before.shed);
    shard->cache_hit_ratio =
        hit_ratio(cache_before, cache_totals(shard_sessions));
  }
  return r;
}

void check_drained(Tier& tier, Report& report, const std::string& name) {
  tier.shutdown();
  const auto st = tier.scheduler->stats();
  report.check(name, st.accepted == st.served,
               std::to_string(st.accepted) + " accepted, " +
                   std::to_string(st.served) + " served");
}

}  // namespace

void report_idle_serving_layers(Report& report) {
  for (const char* m : {"serve.e2e_p50_us", "serve.e2e_p99_us",
                        "serve.queue_wait_us_p50", "serve.queue_wait_us_p99",
                        "serve.compute_us_p50", "serve.backend_predict_us_p50",
                        "loadgen.lag_p99_us"}) {
    report.layer(m, 0.0, "us");
  }
  report.layer("serve.micro_batch_mean", 0.0, "count");
  report.layer("serve.gemm_products_per_req", 0.0, "count");
  report.layer("serve.cache_hit_ratio", 0.0, "ratio");
  report.layer("shard.backend_over_local_x", 0.0, "x");
  report.layer("shard.rows_per_call", 0.0, "count");
  report.layer("shard.fallback_rows", 0.0, "count");
  report.layer("shard.failovers", 0.0, "count");
  report.layer("shard.shed", 0.0, "count");
  report.layer("shard.cache_hit_ratio", 0.0, "ratio");
}

void run_serve(const Args& args, bool sharded, Report& report) {
  const DatasetSpec spec = serve_spec();
  const std::string ckpt = args.out_dir + "/serve-" + args.workload + ".ckpt";
  obs::set_trace_enabled(false);

  report.meta("threads.omp", std::to_string(omp_get_max_threads()));
  report.meta("threads.loadgen", "1");
  report.meta("threads.scheduler_workers",
              std::to_string(sharded ? serve_local_workers() - kShards
                                     : serve_local_workers()));
  report.meta("threads.shard_workers", std::to_string(sharded ? kShards : 0));
  report.meta("workload.nominal_rps", fmt(kNominalRps, 0));
  report.meta("workload.slo_p99_ms", fmt(kSloP99Ms, 1));
  report.check("omp_single_thread_per_worker", omp_get_max_threads() == 1,
               "OMP_NUM_THREADS must be 1 so workers do not oversubscribe");

  const int setup_reps = args.trace ? 1 : 3;
  Samples setup_s;
  Tier tier;
  for (int r = 0; r < setup_reps; ++r) {
    tier.reset();
    const auto t0 = Clock::now();
    tier = build_tier(spec, sharded, ckpt);
    setup_s.add(seconds_since(t0));
  }
  auto warm_up = [&](Tier& t) {
    (void)run_rung(*t.scheduler, *t.backend,
                   make_traffic(spec, args.seed ^ 0x3a3aULL, kNominalRps, 0.3),
                   kNominalRps);
  };
  warm_up(tier);

  const Traffic nominal =
      make_traffic(spec, args.seed, kNominalRps, 0.3 * args.seconds);
  std::vector<const InferenceSession*> sessions;
  if (tier.session) sessions.push_back(tier.session.get());
  for (auto& s : tier.shard_sessions) sessions.push_back(s.get());
  const ServingCacheStats cache_before = cache_totals(sessions);
  ShardFigures shard;
  const RungResult nom = nominal_pass(tier, nominal, "", report, &shard);
  const double serve_hit = hit_ratio(cache_before, cache_totals(sessions));
  // Read before the ladder: its probes' request buffers grow with the rate
  // reached and are the benchmark's memory, not the serving tier's.
  const double rss_mb = peak_rss_mb();
  std::uint64_t attempted = nom.sent, failed = nom.shed + nom.errors;

  check_against_reference(report, spec, ckpt, nominal, nom.probs, args.seed,
                          sharded ? "sharded_eq_local_predict"
                                  : "frozen_eq_predict");
  const double lag_p99 = nom.lag_us.percentile(99.0);
  if (lag_p99 > kLagFlagUs) {
    report.flag("load generator fell behind: lag p99 " + fmt(lag_p99, 0) +
                " us");
  }
  // Latency at the nominal rate: printed with every run, gated nowhere (on
  // a shared virtual machine it tracks the host's vCPU preemption).
  const Samples window_p99 = nom.window_p99();
  report.raw("serve_p50_ms", nom.latency_ms.median());
  report.raw("serve_p99_ms", window_p99.median());
  report.raw("loadgen.lag_p99_us", lag_p99);

  if (!args.trace) {
    const LadderResult lr = climb_ladder(tier, spec, args, nom);
    attempted += lr.sent;
    failed += lr.shed + lr.errors;
    check_drained(tier, report, "accepted_eq_served");
    report.count_ops(attempted, failed);
    if (lr.best == kLadderRungs - 1) report.flag("ladder top rung met the limit");
    std::string rungs;
    for (int k : lr.bisections) rungs += (rungs.empty() ? "" : ",") + std::to_string(k);
    report.e2e("throughput_per_s", lr.best_achieved_rps, "1/s",
               "serve_max_rps_at_slo: achieved rate at rung " +
                   std::to_string(lr.best) + " (" +
                   fmt(lr.best >= 0 ? rung_rate(lr.best) : 0.0, 0) +
                   "/s offered; bisections " + rungs + "), " +
                   std::to_string(lr.probes) + " probes");
    report.e2e("loss", normalized_entropy(nom.probs, nominal.labels), "ne",
               "normalized entropy of the nominal-rate answers");
    report.e2e("setup_s", setup_s.median(), "s",
               "median of " + std::to_string(setup_reps) + " set-ups");
    report.e2e("peak_rss_mb", rss_mb, "MB",
               "through set-up and the nominal pass");
    report.raw("failed_frac", attempted > 0 ? static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                            : 0.0);
    std::printf("  nominal %.0f/s: p50 %.3f ms (n=%zu), p99 %.3f ms (median "
                "of %zu windows of >= %zu), generator lag p99 %.0f us\n",
                kNominalRps, nom.latency_ms.median(), nom.latency_ms.count(),
                window_p99.median(), window_p99.count(), kWindowRequests,
                lag_p99);
    return;
  }

  // Traced run. Replay the nominal traffic with tracing on: its answers must
  // equal the untraced ones bitwise.
  obs::set_trace_capacity(1 << 18);
  const CounterDelta counters(kernel_counters());
  const std::string trace_path =
      args.out_dir + "/trace-" + args.workload + ".json";
  const RungResult traced = nominal_pass(tier, nominal, trace_path, report);
  report.meta("trace.path", trace_path);
  attempted += traced.sent;
  failed += traced.shed + traced.errors;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < nom.probs.size(); ++i) {
    if (float_bits(nom.probs[i]) != float_bits(traced.probs[i])) ++differ;
  }
  report.check("traced_eq_untraced", differ == 0,
               std::to_string(nom.probs.size()) + " answers, " +
                   std::to_string(differ) + " differ bitwise");
  check_drained(tier, report, "accepted_eq_served");
  const double samples = static_cast<double>(traced.latency_ms.count());
  report.raw("batches", traced.batches);
  report.raw("samples", samples);
  report_kernel_layers(report, counters, samples);
  report.raw("untraced_headline", nom.latency_ms.median());
  report.raw("traced_headline", traced.latency_ms.median());
  report.raw("headline_higher_is_better", 0.0);

  // The other tier on the same traffic and thread budget: the local tier is
  // the base of shard.backend_over_local_x, and serve_local measures the
  // shard layer through it (traced into its own file for shard.route).
  {
    Tier other = build_tier(spec, !sharded, ckpt);
    warm_up(other);
    ShardFigures other_shard;
    const RungResult o = nominal_pass(other, nominal, "", report, &other_shard);
    attempted += o.sent;
    failed += o.shed + o.errors;
    const double local_p50 = sharded ? o.backend_us.median() : nom.backend_us.median();
    const double router_p50 = sharded ? nom.backend_us.median() : o.backend_us.median();
    if (!sharded) {
      shard = other_shard;
      check_against_reference(report, spec, ckpt, nominal, o.probs, args.seed,
                              "sharded_eq_local_predict");
      const std::string shard_trace = args.out_dir + "/trace-" + args.workload +
                                      "-shard.json";
      const RungResult ot = nominal_pass(other, nominal, shard_trace, report);
      attempted += ot.sent;
      failed += ot.shed + ot.errors;
      report.meta("trace.shard_path", shard_trace);
    }
    check_drained(other, report, "accepted_eq_served_other_tier");
    report.layer("shard.backend_over_local_x", router_p50 / local_p50, "x");
  }
  report.count_ops(attempted, failed);

  report.layer("serve.e2e_p50_us", nom.latency_ms.median() * 1e3, "us");
  report.layer("serve.e2e_p99_us", window_p99.median() * 1e3, "us");
  report.layer("serve.queue_wait_us_p50", nom.queue_us.median(), "us");
  report.layer("serve.queue_wait_us_p99", nom.queue_us.percentile(99.0), "us");
  report.layer("serve.compute_us_p50", nom.compute_us.median(), "us");
  report.layer("serve.micro_batch_mean", nom.micro_batch_mean, "count");
  report.layer("serve.gemm_products_per_req", nom.gemm_products_per_req,
               "count");
  report.layer("serve.cache_hit_ratio", serve_hit, "ratio");
  report.layer("serve.backend_predict_us_p50", nom.backend_us.median(), "us");
  report.layer("loadgen.lag_p99_us", lag_p99, "us");
  report.layer("shard.rows_per_call", shard.rows_per_call, "count");
  report.layer("shard.fallback_rows", shard.fallback_rows, "count");
  report.layer("shard.failovers", shard.failovers, "count");
  report.layer("shard.shed", shard.shed, "count");
  report.layer("shard.cache_hit_ratio", shard.cache_hit_ratio, "ratio");
  report_idle_training_layers(report);
  measure_data_layer(report, spec, 256, args.seed);
  const auto largest = static_cast<index_t>(
      std::max_element(spec.table_rows.begin(), spec.table_rows.end()) -
      spec.table_rows.begin());
  measure_tt_layers(report, spec, largest, kRank, kDim, kMaxBatch, args.seed,
                    hardware_threads());
}

}  // namespace perfbench
