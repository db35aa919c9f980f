#include "serve/request_scheduler.hpp"

#include <cstring>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/batched_gemm.hpp"

namespace elrec {

namespace {
using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
}  // namespace

RequestScheduler::RequestScheduler(const IRankingBackend& backend,
                                   RequestSchedulerConfig config)
    : backend_(backend), config_(config), queue_(config.queue_capacity) {
  ELREC_CHECK(config_.num_workers > 0, "need at least one worker");
  ELREC_CHECK(config_.max_batch > 0, "micro-batch cap must be positive");
  ELREC_CHECK(config_.max_wait_us >= 0, "coalescing window must be >= 0");
  worker_errors_.resize(config_.num_workers);
  workers_.reserve(config_.num_workers);
  try {
    for (std::size_t w = 0; w < config_.num_workers; ++w) {
      workers_.emplace_back([this, w] {
        try {
          worker_loop();
        } catch (...) {
          worker_errors_[w] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // A thread failed to start: the destructor will not run, so stop and
    // join the ones already serving before the members they use die.
    queue_.close();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

RequestScheduler::~RequestScheduler() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw. A failed forward already reached its
    // requests as promise exceptions; a worker that died outside a forward
    // (say, in make_state()) is reported only by an explicit shutdown().
  }
}

SubmitStatus RequestScheduler::submit(RankingRequest req,
                                      std::future<RankingResponse>& response) {
  ELREC_CHECK(static_cast<index_t>(req.dense.size()) == backend_.num_dense(),
              "request dense width must match the model");
  ELREC_CHECK(static_cast<index_t>(req.sparse.size()) ==
                  backend_.num_tables(),
              "request must carry one index bag per embedding table");
  if (shut_down_.load(std::memory_order_acquire)) return SubmitStatus::kClosed;

  Pending p;
  p.req = std::move(req);
  p.enqueued = Clock::now();
  std::future<RankingResponse> fut = p.promise.get_future();
  // Zero timeout == non-blocking probe: a full queue means we are past the
  // admission bound, so shed instead of waiting.
  switch (queue_.try_push_for(p, std::chrono::microseconds(0))) {
    case QueueOpStatus::kOk:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      response = std::move(fut);
      return SubmitStatus::kAccepted;
    case QueueOpStatus::kTimeout:
      shed_.fetch_add(1, std::memory_order_relaxed);
      return SubmitStatus::kOverloaded;
    case QueueOpStatus::kClosed:
      return SubmitStatus::kClosed;
  }
  return SubmitStatus::kClosed;  // unreachable
}

RankingResponse RequestScheduler::submit_blocking(RankingRequest req) {
  std::future<RankingResponse> fut;
  switch (submit(std::move(req), fut)) {
    case SubmitStatus::kAccepted:
      return fut.get();
    case SubmitStatus::kOverloaded:
      throw OverloadedError(
          "serving queue at capacity (" + std::to_string(queue_.capacity()) +
          " requests) — load shed");
    case SubmitStatus::kClosed:
      break;
  }
  throw Error("request scheduler is shut down");
}

void RequestScheduler::worker_loop() {
  auto state = backend_.make_state();
  std::vector<Pending> batch;
  std::vector<float> probs;
  MiniBatch mb;
  mb.sparse.resize(static_cast<std::size_t>(backend_.num_tables()));

  for (;;) {
    auto first = queue_.pop();
    if (!first) return;  // closed and drained
    batch.clear();
    batch.push_back(std::move(*first));

    {
      TRACE_SPAN("serve.coalesce");
      // Coalesce: wait out the window for followers, up to the batch cap.
      const auto deadline =
          Clock::now() + std::chrono::microseconds(config_.max_wait_us);
      while (static_cast<index_t>(batch.size()) < config_.max_batch) {
        const auto now = Clock::now();
        if (now >= deadline) {
          auto extra = queue_.try_pop();
          if (!extra) break;
          batch.push_back(std::move(*extra));
          continue;
        }
        Pending next;
        const auto status = queue_.try_pop_for(
            next, std::chrono::duration<double, std::micro>(
                      micros_between(now, deadline)));
        if (status != QueueOpStatus::kOk) break;  // window over or closing
        batch.push_back(std::move(next));
      }
    }
    serve_batch(batch, *state, probs, mb);
  }
}

void RequestScheduler::serve_batch(std::vector<Pending>& batch,
                                   IRankingBackend::State& state,
                                   std::vector<float>& probs, MiniBatch& mb) {
  TRACE_SPAN("serve.compute");
  // Per-scheduler latency_ keeps exact per-instance counts; these registry
  // histograms aggregate across every scheduler for the metrics snapshot.
  static obs::Histogram& g_queue_us =
      obs::MetricsRegistry::global().histogram("serve.queue_us");
  static obs::Histogram& g_compute_us =
      obs::MetricsRegistry::global().histogram("serve.compute_us");
  const auto compute_start = Clock::now();
  const auto b = static_cast<index_t>(batch.size());
  const index_t num_dense = backend_.num_dense();

  mb.dense.resize(b, num_dense);
  for (index_t i = 0; i < b; ++i) {
    std::memcpy(mb.dense.row(i), batch[static_cast<std::size_t>(i)].req.dense.data(),
                sizeof(float) * static_cast<std::size_t>(num_dense));
  }
  for (std::size_t t = 0; t < mb.sparse.size(); ++t) {
    IndexBatch& ib = mb.sparse[t];
    ib.indices.clear();
    ib.offsets.assign(1, 0);
    for (index_t i = 0; i < b; ++i) {
      const auto& bag = batch[static_cast<std::size_t>(i)].req.sparse[t];
      ib.indices.insert(ib.indices.end(), bag.begin(), bag.end());
      ib.offsets.push_back(static_cast<index_t>(ib.indices.size()));
    }
  }
  mb.labels.clear();

  try {
    const ScopedBatchedGemmCounters gemm_scope;
    backend_.predict(mb, probs, state);
    const auto compute_end = Clock::now();
    const double compute_us = micros_between(compute_start, compute_end);
    const std::size_t products = gemm_scope.delta().products;

    for (index_t i = 0; i < b; ++i) {
      Pending& p = batch[static_cast<std::size_t>(i)];
      RankingResponse r;
      r.prob = probs[static_cast<std::size_t>(i)];
      r.queue_us = micros_between(p.enqueued, compute_start);
      r.compute_us = compute_us;
      r.micro_batch = b;
      r.gemm_products = products;
      latency_.record(r.queue_us, r.compute_us);
      g_queue_us.record(r.queue_us);
      g_compute_us.record(r.compute_us);
      p.promise.set_value(r);
    }
    served_.fetch_add(static_cast<std::size_t>(b),
                      std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    index_t prev = largest_batch_.load(std::memory_order_relaxed);
    while (prev < b && !largest_batch_.compare_exchange_weak(
                           prev, b, std::memory_order_relaxed)) {
    }
  } catch (...) {
    // A failed forward fails every request in the micro-batch; the worker
    // itself keeps serving.
    for (auto& p : batch) {
      p.promise.set_exception(std::current_exception());
    }
  }
}

void RequestScheduler::shutdown() {
  shut_down_.store(true, std::memory_order_release);
  queue_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (std::exception_ptr& error : worker_errors_) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

RequestScheduler::Stats RequestScheduler::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.largest_batch = largest_batch_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace elrec
