// Micro-batching request scheduler.
//
// Single-user ranking requests arrive one at a time, but the Eff-TT lookup
// and MLP kernels amortize much better over a batch. The scheduler bridges
// the two: submit() enqueues onto a bounded deadline-aware queue, workers
// pop the first waiting request and coalesce followers into a micro-batch
// of up to `max_batch` requests or until `max_wait_us` elapses — whichever
// comes first — then run one frozen forward for the whole batch.
//
// Overload is shed at the door: when the queue is at capacity, submit()
// fails fast with kOverloaded (submit_blocking throws OverloadedError)
// instead of letting latency collapse. Every accepted request is served,
// including queue residue at shutdown — the queue reports closed only once
// drained.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/blocking_queue.hpp"
#include "serve/latency.hpp"
#include "serve/ranking_backend.hpp"

namespace elrec {

/// One user's ranking query: the dense feature vector plus one index bag
/// per embedding table.
struct RankingRequest {
  std::vector<float> dense;
  std::vector<std::vector<index_t>> sparse;
};

struct RankingResponse {
  float prob = 0.0f;         // predicted click probability
  double queue_us = 0.0;     // submit -> micro-batch pickup
  double compute_us = 0.0;   // the micro-batch's forward time (shared)
  index_t micro_batch = 0;   // size of the batch this request rode in
  std::size_t gemm_products = 0;  // batched-GEMM products of that batch
};

/// Structured load-shedding error thrown by submit_blocking().
class OverloadedError : public Error {
 public:
  explicit OverloadedError(const std::string& what) : Error(what) {}
};

enum class SubmitStatus {
  kAccepted,    // queued; the future will deliver a response
  kOverloaded,  // shed — queue at capacity; retry later
  kClosed,      // scheduler shut down
};

struct RequestSchedulerConfig {
  std::size_t num_workers = 4;
  index_t max_batch = 32;          // micro-batch coalescing cap
  std::int64_t max_wait_us = 200;  // coalescing window after first request
  std::size_t queue_capacity = 1024;  // admission bound; beyond -> shed
};

class RequestScheduler {
 public:
  /// The backend (an InferenceSession, a ShardRouter, ...) must outlive the
  /// scheduler. Workers start immediately.
  RequestScheduler(const IRankingBackend& backend,
                   RequestSchedulerConfig config);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Non-blocking admission. On kAccepted, `response` receives the future
  /// that will carry this request's result; otherwise it is untouched.
  /// Throws Error (not Overloaded) on malformed requests.
  SubmitStatus submit(RankingRequest req,
                      std::future<RankingResponse>& response);

  /// submit() + wait. Throws OverloadedError when shed, Error when closed.
  RankingResponse submit_blocking(RankingRequest req);

  /// Stops admission, serves every queued request, joins the workers, then
  /// rethrows the first worker failure (e.g. a throwing make_state()) not
  /// yet reported. Idempotent; also run by the destructor, which swallows
  /// it.
  void shutdown();

  struct Stats {
    std::size_t accepted = 0;
    std::size_t shed = 0;      // rejected at the admission bound
    std::size_t served = 0;    // responses delivered
    std::size_t batches = 0;   // micro-batches executed
    index_t largest_batch = 0;
  };
  Stats stats() const;

  const LatencyRecorder& latency() const { return latency_; }

 private:
  struct Pending {
    RankingRequest req;
    std::promise<RankingResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void serve_batch(std::vector<Pending>& batch, IRankingBackend::State& state,
                   std::vector<float>& probs, MiniBatch& mb);

  const IRankingBackend& backend_;
  RequestSchedulerConfig config_;
  BlockingQueue<Pending> queue_;
  LatencyRecorder latency_;

  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<index_t> largest_batch_{0};
  std::atomic<bool> shut_down_{false};

  // worker_errors_[w] is written only by worker w before it exits and read
  // only after it is joined. Declared last so the workers are joined before
  // the members above die.
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace elrec
