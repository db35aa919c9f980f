// The pipelined parameter-server training runtime (§V-A, Fig. 9/10).
//
// A server thread runs the batch source (it doubles as the data loader),
// pre-fetches the rows each upcoming batch reads from N HostEmbeddingStores
// into a bounded Pre-fetch Queue, and drains a Gradient Queue back into the
// stores. The worker (caller thread) consumes prefetched batches,
// synchronizes each store's rows against that store's EmbeddingCache, runs
// the compute step, refreshes the caches with the update the host will
// apply, and pushes the gradients. This is the only training loop in src/:
// ElRecTrainer runs it with a DLRM step, OnlineTrainer runs it with no host
// store at all (the queues then carry only the batch payloads), and the
// tests run it with analytic gradients against a sequential oracle.
//
// Fault tolerance: any thread failure runs the shutdown protocol — both
// queues close, the server is joined, in-flight gradients are drained into
// the stores — and surfaces as a PipelineError naming the stage and batch.
// Transient host-store faults are retried with exponential backoff; an
// optional queue deadline converts a stalled peer into a diagnosed error
// instead of a deadlock. Periodic crash-safe checkpoints are cut by the
// worker at a barrier (every gradient up to the checkpoint batch applied),
// so they hold the worker-owned parameters as well as the stores, and
// resume() continues from the last one.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "codec/grad_codec.hpp"
#include "common/retry.hpp"
#include "embed/minibatch.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_checkpoint.hpp"
#include "pipeline/pipeline_error.hpp"

namespace elrec {

struct PipelineConfig {
  index_t queue_capacity = 4;  // depth of both queues; 1 == sequential mode
  float lr = 0.05f;
  bool use_embedding_cache = true;  // off reproduces the RAW bug (Fig. 10a)

  // Bounded retry + backoff for transient host-store pull/push faults.
  RetryPolicy host_retry;

  // Deadline for each worker wait — both queues and the checkpoint
  // barrier; 0 = wait forever. With a deadline set, a stalled peer (e.g. a
  // wedged server) yields a PipelineError instead of blocking run()
  // indefinitely.
  std::chrono::milliseconds queue_timeout{0};

  // Every n batches the worker writes a crash-safe checkpoint of the
  // worker parameters plus every host store to checkpoint_path (0 = off).
  index_t checkpoint_every_n = 0;
  std::string checkpoint_path;

  // Codec applied to both queue streams (prefetched rows and pushed
  // gradients). The default null codec keeps the run bitwise-identical to
  // an uncompressed pipeline; checkpoints record the codec id and resume()
  // refuses a checkpoint written under a different codec.
  CodecConfig codec;
};

struct PipelineStats {
  index_t batches = 0;
  index_t rows_patched = 0;      // cache sync hits, all stores
  std::size_t cache_peak = 0;    // max entries of any store's cache (LC bound)
  index_t checkpoints_written = 0;
  double wall_seconds = 0.0;
  // Bytes that crossed the queues this run (encoded), and what the same
  // tensors would have cost raw — the bench's bytes-on-queue reduction.
  std::uint64_t encoded_queue_bytes = 0;
  std::uint64_t raw_queue_bytes = 0;
};

/// Server side, called once per batch in batch order: fills the payload
/// handed to the compute step and `unique[s]`, the rows batch `batch_id`
/// reads from store s (`unique` arrives with one empty list per store).
using BatchSource =
    std::function<void(index_t batch_id, MiniBatch& batch,
                       std::vector<std::vector<index_t>>& unique)>;

/// Worker side: given the payload and, per store, the unique rows and their
/// synchronized parameter values, fills `grads[s]` with dL/d(row) for every
/// row of store s.
using ComputeStep = std::function<void(
    index_t batch_id, const MiniBatch& batch,
    const std::vector<std::vector<index_t>>& unique,
    const std::vector<Matrix>& rows, std::vector<Matrix>& grads)>;

class PipelineTrainer {
 public:
  /// `stores` are borrowed and must outlive the trainer. `worker_params`
  /// walks the parameters the compute step owns, so checkpoints hold them.
  PipelineTrainer(std::vector<HostEmbeddingStore*> stores,
                  PipelineConfig config, ParameterWalk worker_params = {});

  /// Runs batches [start_batch, num_batches) (pass the value resume()
  /// returned as start_batch to continue an interrupted run). Blocks until
  /// every gradient has been applied to the stores. Throws PipelineError on
  /// any thread failure, after the shutdown protocol has quiesced the
  /// pipeline.
  PipelineStats run(index_t num_batches, const BatchSource& source,
                    const ComputeStep& compute, index_t start_batch = 0);

  /// Loads the last durable checkpoint into the worker parameters and the
  /// stores and returns the batch id to pass to run() as start_batch.
  /// Replaying from there is bitwise-identical to an uninterrupted run.
  index_t resume(const std::string& path);

 private:
  std::vector<HostEmbeddingStore*> stores_;
  PipelineConfig config_;
  ParameterWalk worker_params_;
};

}  // namespace elrec
