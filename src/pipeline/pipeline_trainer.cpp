#include "pipeline/pipeline_trainer.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "common/blocking_queue.hpp"
#include "common/fault_injector.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/embedding_cache.hpp"

namespace elrec {

namespace {

// Both queues carry encoded blobs, not raw matrices: every byte crossing a
// queue goes through the configured codec. Under the (default) null codec
// the blob is a raw fp32 payload, so the decoded tensors — and hence the
// whole run — are bitwise-identical to an uncompressed pipeline.
struct PrefetchedBatch {
  index_t batch_id = 0;
  MiniBatch batch;
  std::vector<std::vector<index_t>> unique;  // per store
  std::vector<EncodedBlob> rows;             // per store, row per index
};

struct GradientPush {
  index_t batch_id = 0;
  std::vector<std::vector<index_t>> indices;  // per store
  std::vector<EncodedBlob> grads;             // per store, row per index
};

// Bytes-on-queue accounting for the three host-facing streams. These are
// the numbers the simulator's framework cost model and bench_codec consume.
struct PipelineByteCounters {
  obs::Counter& grad_push;  // worker -> gradient queue (encoded)
  obs::Counter& host_push;  // gradient queue -> host store (encoded)
  obs::Counter& host_pull;  // host store -> prefetch queue (encoded)
};

PipelineByteCounters& pipeline_byte_counters() {
  auto& reg = obs::MetricsRegistry::global();
  static PipelineByteCounters c{reg.counter("pipeline.bytes.grad_push"),
                                reg.counter("pipeline.bytes.host_push"),
                                reg.counter("pipeline.bytes.host_pull")};
  return c;
}

std::string describe_exception(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

PipelineTrainer::PipelineTrainer(std::vector<HostEmbeddingStore*> stores,
                                 PipelineConfig config,
                                 ParameterWalk worker_params)
    : stores_(std::move(stores)),
      config_(std::move(config)),
      worker_params_(std::move(worker_params)) {
  ELREC_CHECK(config_.queue_capacity >= 1, "queue capacity must be >= 1");
  ELREC_CHECK(config_.checkpoint_every_n == 0 ||
                  !config_.checkpoint_path.empty(),
              "checkpoint_every_n requires a checkpoint_path");
}

index_t PipelineTrainer::resume(const std::string& path) {
  return load_pipeline_checkpoint(path, config_.codec.id, worker_params_,
                                  stores_);
}

PipelineStats PipelineTrainer::run(index_t num_batches,
                                   const BatchSource& source,
                                   const ComputeStep& compute,
                                   index_t start_batch) {
  ELREC_CHECK(start_batch >= 0 && start_batch <= num_batches,
              "start_batch out of range");
  PipelineStats stats;
  const std::size_t num_stores = stores_.size();
  const auto capacity = static_cast<std::size_t>(config_.queue_capacity);
  BlockingQueue<PrefetchedBatch> prefetch_queue(capacity);
  BlockingQueue<GradientPush> gradient_queue(capacity);

  // Highest batch id whose gradients the server has applied; drives cache
  // eviction (the host is authoritative once it absorbed a write) and the
  // checkpoint barrier.
  std::atomic<index_t> applied_batch_id{-1};

  // Set by the server before it closes the queues on failure; the queue
  // mutex orders the write against the worker observing the close.
  struct ThreadFailure {
    std::exception_ptr error;
    index_t batch_id = -1;
  };
  ThreadFailure server_failure;

  // Queue traffic accounting, merged into stats after the threads join.
  std::atomic<std::uint64_t> encoded_bytes{0};
  std::atomic<std::uint64_t> raw_bytes{0};
  auto count_stream = [&](obs::Counter& counter, const EncodedBlob& blob,
                          std::uint64_t raw) {
    counter.add(blob.size());
    encoded_bytes.fetch_add(blob.size(), std::memory_order_relaxed);
    raw_bytes.fetch_add(raw, std::memory_order_relaxed);
  };

  Stopwatch wall;

  // ---- Server thread: data loading + parameter service (Fig. 9, CPU) --
  std::thread server([&] {
    index_t current_batch = -1;
    try {
      index_t prefetched = start_batch;
      index_t applied = start_batch;
      // One codec instance per store's pull stream (encode is stateful;
      // each table's parameter scale adapts its own bound). Pushed gradient
      // blobs decode via the stateless free function.
      std::vector<std::unique_ptr<IGradCodec>> pull_codecs;
      for (std::size_t s = 0; s < num_stores; ++s) {
        pull_codecs.push_back(make_codec(config_.codec));
      }
      Matrix pulled;
      Matrix decoded_grads;

      auto apply = [&](GradientPush& push) {
        current_batch = push.batch_id;
        TRACE_SPAN("elrec.host_push");
        for (std::size_t s = 0; s < num_stores; ++s) {
          count_stream(pipeline_byte_counters().host_push, push.grads[s],
                       push.indices[s].size() *
                           static_cast<std::uint64_t>(stores_[s]->dim()) *
                           sizeof(float));
          decode_blob(push.grads[s], decoded_grads);
          with_retry(config_.host_retry, "host-store push", [&] {
            stores_[s]->apply_gradients(push.indices[s], decoded_grads,
                                        config_.lr);
          });
        }
        applied_batch_id.store(push.batch_id, std::memory_order_release);
        ++applied;
      };

      while (applied < num_batches) {
        ELREC_FAULT_POINT("pipeline.server_tick");
        // Drain any pushed gradients first: this is what keeps host rows as
        // fresh as possible before the next pull.
        while (auto push = gradient_queue.try_pop()) apply(*push);
        if (prefetched < num_batches) {
          current_batch = prefetched;
          PrefetchedBatch pb;
          pb.batch_id = prefetched;
          {
            TRACE_SPAN("elrec.host_pull");
            pb.unique.resize(num_stores);
            source(pb.batch_id, pb.batch, pb.unique);
            ELREC_CHECK(pb.unique.size() == num_stores,
                        "batch source must list rows for every host store");
            pb.rows.resize(num_stores);
            for (std::size_t s = 0; s < num_stores; ++s) {
              with_retry(config_.host_retry, "host-store pull",
                         [&] { stores_[s]->pull(pb.unique[s], pulled); });
              pull_codecs[s]->encode(pulled, pb.rows[s]);
              count_stream(
                  pipeline_byte_counters().host_pull, pb.rows[s],
                  static_cast<std::uint64_t>(pulled.size()) * sizeof(float));
            }
          }
          ++prefetched;
          // Bounded push with gradient drains in between: a worker stalled
          // at its checkpoint barrier (waiting for gradients to be applied)
          // must not deadlock against a full prefetch queue.
          for (;;) {
            const QueueOpStatus st =
                prefetch_queue.try_push_for(pb, std::chrono::milliseconds(5));
            if (st == QueueOpStatus::kClosed) return;
            if (st == QueueOpStatus::kOk) break;
            while (auto push = gradient_queue.try_pop()) apply(*push);
          }
        } else if (applied < num_batches) {
          // All batches prefetched; block on the remaining gradients.
          auto push = gradient_queue.pop();
          if (!push) return;
          apply(*push);
        }
      }
      prefetch_queue.close();
    } catch (...) {
      server_failure.error = std::current_exception();
      server_failure.batch_id = current_batch;
      // Closing both queues unwedges a worker blocked on either side.
      prefetch_queue.close();
      gradient_queue.close();
    }
  });

  // Shutdown protocol: close both queues, join the server, then drain any
  // in-flight gradients into the stores (FIFO order) so every successfully
  // computed batch is durable. Safe to call on every exit path.
  auto quiesce = [&] {
    prefetch_queue.close();
    gradient_queue.close();
    if (server.joinable()) server.join();
    Matrix drained;
    while (auto push = gradient_queue.try_pop()) {
      try {
        for (std::size_t s = 0; s < num_stores; ++s) {
          decode_blob(push->grads[s], drained);
          with_retry(config_.host_retry, "host-store push (drain)", [&] {
            stores_[s]->apply_gradients(push->indices[s], drained,
                                        config_.lr);
          });
        }
      } catch (...) {
        break;  // store unusable; the remaining gradients are lost anyway
      }
    }
  };

  // Rethrows a recorded failure as a structured PipelineError (after the
  // pipeline has been quiesced).
  auto raise = [&](const char* stage, index_t batch_id,
                   const std::exception_ptr& cause) {
    quiesce();
    if (server_failure.error && cause != server_failure.error) {
      // Prefer the root cause: a worker unblocked by a dying server should
      // report the server's failure, not its own closed-queue symptom.
      throw PipelineError("server", server_failure.batch_id,
                          describe_exception(server_failure.error));
    }
    throw PipelineError(stage, batch_id, describe_exception(cause));
  };

  // Blocks until the server has absorbed every gradient up to and including
  // `b` — the quiescent point a consistent checkpoint needs (the worker is
  // the only gradient producer, so nothing new arrives while it waits).
  // Bounded by queue_timeout like the worker's queue waits.
  auto wait_until_applied = [&](index_t b) {
    const auto start = std::chrono::steady_clock::now();
    while (applied_batch_id.load(std::memory_order_acquire) < b) {
      ELREC_CHECK(!gradient_queue.closed(), "server died before checkpoint");
      ELREC_CHECK(config_.queue_timeout.count() == 0 ||
                      std::chrono::steady_clock::now() - start <
                          config_.queue_timeout,
                  "timed out waiting for gradient absorption at checkpoint "
                  "— server stalled?");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  // ---- Worker (caller thread; paper Fig. 9, GPU side) -----------------
  // Per store: the RAW-repair cache and the codec instance of the
  // grad_push stream.
  std::vector<EmbeddingCache> caches;
  std::vector<std::unique_ptr<IGradCodec>> grad_codecs;
  caches.reserve(num_stores);
  for (const HostEmbeddingStore* store : stores_) {
    caches.emplace_back(store->dim(), config_.queue_capacity + 1,
                        config_.codec);
    grad_codecs.push_back(make_codec(config_.codec));
  }
  const bool lossless = config_.codec.lossless();
  std::vector<Matrix> rows(num_stores);
  std::vector<Matrix> grads(num_stores);
  Matrix grads_seen_by_host;
  Matrix updated;

  for (index_t b = start_batch; b < num_batches; ++b) {
    PrefetchedBatch pb;
    TRACE_SPAN("elrec.batch");
    {
      TRACE_SPAN("elrec.prefetch_wait");
      if (config_.queue_timeout.count() > 0) {
        const QueueOpStatus st =
            prefetch_queue.try_pop_for(pb, config_.queue_timeout);
        if (st == QueueOpStatus::kTimeout) {
          raise("worker", b,
                std::make_exception_ptr(Error(
                    "timed out waiting for a prefetched batch — server "
                    "stalled?")));
        }
        if (st == QueueOpStatus::kClosed) {
          raise("worker", b,
                std::make_exception_ptr(Error("prefetch queue closed early")));
        }
      } else {
        auto popped = prefetch_queue.pop();
        if (!popped) {
          raise("worker", b,
                std::make_exception_ptr(Error("prefetch queue closed early")));
        }
        pb = std::move(*popped);
      }
    }

    GradientPush push;
    try {
      // Step 1 (Fig. 9): decode the prefetched rows and synchronize them
      // against the caches.
      {
        TRACE_SPAN("elrec.cache_sync");
        for (std::size_t s = 0; s < num_stores; ++s) {
          decode_blob(pb.rows[s], rows[s]);
          if (config_.use_embedding_cache) {
            stats.rows_patched += caches[s].sync(pb.unique[s], rows[s]);
          }
        }
      }

      {
        TRACE_SPAN("elrec.compute");
        ELREC_FAULT_POINT("elrec.compute");
        compute(pb.batch_id, pb.batch, pb.unique, rows, grads);
      }

      // Step 3: encode the gradients for the queue and refresh the caches
      // with the update the HOST will apply (Fig. 10b). Under a lossy codec
      // that is the decoded gradients — otherwise the cached rows would
      // drift from the host store by the (unsent) quantization residual
      // every batch.
      TRACE_SPAN("elrec.cache_update");
      push.batch_id = pb.batch_id;
      push.grads.resize(num_stores);
      for (std::size_t s = 0; s < num_stores; ++s) {
        ELREC_CHECK(
            grads[s].rows() == static_cast<index_t>(pb.unique[s].size()) &&
                grads[s].cols() == stores_[s]->dim(),
            "compute step produced wrong gradient shape");
        grad_codecs[s]->encode(grads[s], push.grads[s]);
        count_stream(pipeline_byte_counters().grad_push, push.grads[s],
                     static_cast<std::uint64_t>(grads[s].size()) *
                         sizeof(float));
        if (config_.use_embedding_cache) {
          const Matrix* host_grads = &grads[s];
          if (!lossless) {
            decode_blob(push.grads[s], grads_seen_by_host);
            host_grads = &grads_seen_by_host;
          }
          updated.resize(rows[s].rows(), rows[s].cols());
          for (index_t i = 0; i < updated.rows(); ++i) {
            const float* r = rows[s].row(i);
            const float* g = host_grads->row(i);
            float* u = updated.row(i);
            for (index_t j = 0; j < updated.cols(); ++j) {
              u[j] = r[j] - config_.lr * g[j];
            }
          }
          caches[s].insert(pb.unique[s], updated, pb.batch_id);
          caches[s].retire_batch(
              applied_batch_id.load(std::memory_order_acquire));
        }
      }
      push.indices = std::move(pb.unique);
    } catch (...) {
      raise("worker", pb.batch_id, std::current_exception());
    }

    {
      TRACE_SPAN("elrec.grad_push");
      if (config_.queue_timeout.count() > 0) {
        const QueueOpStatus st =
            gradient_queue.try_push_for(push, config_.queue_timeout);
        if (st == QueueOpStatus::kTimeout) {
          raise("worker", pb.batch_id,
                std::make_exception_ptr(
                    Error("timed out pushing gradients — server stalled?")));
        }
        if (st == QueueOpStatus::kClosed) {
          raise("worker", pb.batch_id,
                std::make_exception_ptr(Error("gradient queue closed early")));
        }
      } else if (!gradient_queue.push(std::move(push))) {
        raise("worker", pb.batch_id,
              std::make_exception_ptr(Error("gradient queue closed early")));
      }
    }
    ++stats.batches;

    if (config_.checkpoint_every_n > 0 &&
        (b + 1) % config_.checkpoint_every_n == 0) {
      try {
        TRACE_SPAN("elrec.checkpoint");
        wait_until_applied(b);
        save_pipeline_checkpoint(config_.checkpoint_path, b + 1,
                                 config_.codec.id, worker_params_, stores_);
        ++stats.checkpoints_written;
      } catch (...) {
        raise("checkpoint", b, std::current_exception());
      }
    }
  }
  server.join();
  if (server_failure.error) {
    raise("server", server_failure.batch_id, server_failure.error);
  }

  for (const EmbeddingCache& cache : caches) {
    stats.cache_peak = std::max(stats.cache_peak, cache.peak_size());
  }
  stats.wall_seconds = wall.seconds();
  stats.encoded_queue_bytes = encoded_bytes.load(std::memory_order_relaxed);
  stats.raw_queue_bytes = raw_bytes.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace elrec
