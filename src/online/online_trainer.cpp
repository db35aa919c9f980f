#include "online/online_trainer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injector.hpp"
#include "dlrm/model_checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline_trainer.hpp"

namespace elrec {

OnlineTrainer::OnlineTrainer(std::unique_ptr<DlrmModel> model,
                             DriftingDataset& stream,
                             OnlineTrainerConfig config)
    : model_(std::move(model)),
      stream_(stream),
      config_(std::move(config)),
      access_stats_(stream.spec().table_rows) {
  ELREC_CHECK(model_ != nullptr, "online trainer needs a model");
  ELREC_CHECK(model_->num_tables() == stream_.spec().num_tables(),
              "model/stream table count mismatch");
  ELREC_CHECK(config_.batch_size > 0, "batch size must be positive");
  ELREC_CHECK(!config_.checkpoint_dir.empty(), "checkpoint dir must be set");
}

void OnlineTrainer::train_segment(std::uint64_t k) {
  static obs::Counter& batches =
      obs::MetricsRegistry::global().counter("online.batches");
  // Server thread: draw the batch and feed the stats before any step trains
  // on it — the promoter must see the indices of every batch the parameters
  // were updated on.
  const BatchSource source = [&](index_t, MiniBatch& batch,
                                 std::vector<std::vector<index_t>>&) {
    batch = stream_.next_batch(config_.batch_size);
    access_stats_.observe(batch);
    ++drawn_;
    if (config_.stats_decay_every_n > 0 &&
        drawn_ % config_.stats_decay_every_n == 0) {
      access_stats_.decay();
    }
  };
  // Worker (this thread): every table is on the device, so the step updates
  // the model in place and hands the runtime no host rows.
  const ComputeStep compute = [&](index_t, const MiniBatch& batch,
                                  const std::vector<std::vector<index_t>>&,
                                  const std::vector<Matrix>&,
                                  std::vector<Matrix>&) {
    stats_.last_loss = model_->train_step(batch, config_.lr);
    ++stats_.batches;
    batches.inc();
  };
  const auto start = static_cast<index_t>(stats_.batches);
  PipelineTrainer({}, PipelineConfig{})
      .run(start + static_cast<index_t>(k), source, compute, start);
}

void OnlineTrainer::train_batches(std::uint64_t n) {
  TRACE_SPAN("online.train_batches");
  const std::uint64_t every = config_.checkpoint_every_n;
  while (n > 0) {
    const std::uint64_t k =
        every == 0 ? n : std::min(n, every - stats_.batches % every);
    train_segment(k);
    n -= k;
    if (every > 0 && stats_.batches % every == 0) write_checkpoint();
  }
}

std::string OnlineTrainer::write_checkpoint() {
  TRACE_SPAN("online.checkpoint");
  static obs::Counter& checkpoints =
      obs::MetricsRegistry::global().counter("online.checkpoints");
  std::string path = config_.checkpoint_dir + "/gen_" +
                     std::to_string(stats_.checkpoints) + ".ckpt";

  // Crash drill site: an emit killed here leaves at most a stale tmp file;
  // save_dlrm_model stages + checksums + renames, so the previous
  // checkpoint is untouched either way.
  ELREC_FAULT_POINT("online.checkpoint");
  save_dlrm_model(*model_, path);

  checkpoints.inc();
  ++stats_.checkpoints;
  latest_ckpt_ = path;
  return path;
}

}  // namespace elrec
