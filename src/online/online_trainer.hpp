// Continuous trainer over a drifting stream, emitting promotable
// checkpoints.
//
// The trainer owns the training-side DlrmModel and consumes a
// DriftingDataset — the non-stationary variant of the Criteo-like
// generator, whose hot set migrates on a seeded schedule. It trains on the
// pipelined runtime (PipelineTrainer) with every table on the device, so no
// host store is involved: the runtime's server thread draws each batch from
// the stream and feeds it to the shared AccessStats (decaying on schedule)
// while the caller's thread runs the DLRM step on an earlier batch. By the
// time a checkpoint is cut the statistics describe the traffic the *next*
// generation will actually see; the ModelPromoter warms from exactly that
// snapshot.
//
// train_batches() runs the runtime in segments that end at each
// `checkpoint_every_n` boundary and cuts the checkpoint between segments,
// so a checkpoint and the stats beside it cover exactly the batches trained
// so far — byte-for-byte what a serial train_step loop would write.
// Checkpoints go through write_checkpoint_atomic (stage + checksum +
// rename), with the fault site `online.checkpoint` on the emit path: a
// crash mid-emit loses at most the tmp file — the previous checkpoint stays
// loadable and bitwise-intact (tests/test_model_checkpoint.cpp drills
// this).
//
// Single caller, like ElRecTrainer: train, emit and promote from one
// thread (examples/online_demo.cpp runs that loop while clients keep the
// serving tier loaded).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/drift.hpp"
#include "data/stats.hpp"
#include "dlrm/dlrm_model.hpp"

namespace elrec {

struct OnlineTrainerConfig {
  float lr = 0.05f;
  index_t batch_size = 128;
  /// Batches between checkpoint emits. 0 disables automatic emits;
  /// write_checkpoint() still works.
  std::uint64_t checkpoint_every_n = 50;
  /// Directory receiving gen_<k>.ckpt files. Must exist.
  std::string checkpoint_dir = ".";
  /// Halve the access counts every N batches so the stats track the current
  /// distribution instead of the whole history. 0 = never decay.
  std::uint64_t stats_decay_every_n = 0;
};

struct OnlineTrainerStats {
  std::uint64_t batches = 0;
  std::uint64_t checkpoints = 0;  // successful emits
  float last_loss = 0.0f;
};

class OnlineTrainer {
 public:
  /// `stream` must outlive the trainer. The model is trained in place.
  OnlineTrainer(std::unique_ptr<DlrmModel> model, DriftingDataset& stream,
                OnlineTrainerConfig config);

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// Trains `n` batches on the pipelined runtime, feeding the access stats
  /// and cutting checkpoints on schedule. A failed step throws
  /// PipelineError naming the batch; the batches before it stay trained,
  /// and the ones the server had already drawn are skipped. Emit failures
  /// propagate as thrown by write_checkpoint().
  void train_batches(std::uint64_t n);

  /// Cuts a checkpoint of the current parameters: gen_<seq>.ckpt staged,
  /// checksummed and atomically renamed. Returns the durable path. Throws
  /// on emit failure (fault site `online.checkpoint`), in which case no
  /// file changes — the previous checkpoint remains the latest.
  std::string write_checkpoint();

  /// Path of the most recent durable checkpoint ("" before the first).
  const std::string& latest_checkpoint() const { return latest_ckpt_; }

  const OnlineTrainerStats& stats() const { return stats_; }

  /// Live traffic statistics fed by every drawn batch; the promoter warms
  /// new generations from this.
  const AccessStats& access_stats() const { return access_stats_; }

  DlrmModel& model() { return *model_; }

 private:
  /// Runs `k` batches through the runtime: one segment, no emit inside.
  void train_segment(std::uint64_t k);

  std::unique_ptr<DlrmModel> model_;
  DriftingDataset& stream_;
  OnlineTrainerConfig config_;
  AccessStats access_stats_;
  OnlineTrainerStats stats_;
  std::uint64_t drawn_ = 0;  // batches fed to the stats; drives decay
  std::string latest_ckpt_;
};

}  // namespace elrec
