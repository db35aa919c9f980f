// EL-Rec end-to-end training system (paper Fig. 9).
//
// Assembles the full design: Eff-TT tables (and small dense tables) live on
// the "device" (worker), oversized tables live in HostEmbeddingStores, and a
// HostTableClient stands in for each of them inside the DLRM. Training runs
// on PipelineTrainer: its server thread loads data and serves the host
// tables through the queues and embedding caches, and its worker runs the
// DLRM forward/backward. This class only supplies the two callbacks — the
// batch source and the DLRM compute step — plus the model parameters that
// checkpoints carry alongside the host stores.
#pragma once

#include <memory>
#include <string>

#include "core/eff_tt_table.hpp"
#include "data/synthetic.hpp"
#include "dlrm/dlrm_model.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_error.hpp"
#include "pipeline/pipeline_trainer.hpp"

namespace elrec {

/// Placement of one embedding table in the EL-Rec hierarchy.
enum class TablePlacement {
  kDeviceDense,  // small table, kept dense on the worker
  kDeviceTT,     // compressed to an Eff-TT table on the worker
  kHost,         // parameter-server resident, pipelined
};

// The runtime settings (queue depth — 1 == EL-Rec (Sequential) of Fig. 16 —
// lr, cache, retry, deadlines, checkpoints, codec) come from PipelineConfig.
struct ElRecTrainerConfig : PipelineConfig {
  DlrmConfig model;
  std::vector<TablePlacement> placement;  // one per table
  index_t tt_rank = 16;
  std::uint64_t seed = 1;
};

/// Chooses placements the way the paper does: tables above `tt_threshold`
/// rows are compressed to Eff-TT; tables above `host_threshold` (when TT is
/// disabled) or explicitly oversized ones go to the host.
std::vector<TablePlacement> default_placement(const DatasetSpec& spec,
                                              index_t tt_threshold,
                                              index_t host_threshold);

/// Host-resident table seen from the worker: forward pools from the rows
/// the pipeline installed; backward writes the aggregated per-row gradients
/// to the installed output (the host applies the update) instead of
/// updating locally.
class HostTableClient final : public IEmbeddingTable {
 public:
  HostTableClient(index_t num_rows, index_t dim)
      : num_rows_(num_rows), dim_(dim) {}

  index_t num_rows() const override { return num_rows_; }
  index_t dim() const override { return dim_; }

  /// Called by the trainer before forward: binds this batch's sorted unique
  /// indices, their synchronized parameter rows, and the gradient output
  /// (resized to one row per index by backward). Nothing is copied, so all
  /// three must outlive the forward/backward pass that follows.
  void install(const std::vector<index_t>& unique, const Matrix& rows,
               Matrix& grads);
  /// Drops the binding; forward/backward then throw until the next install.
  void uninstall() {
    unique_ = nullptr;
    rows_ = nullptr;
    grads_ = nullptr;
  }

  void forward(const IndexBatch& batch, Matrix& out) override;
  void backward_and_update(const IndexBatch& batch, const Matrix& grad_out,
                           float lr) override;

  std::size_t parameter_bytes() const override { return 0; }  // host-owned
  std::string name() const override { return "HostTableClient"; }

  void visit_parameters(const ParameterVisitor&) override {
    // Parameters live in the HostEmbeddingStore; nothing worker-resident.
  }

 private:
  index_t num_rows_;
  index_t dim_;
  const std::vector<index_t>* unique_ = nullptr;
  const Matrix* rows_ = nullptr;
  Matrix* grads_ = nullptr;
  std::vector<index_t> occurrence_;  // per batch position
};

struct ElRecRunStats : PipelineStats {
  double final_loss = 0.0;
  std::vector<float> loss_curve;
};

class ElRecTrainer {
 public:
  ElRecTrainer(ElRecTrainerConfig config, const DatasetSpec& spec);

  /// Trains for `num_batches` batches of `batch_size`, streaming data from
  /// `data`, starting at `start_batch` (pass the value resume() returned,
  /// with `data` fast-forwarded past the already-trained batches, to
  /// continue an interrupted run). Pipelined when queue_capacity > 1,
  /// sequential otherwise. Throws PipelineError on any thread failure,
  /// after the shutdown protocol has quiesced the pipeline.
  ElRecRunStats train(SyntheticDataset& data, index_t num_batches,
                      index_t batch_size, index_t start_batch = 0);

  /// Loads the last durable checkpoint (model parameters + every host
  /// store) into this trainer and returns the batch id to pass to train()
  /// as start_batch. The trainer must be constructed with the same config.
  index_t resume(const std::string& path);

  DlrmModel& model() { return *model_; }
  HostEmbeddingStore& host_store(std::size_t i) { return *host_stores_[i]; }
  std::size_t num_host_tables() const { return host_stores_.size(); }
  std::size_t device_embedding_bytes() const;

 private:
  /// The pipeline runtime over this trainer's host stores, checkpointing
  /// the model parameters alongside them.
  PipelineTrainer runtime();

  ElRecTrainerConfig config_;
  std::vector<std::size_t> host_slot_of_table_;  // table -> host index or npos
  std::vector<HostTableClient*> host_clients_;   // borrowed from model_
  std::vector<std::unique_ptr<HostEmbeddingStore>> host_stores_;
  std::unique_ptr<DlrmModel> model_;
};

}  // namespace elrec
