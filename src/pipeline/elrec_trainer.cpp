#include "pipeline/elrec_trainer.hpp"

#include "embed/embedding_bag.hpp"

namespace elrec {

std::vector<TablePlacement> default_placement(const DatasetSpec& spec,
                                              index_t tt_threshold,
                                              index_t host_threshold) {
  std::vector<TablePlacement> placement;
  placement.reserve(spec.table_rows.size());
  for (index_t rows : spec.table_rows) {
    if (rows >= host_threshold) {
      placement.push_back(TablePlacement::kHost);
    } else if (rows >= tt_threshold) {
      placement.push_back(TablePlacement::kDeviceTT);
    } else {
      placement.push_back(TablePlacement::kDeviceDense);
    }
  }
  return placement;
}

void HostTableClient::install(const std::vector<index_t>& unique,
                              const Matrix& rows, Matrix& grads) {
  ELREC_CHECK(rows.rows() == static_cast<index_t>(unique.size()) &&
                  rows.cols() == dim_,
              "installed rows shape mismatch");
  unique_ = &unique;
  rows_ = &rows;
  grads_ = &grads;
}

void HostTableClient::forward(const IndexBatch& batch, Matrix& out) {
  ELREC_CHECK(rows_ != nullptr, "HostTableClient used before install()");
  batch.validate(num_rows_);
  // Map batch positions onto the installed unique rows.
  const std::vector<index_t>& unique = *unique_;
  occurrence_.resize(batch.indices.size());
  for (std::size_t i = 0; i < batch.indices.size(); ++i) {
    const auto it =
        std::lower_bound(unique.begin(), unique.end(), batch.indices[i]);
    ELREC_CHECK(it != unique.end() && *it == batch.indices[i],
                "batch index missing from installed prefetch rows");
    occurrence_[i] = static_cast<index_t>(it - unique.begin());
  }
  pool_unique_rows(batch, occurrence_, *rows_, out);
}

void HostTableClient::backward_and_update(const IndexBatch& batch,
                                          const Matrix& grad_out,
                                          float /*lr*/) {
  ELREC_CHECK(grads_ != nullptr, "HostTableClient used before install()");
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim_,
              "grad_out shape mismatch");
  Matrix& grads = *grads_;
  grads.resize(static_cast<index_t>(unique_->size()), dim_);
  grads.set_zero();
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* g = grad_out.row(s);
    for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
      float* dst = grads.row(occurrence_[static_cast<std::size_t>(p)]);
      for (index_t j = 0; j < dim_; ++j) dst[j] += g[j];
    }
  }
}

ElRecTrainer::ElRecTrainer(ElRecTrainerConfig config, const DatasetSpec& spec)
    : config_(std::move(config)) {
  ELREC_CHECK(config_.placement.size() == spec.table_rows.size(),
              "one placement per table required");
  Prng rng(config_.seed);

  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  constexpr auto npos = static_cast<std::size_t>(-1);
  host_slot_of_table_.assign(spec.table_rows.size(), npos);
  const index_t dim = config_.model.embedding_dim;

  for (std::size_t t = 0; t < spec.table_rows.size(); ++t) {
    const index_t rows = spec.table_rows[t];
    switch (config_.placement[t]) {
      case TablePlacement::kDeviceDense:
        tables.push_back(std::make_unique<EmbeddingBag>(rows, dim, rng));
        break;
      case TablePlacement::kDeviceTT: {
        const TTShape shape = TTShape::balanced(rows, dim, 3, config_.tt_rank);
        tables.push_back(std::make_unique<EffTTTable>(rows, shape, rng));
        break;
      }
      case TablePlacement::kHost: {
        host_slot_of_table_[t] = host_stores_.size();
        host_stores_.push_back(
            std::make_unique<HostEmbeddingStore>(rows, dim, rng));
        auto client = std::make_unique<HostTableClient>(rows, dim);
        host_clients_.push_back(client.get());
        tables.push_back(std::move(client));
        break;
      }
    }
  }
  model_ = std::make_unique<DlrmModel>(config_.model, std::move(tables), rng);
}

std::size_t ElRecTrainer::device_embedding_bytes() const {
  return model_->embedding_bytes();  // HostTableClient reports 0
}

PipelineTrainer ElRecTrainer::runtime() {
  std::vector<HostEmbeddingStore*> stores;
  for (const auto& store : host_stores_) stores.push_back(store.get());
  return PipelineTrainer(std::move(stores), config_,
                         [this](const ParameterVisitor& visit) {
                           model_->visit_parameters(visit);
                         });
}

index_t ElRecTrainer::resume(const std::string& path) {
  return runtime().resume(path);
}

ElRecRunStats ElRecTrainer::train(SyntheticDataset& data, index_t num_batches,
                                  index_t batch_size, index_t start_batch) {
  ElRecRunStats stats;
  // Server thread: load the batch and list the rows each host table reads.
  const BatchSource source = [&](index_t, MiniBatch& batch,
                                 std::vector<std::vector<index_t>>& unique) {
    batch = data.next_batch(batch_size);
    for (std::size_t t = 0; t < host_slot_of_table_.size(); ++t) {
      const std::size_t h = host_slot_of_table_[t];
      if (h == static_cast<std::size_t>(-1)) continue;
      unique[h] = build_unique_index_map(batch.sparse[t].indices).unique;
    }
  };
  // Worker: DLRM forward/backward. Device tables (dense + Eff-TT) update in
  // place; host clients read the synchronized rows and write the gradients
  // the runtime pushes to the host.
  const ComputeStep compute =
      [&](index_t, const MiniBatch& batch,
          const std::vector<std::vector<index_t>>& unique,
          const std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
        // The bound tensors belong to the runtime; unbind on every exit.
        struct Uninstall {
          const std::vector<HostTableClient*>& clients;
          ~Uninstall() {
            for (HostTableClient* c : clients) c->uninstall();
          }
        } uninstall{host_clients_};
        for (std::size_t h = 0; h < host_clients_.size(); ++h) {
          host_clients_[h]->install(unique[h], rows[h], grads[h]);
        }
        const float loss = model_->train_step(batch, config_.lr);
        stats.loss_curve.push_back(loss);
        stats.final_loss = loss;
      };
  static_cast<PipelineStats&>(stats) =
      runtime().run(num_batches, source, compute, start_batch);
  return stats;
}

}  // namespace elrec
