// Shared drivers for PipelineTrainer tests: host stores built from a seed,
// a batch source over pre-drawn unique-row lists (one list per store per
// batch), analytic compute steps, and the sequential oracle a correct
// pipeline must reproduce.
#pragma once

#include <memory>
#include <vector>

#include "pipeline/pipeline_trainer.hpp"

namespace elrec {
namespace testutil {

// Unique rows read by each batch, for one store.
using BatchList = std::vector<std::vector<index_t>>;

struct StoreShape {
  index_t rows;
  index_t dim;
};

// Stores own a mutex and cannot move, hence the unique_ptrs.
struct Stores {
  std::vector<std::unique_ptr<HostEmbeddingStore>> owned;

  std::vector<HostEmbeddingStore*> ptrs() const {
    std::vector<HostEmbeddingStore*> p;
    for (const auto& s : owned) p.push_back(s.get());
    return p;
  }
  HostEmbeddingStore& operator[](std::size_t s) { return *owned[s]; }
};

// Stores initialized in order from one seeded stream, so equal seeds give
// bitwise-equal stores.
inline Stores make_stores(const std::vector<StoreShape>& shapes,
                          std::uint64_t seed) {
  Prng rng(seed);
  Stores stores;
  for (const StoreShape& shape : shapes) {
    stores.owned.push_back(
        std::make_unique<HostEmbeddingStore>(shape.rows, shape.dim, rng));
  }
  return stores;
}

// Store s reads per_store[s][b] in batch b; the payload stays empty.
inline BatchSource list_source(std::vector<BatchList> per_store) {
  return [per_store = std::move(per_store)](
             index_t b, MiniBatch&,
             std::vector<std::vector<index_t>>& unique) {
    for (std::size_t s = 0; s < unique.size(); ++s) {
      unique[s] = per_store[s][static_cast<std::size_t>(b)];
    }
  };
}

// Runs `trainer` from batch `start` over one store's pre-drawn batches.
inline PipelineStats run_batches(PipelineTrainer& trainer,
                                 const BatchList& batches,
                                 const ComputeStep& compute,
                                 index_t start = 0) {
  return trainer.run(static_cast<index_t>(batches.size()),
                     list_source({batches}), compute, start);
}

// Per-row gradient for store s from the row's current value, its index,
// the batch id, and `coupling` — 0.1x the mean value of the other stores'
// rows in the batch (0 with one store), so a stale row in any store shifts
// every store's update.
using RowGrad = float (*)(float value, index_t index, index_t batch_id,
                          float coupling);

inline ComputeStep row_compute(RowGrad grad) {
  return [grad](index_t batch_id, const MiniBatch&,
                const std::vector<std::vector<index_t>>& unique,
                const std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
    for (std::size_t s = 0; s < rows.size(); ++s) {
      float coupling = 0.0f;
      for (std::size_t o = 0; o < rows.size(); ++o) {
        if (o == s || rows[o].size() == 0) continue;
        float sum = 0.0f;
        for (index_t k = 0; k < rows[o].size(); ++k) {
          sum += rows[o].data()[k];
        }
        coupling += 0.1f * sum / static_cast<float>(rows[o].size());
      }
      grads[s].resize(rows[s].rows(), rows[s].cols());
      for (index_t i = 0; i < rows[s].rows(); ++i) {
        const index_t index = unique[s][static_cast<std::size_t>(i)];
        for (index_t j = 0; j < rows[s].cols(); ++j) {
          grads[s].at(i, j) =
              grad(rows[s].at(i, j), index, batch_id, coupling);
        }
      }
    }
  };
}

// Deterministic "loss": grad(row) = row - target, target fixed per index.
// Sequentially this is an exponential-decay iteration and every batch's
// gradient depends on the CURRENT parameter value, so stale reads change
// the result — exactly the RAW hazard the embedding cache must fix.
inline ComputeStep decay_compute() {
  return row_compute([](float value, index_t index, index_t, float coupling) {
    return value - (static_cast<float>(index) + coupling);
  });
}

// Batches share indices aggressively so consecutive batches conflict.
inline BatchList overlapping_batches(index_t num_batches, index_t table_rows,
                                     std::uint64_t seed) {
  Prng rng(seed);
  BatchList batches;
  for (index_t b = 0; b < num_batches; ++b) {
    std::vector<index_t> unique;
    for (index_t i = 0; i < table_rows; ++i) {
      if (rng.uniform() < 0.5) unique.push_back(i);
    }
    if (unique.empty()) unique.push_back(0);
    batches.push_back(std::move(unique));
  }
  return batches;
}

// The reference semantics: every batch pulls, computes and applies before
// the next one pulls.
inline void run_sequential_oracle(Stores& stores,
                                  const std::vector<BatchList>& per_store,
                                  const ComputeStep& compute, float lr) {
  const std::size_t n = stores.owned.size();
  const MiniBatch payload;
  std::vector<std::vector<index_t>> unique(n);
  std::vector<Matrix> rows(n), grads(n);
  for (std::size_t b = 0; b < per_store[0].size(); ++b) {
    for (std::size_t s = 0; s < n; ++s) {
      unique[s] = per_store[s][b];
      stores[s].pull(unique[s], rows[s]);
    }
    compute(static_cast<index_t>(b), payload, unique, rows, grads);
    for (std::size_t s = 0; s < n; ++s) {
      stores[s].apply_gradients(unique[s], grads[s], lr);
    }
  }
}

}  // namespace testutil
}  // namespace elrec
