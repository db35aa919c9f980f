// Sparse-input batch format shared by every embedding-table implementation.
//
// Matches the (indices, offsets) convention of torch.nn.EmbeddingBag: a batch
// of B "bags", bag b owning indices[offsets[b] .. offsets[b+1]). Pooling is
// always sum, as in DLRM.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace elrec {

struct IndexBatch {
  std::vector<index_t> indices;  // flat index list
  std::vector<index_t> offsets;  // B+1 bag boundaries; offsets[0] == 0

  index_t batch_size() const {
    return static_cast<index_t>(offsets.size()) - 1;
  }
  index_t num_indices() const { return static_cast<index_t>(indices.size()); }

  index_t bag_begin(index_t b) const {
    return offsets[static_cast<std::size_t>(b)];
  }
  index_t bag_end(index_t b) const {
    return offsets[static_cast<std::size_t>(b) + 1];
  }
  index_t bag_size(index_t b) const { return bag_end(b) - bag_begin(b); }

  /// Builds a batch where every bag holds exactly one index (the common DLRM
  /// one-hot categorical-feature case).
  static IndexBatch one_per_sample(std::vector<index_t> indices);

  /// Builds a batch from per-sample index lists.
  static IndexBatch from_bags(const std::vector<std::vector<index_t>>& bags);

  /// Throws if offsets are malformed or any index is outside [0, num_rows).
  void validate(index_t num_rows) const;
};

/// Sorted unique indices of the batch plus, for each occurrence position in
/// `indices`, the rank of its unique value. This is the substrate of the
/// paper's in-advance gradient aggregation (§III-B).
struct UniqueIndexMap {
  std::vector<index_t> unique;       // sorted ascending
  std::vector<index_t> occurrence;   // same length as batch.indices
};

UniqueIndexMap build_unique_index_map(const std::vector<index_t>& indices);

/// Throws if any row is outside [0, num_rows).
void check_rows_in_range(const std::vector<index_t>& rows, index_t num_rows);

/// Sum pooling (paper Step 4) from deduplicated rows: out is resized to
/// (batch_size x unique_rows.cols()) and out.row(s) becomes the sum of
/// unique_rows.row(occurrence[pos]) over bag s. Each bag sums from zero in
/// ascending position order, so the result is independent of the thread
/// count AND of how the batch was composed (a request pooled alone or
/// inside a coalesced micro-batch sums identically). `occurrence` maps each
/// position of batch.indices to its row of `unique_rows`.
void pool_unique_rows(const IndexBatch& batch,
                      const std::vector<index_t>& occurrence,
                      const Matrix& unique_rows, Matrix& out);

}  // namespace elrec
