// Abstract embedding-table interface.
//
// This is the "drop-in replacement" seam the paper describes: DLRM is built
// against IEmbeddingTable, and any of {dense EmbeddingBag, TT-Rec-style
// TTTable, EL-Rec EffTTTable} plugs in without touching model code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "embed/index_batch.hpp"
#include "tensor/matrix.hpp"

namespace elrec {

/// Callback over a table's float parameter buffers (used by data-parallel
/// parameter averaging and checkpointing).
using ParameterVisitor = std::function<void(float*, std::size_t)>;

/// Opaque per-reader scratch for the const materialize_rows() path.
/// Implementations that need working memory (e.g. the Eff-TT reuse buffer)
/// subclass this; each concurrent reader owns exactly one context and never
/// shares it.
class ILookupContext {
 public:
  virtual ~ILookupContext() = default;
};

class IEmbeddingTable {
 public:
  virtual ~IEmbeddingTable() = default;

  /// Number of logical rows (vocabulary size).
  virtual index_t num_rows() const = 0;

  /// Embedding dimension.
  virtual index_t dim() const = 0;

  /// Sum-pooled lookup: out is resized to (batch_size x dim).
  virtual void forward(const IndexBatch& batch, Matrix& out) = 0;

  /// Allocates the per-reader scratch consumed by materialize_rows().
  /// Returns nullptr when the implementation needs none (the context is
  /// still accepted).
  virtual std::unique_ptr<ILookupContext> make_lookup_context() const {
    return nullptr;
  }

  /// Frozen read-only row materialization — the serving path. values is
  /// resized to (rows.size() x dim) and values.row(i) receives the unpooled
  /// embedding of rows[i]; rows may come in any order and repeat. Unlike
  /// forward() it mutates nothing on the table, so any number of threads may
  /// call it concurrently on the same table as long as each passes its own
  /// context from make_lookup_context(). Each row is bitwise-identical to the
  /// one forward() pools for the same parameters; deduplication and sum
  /// pooling are the caller's (DlrmModel::predict_frozen). Throws on a row
  /// outside [0, num_rows). Implementations that cannot offer a const path
  /// keep this default, which throws.
  virtual void materialize_rows(const std::vector<index_t>& rows,
                                Matrix& values, ILookupContext* ctx) const {
    (void)rows;
    (void)values;
    (void)ctx;
    throw Error(name() +
                " does not support the frozen materialize_rows() path");
  }

  /// Applies gradients for the most recent forward. grad_out is
  /// (batch_size x dim); the table updates its parameters with plain SGD at
  /// learning rate `lr` (the paper fuses the optimizer into the backward
  /// kernel, so the interface does too).
  virtual void backward_and_update(const IndexBatch& batch,
                                   const Matrix& grad_out, float lr) = 0;

  /// Bytes of trainable parameters (the Table III footprint metric).
  virtual std::size_t parameter_bytes() const = 0;

  /// Invokes `visit` on every float parameter buffer, in a deterministic
  /// order. Implementations whose parameters are not plain floats (e.g.
  /// quantized tables) may throw.
  virtual void visit_parameters(const ParameterVisitor& visit) = 0;

  /// Human-readable implementation name for reports.
  virtual std::string name() const = 0;
};

}  // namespace elrec
