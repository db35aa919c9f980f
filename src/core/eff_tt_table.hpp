// Eff-TT table — the paper's primary contribution (§III).
//
// A Tensor-Train embedding table (3 cores in the paper; any d >= 3 here,
// with the reuse prefix spanning the first two cores) whose
//  * forward pass deduplicates rows within the batch and shares the
//    C1*C2 prefix products through a ReuseBuffer filled by one batched-GEMM
//    launch (Algorithm 1), and
//  * backward pass aggregates embedding gradients per *unique* row before
//    touching TT cores (in-advance gradient aggregation) and applies SGD
//    directly to the touched slices (fused TT-core update).
//
// The backward runs in parallel: unique rows are partitioned into a FIXED
// number of contiguous shards (kGradShards, independent of the thread
// count), each shard accumulates TT-core gradients into private buffers,
// and the shards are merged in shard order — so the updated cores are
// bitwise identical whether the batch ran on 1 thread or N.
//
// Every optimization can be disabled independently through EffTTConfig; the
// ablation benchmarks (Figs. 14/17/18) flip exactly one switch at a time.
// An optional index bijection (§IV) remaps incoming indices before lookup.
//
// Thread-safety contract:
//  * forward() / backward_and_update() are TRAINING entry points. They write
//    the shared reuse buffer, pointer-prep lists, forward cache and stats,
//    so at most one thread may drive them at a time (the pipeline's worker
//    role). They must never run concurrently with each other or with any
//    other member on the same table.
//  * materialize_rows() is the SERVING entry point. It is const, touches
//    only the TT cores / bijection (read-only) and a caller-owned
//    EffTTLookupContext, so any number of threads may call it concurrently
//    on one frozen table — provided each thread passes its own context from
//    make_lookup_context() (the per-worker reuse buffer) and nothing mutates
//    the table meanwhile. Sharing one context between threads is a data
//    race.
#pragma once

#include <span>

#include <optional>

#include "core/pointer_prep.hpp"
#include "core/reuse_buffer.hpp"
#include "embed/embedding_table.hpp"
#include "tensor/optimizer.hpp"
#include "tt/tt_cores.hpp"

namespace elrec {

struct EffTTConfig {
  bool intermediate_reuse = true;      // §III-A two-level result reuse
  bool in_advance_aggregation = true;  // §III-B gradient aggregation
  bool fused_update = true;            // §III-B fused TT-core update
};

/// Per-reader scratch for EffTTTable::materialize_rows(): a private reuse
/// buffer, pointer-prep lists and row staging, so concurrent const readers
/// never touch shared mutable state. Obtain via
/// EffTTTable::make_lookup_context().
class EffTTLookupContext final : public ILookupContext {
 public:
  EffTTLookupContext(index_t num_prefixes, index_t slot_floats)
      : reuse(num_prefixes, slot_floats) {}

 private:
  friend class EffTTTable;
  ReuseBuffer reuse;
  PointerPrepResult prep;
  std::vector<index_t> rows;       // remapped physical rows
  std::vector<float> sa, sb;       // chain_suffix scratch (d > 3)
};

class EffTTTable final : public IEmbeddingTable {
 public:
  EffTTTable(index_t num_rows, TTShape shape, Prng& rng,
             EffTTConfig config = {}, float init_row_std = 0.01f);

  /// Wraps pre-decomposed cores (e.g. from tt_svd).
  EffTTTable(index_t num_rows, TTCores cores, EffTTConfig config = {});

  index_t num_rows() const override { return num_rows_; }
  index_t dim() const override { return cores_.shape().dim(); }

  void forward(const IndexBatch& batch, Matrix& out) override;
  void backward_and_update(const IndexBatch& batch, const Matrix& grad_out,
                           float lr) override;

  /// Allocates the per-reader reuse buffer + scratch for materialize_rows().
  std::unique_ptr<ILookupContext> make_lookup_context() const override;

  /// Frozen row path (see the thread-safety contract above): remaps the
  /// rows, shares C1*C2 prefix products among them and expands each row
  /// into `values`, with forward()'s float operation order — the rows are
  /// bitwise equal to forward()'s for the same cores — but all mutable
  /// state lives in `ctx`, so concurrent readers are safe.
  void materialize_rows(const std::vector<index_t>& rows, Matrix& values,
                        ILookupContext* ctx) const override;

  std::size_t parameter_bytes() const override {
    return cores_.parameter_bytes();
  }
  std::string name() const override { return "EffTTTable"; }

  /// Installs the §IV index bijection (original index -> new index). Must be
  /// a permutation of [0, num_rows). Install before training starts: all
  /// rows are equivalent at random init, so remapping is free.
  void set_index_bijection(std::vector<index_t> mapping);
  bool has_index_bijection() const { return !bijection_.empty(); }

  TTCores& cores() { return cores_; }
  const TTCores& cores() const { return cores_; }
  const EffTTConfig& config() const { return config_; }

  /// Switches the TT-core update rule (default plain SGD). The stateful
  /// Adagrad variant stays fused: its accumulator is updated inside the
  /// same touched-slice pass. Momentum is rejected (not inactive-safe).
  void set_optimizer(OptimizerConfig config);

  void visit_parameters(const ParameterVisitor& visit) override {
    for (int k = 0; k < cores_.shape().num_cores(); ++k) {
      visit(cores_.core(k).data(),
            static_cast<std::size_t>(cores_.core(k).size()));
    }
    forward_cache_valid_ = false;  // callers may mutate through the visitor
  }

  struct Stats {
    index_t total_indices = 0;     // occurrences in the last batch
    index_t unique_rows = 0;       // after dedup
    index_t unique_prefixes = 0;   // reuse-buffer slots used
    std::size_t forward_gemms = 0;
    std::size_t backward_gemms = 0;
  };
  const Stats& last_stats() const { return stats_; }

 private:
  // Applies the bijection (if any) producing the physical row list.
  void remap_rows(const std::vector<index_t>& in, std::vector<index_t>& out) const;

  // Fills prefix products for `rows` into `reuse` via Algorithm 1 + one
  // batched GEMM; `prep` gets per-position slots. Const: all mutable state
  // is the caller's, so the serving path can share this with training.
  void fill_prefix_products(std::span<const index_t> rows, ReuseBuffer& reuse,
                            PointerPrepResult& prep) const;

  // Stage 2: extends each row's prefix product through the remaining cores
  // into dst rows (dst row i <- rows[i]); batched-GEMM fast path for d == 3.
  // Returns the number of per-row GEMMs issued (for stats).
  std::size_t expand_rows_from_prefixes(std::span<const index_t> rows,
                                        const ReuseBuffer& reuse,
                                        const PointerPrepResult& prep,
                                        Matrix& dst, std::vector<float>& sa,
                                        std::vector<float>& sb) const;

  // Training wrappers over the two stages: use the member reuse buffer /
  // prep lists and update stats_.
  void compute_prefix_products(std::span<const index_t> rows);
  void compute_rows_from_prefixes(std::span<const index_t> rows, Matrix& dst);

  // prod_{k >= 2} m_k — the divisor turning a row id into its prefix id.
  index_t suffix_length() const;

  // Chains cores 2..d-1 onto a prefix product; optionally records the
  // intermediate prefixes for the backward pass.
  void chain_suffix(index_t row, const float* p12, float* dst,
                    std::vector<std::vector<float>>* chain,
                    std::vector<float>& sa, std::vector<float>& sb) const;

  // Full-recompute forward used when intermediate_reuse is off.
  void forward_no_reuse(const IndexBatch& batch,
                        const std::vector<index_t>& rows, Matrix& out);

  // One gradient-accumulation domain: core-shaped gradient buffers with
  // epoch-stamped lazy zeroing and per-core touched-slice lists. The master
  // accumulator and every shard are instances of this; shards let the
  // backward run on multiple threads while the fixed shard-merge order keeps
  // the summed gradients bitwise identical at any thread count.
  struct GradAccum {
    std::vector<Matrix> core_grads;
    std::vector<std::vector<std::uint64_t>> stamp;
    std::vector<std::vector<index_t>> touched;
    std::uint64_t epoch = 0;
    std::size_t gemms = 0;  // backward GEMMs issued into this accumulator
  };

  // Reusable scratch for accumulate_row_gradient: hoists the per-row
  // parts/chain/d_prefix heap allocations out of the unique-row loop. One
  // instance per shard (and one for the sequential ablation path).
  struct BackwardScratch {
    std::vector<index_t> parts;
    std::vector<std::vector<float>> chain;
    std::vector<float> d_prefix;
    std::vector<float> d_prev;
    std::vector<float> sa, sb;
    std::vector<float> row_out;
  };

  // Unique rows are split into this fixed number of contiguous shards,
  // independent of the OpenMP thread count, so the reduction tree (and the
  // float sum order) is a function of the batch alone.
  static constexpr int kGradShards = 16;

  // Gradient accumulation into `acc`'s touched-slice buffers for one logical
  // row with embedding gradient g (length dim). `p12` is its prefix product.
  void accumulate_row_gradient(GradAccum& acc, BackwardScratch& scratch,
                               index_t row, const float* p12, const float* g);

  // Zeroes (lazily) and returns the gradient block of slice `ik` of core k.
  float* grad_slice(GradAccum& acc, int k, index_t ik);

  // Allocates core-shaped gradient buffers for one accumulator.
  void init_grad_accum(GradAccum& acc) const;

  // §III-B Step 1, parallel: segment-sums per-occurrence embedding gradients
  // into grad_agg_buf_ (one row per unique index) via a CSR of occurrence
  // positions, each unique row summed in ascending position order.
  void aggregate_unique_gradients(const IndexBatch& batch,
                                  const Matrix& grad_out);

  // Adds every shard's touched slices into grad_master_ in shard order
  // (deterministic), parallel across disjoint output slices.
  void merge_grad_shards();

  void apply_update(float lr);

  index_t num_rows_ = 0;
  EffTTConfig config_;
  TTCores cores_;
  std::vector<index_t> bijection_;

  ReuseBuffer reuse_buffer_;
  PointerPrepResult prep_;

  // Forward state cached for the matching backward call.
  std::vector<index_t> cached_rows_;       // remapped physical rows
  UniqueIndexMap cached_unique_;
  std::vector<index_t> unique_slots_;      // reuse-buffer slot per unique row
  bool forward_cache_valid_ = false;

  // Touched-slice gradient accumulators (allocated like the cores; only
  // slices seen this batch are zeroed/updated). grad_master_ holds the final
  // per-batch gradients consumed by apply_update; grad_shards_ are the
  // per-shard partial accumulators of the parallel backward.
  GradAccum grad_master_;
  std::vector<GradAccum> grad_shards_;
  std::vector<BackwardScratch> shard_scratch_;
  BackwardScratch seq_scratch_;  // ablation (per-occurrence) path

  // CSR of occurrence positions per unique row + pos -> sample map, rebuilt
  // each backward batch for the parallel in-advance aggregation.
  std::vector<index_t> sample_of_pos_;
  std::vector<index_t> occ_offsets_;
  std::vector<index_t> occ_cursor_;
  std::vector<index_t> occ_positions_;

  // Staging buffer used only by the UNFUSED update path to model TT-Rec's
  // extra gradient copy.
  std::vector<Matrix> unfused_staging_;
  std::vector<OptimizerState> core_optimizers_;

  Matrix unique_rows_buf_;   // unique embedding rows (forward)
  Matrix grad_agg_buf_;      // aggregated per-unique-row gradients (backward)

  Stats stats_;
};

}  // namespace elrec
