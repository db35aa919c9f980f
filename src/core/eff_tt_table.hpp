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
// The backward runs in parallel with one owner per core-gradient slice:
// rows are grouped by the slice they select (a stable counting sort), and
// each touched slice is computed by one stacked GEMM over its group, in
// ascending row order — so every slice's float order is a function of the
// batch alone and the updated cores are bitwise identical whether the batch
// ran on 1 thread or N.
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

/// Caller-owned scratch of the generic-d suffix chain (d > 3): two ping-pong
/// partial products and the row's per-core slice indices, grown once and
/// reused for every row.
struct ChainScratch {
  std::vector<float> sa, sb;
  std::vector<index_t> parts;
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
  ChainScratch chain;              // chain_suffix scratch (d > 3)
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

  /// Slices of core k that the last backward_and_update() updated: every
  /// i_k some row of the batch selected, ascending and unique.
  std::span<const index_t> touched_slices(int k) const {
    const auto slot = static_cast<std::size_t>(k);
    if (slot >= groups_.size()) return {};
    return groups_[slot].touched;
  }

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
                                        Matrix& dst,
                                        ChainScratch& scratch) const;

  // Training wrappers over the two stages: use the member reuse buffer /
  // prep lists and update stats_.
  void compute_prefix_products(std::span<const index_t> rows);
  void compute_rows_from_prefixes(std::span<const index_t> rows, Matrix& dst);

  // prod_{k >= 2} m_k — the divisor turning a row id into its prefix id.
  index_t suffix_length() const;

  // Chains cores 2..d-1 onto a prefix product (n1 n2 x R2) into the final
  // embedding row at dst; the scratch is caller-provided.
  void chain_suffix(index_t row, const float* p12, float* dst,
                    ChainScratch& scratch) const;

  // Full-recompute forward used when intermediate_reuse is off.
  void forward_no_reuse(const IndexBatch& batch,
                        const std::vector<index_t>& rows, Matrix& out);

  // Items (unique rows, or occurrences in the ablation) grouped by the
  // slice they select in one core, by a stable counting sort: `touched`
  // lists the selected slices ascending, group t holds
  // members[offsets[t], offsets[t+1]) in ascending item order, and pos maps
  // an item back to its index in `members`.
  struct SliceGroups {
    std::vector<index_t> touched;
    std::vector<index_t> offsets;
    std::vector<index_t> members;
    std::vector<index_t> pos;
    std::vector<index_t> cursor;  // counting-sort scratch, one per slice
  };

  // Fills `g` from keys[item] in [0, slices).
  static void group_by_slice(std::span<const index_t> keys, index_t slices,
                             SliceGroups& g);

  // The chain rule over `rows` (item i has prefix product p12[i] and
  // embedding gradient grads[i]): writes every touched core-gradient slice
  // into core_grads_ and groups_[k].touched, one stacked GEMM per slice.
  // Cores d-1..2 sweep per item; cores 0 and 1 take one product per run of
  // consecutive items that share a (i0, i1) prefix.
  void chain_rule(std::span<const index_t> rows,
                  std::span<const float* const> p12,
                  std::span<const float* const> grads);

  // §III-B Step 1, parallel: segment-sums per-occurrence embedding gradients
  // into grad_agg_buf_ (one row per unique index) via a CSR of occurrence
  // positions, each unique row summed in ascending position order.
  void aggregate_unique_gradients(const IndexBatch& batch,
                                  const Matrix& grad_out);

  // Position -> owning sample (bag) of the flat index list.
  void map_positions_to_samples(const IndexBatch& batch);

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

  // Core-shaped gradient buffers; only the slices in groups_[k].touched
  // hold this batch's gradients (each is overwritten whole by its owner).
  std::vector<Matrix> core_grads_;
  std::vector<SliceGroups> groups_;  // per core: items (k >= 2) or runs

  // chain_rule state, reused across batches (a group's stacked operands
  // live in per-thread scratch). parts_ is core-major
  // (parts_[k * items + i] = i_k of item i); chain_[k] holds A_k of every
  // item in groups_[k] order (d > 3); sweep_out_ alternates between the
  // levels of the backward sweep (dA_{k-1} in groups_[k] order); run_w_
  // holds each prefix run's summed dP12 in groups_[1] order.
  std::vector<index_t> parts_;
  std::vector<index_t> run_begin_, run_i0_, run_i1_;
  std::vector<std::vector<float>> chain_;
  std::vector<float> sweep_out_[2];
  std::vector<float> run_w_;
  std::vector<const float*> p12_ptrs_, grad_ptrs_;
  Matrix occ_p12_;  // ablation: per-occurrence prefix products

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

  ChainScratch chain_scratch_;  // forward's chain_suffix scratch (d > 3)
  Matrix unique_rows_buf_;   // unique embedding rows (forward)
  Matrix grad_agg_buf_;      // aggregated per-unique-row gradients (backward)

  Stats stats_;
};

}  // namespace elrec
