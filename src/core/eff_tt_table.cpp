#include "core/eff_tt_table.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "tensor/batched_gemm.hpp"
#include "tensor/gemm.hpp"

namespace elrec {
namespace {

TTShape check_cores(TTShape shape) {
  ELREC_CHECK(shape.num_cores() >= 3,
              "EffTTTable's reuse design needs at least 3 cores (the paper's "
              "case is exactly 3); use TTTable for 2-core decompositions");
  return shape;
}

index_t prefix_count(const TTShape& shape) {
  return shape.row_factor(0) * shape.row_factor(1);
}

index_t prefix_floats(const TTShape& shape) {
  return shape.col_factor(0) * shape.col_factor(1) * shape.rank(2);
}

// Reuse-buffer effectiveness across every EffTTTable in the process: a
// "hit" is a row whose C1*C2 prefix product was already claimed by an
// earlier row of the same launch, a "miss" is a slot actually computed.
struct ReuseCounters {
  obs::Counter& hits;
  obs::Counter& misses;
};

ReuseCounters& reuse_counters() {
  auto& reg = obs::MetricsRegistry::global();
  static ReuseCounters c{reg.counter("efftt.reuse.hits"),
                         reg.counter("efftt.reuse.misses")};
  return c;
}

}  // namespace

EffTTTable::EffTTTable(index_t num_rows, TTShape shape, Prng& rng,
                       EffTTConfig config, float init_row_std)
    : num_rows_(num_rows),
      config_(config),
      cores_(check_cores(std::move(shape))),
      reuse_buffer_(prefix_count(cores_.shape()), prefix_floats(cores_.shape())) {
  ELREC_CHECK(num_rows > 0, "table must be non-empty");
  ELREC_CHECK(cores_.shape().padded_rows() >= num_rows,
              "row factorization does not cover num_rows");
  cores_.init_normal(rng, init_row_std);
}

EffTTTable::EffTTTable(index_t num_rows, TTCores cores, EffTTConfig config)
    : num_rows_(num_rows),
      config_(config),
      cores_((check_cores(cores.shape()), std::move(cores))),
      reuse_buffer_(prefix_count(cores_.shape()), prefix_floats(cores_.shape())) {
  ELREC_CHECK(cores_.shape().padded_rows() >= num_rows,
              "row factorization does not cover num_rows");
}

void EffTTTable::set_index_bijection(std::vector<index_t> mapping) {
  ELREC_CHECK(static_cast<index_t>(mapping.size()) == num_rows_,
              "bijection must cover every row");
  std::vector<bool> seen(static_cast<std::size_t>(num_rows_), false);
  for (index_t v : mapping) {
    ELREC_CHECK(v >= 0 && v < num_rows_, "bijection value out of range");
    ELREC_CHECK(!seen[static_cast<std::size_t>(v)], "bijection is not 1:1");
    seen[static_cast<std::size_t>(v)] = true;
  }
  bijection_ = std::move(mapping);
  forward_cache_valid_ = false;
}

void EffTTTable::remap_rows(const std::vector<index_t>& in,
                            std::vector<index_t>& out) const {
  out.resize(in.size());
  if (bijection_.empty()) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = bijection_[static_cast<std::size_t>(in[i])];
  }
}

index_t EffTTTable::suffix_length() const {
  index_t suffix = 1;
  for (int k = 2; k < cores_.shape().num_cores(); ++k) {
    suffix *= cores_.shape().row_factor(k);
  }
  return suffix;
}

void EffTTTable::fill_prefix_products(std::span<const index_t> rows,
                                      ReuseBuffer& reuse,
                                      PointerPrepResult& prep) const {
  TRACE_SPAN("efftt.prefix");
  const TTShape& shape = cores_.shape();
  prepare_prefix_pointers(cores_, rows, reuse, prep);
  reuse_counters().misses.add(static_cast<std::size_t>(prep.unique_prefixes));
  reuse_counters().hits.add(rows.size() -
                            static_cast<std::size_t>(prep.unique_prefixes));
  // One batched-GEMM launch fills every claimed slot:
  //   slot = C1[i1] (n1 x R1) * C2[i2] (R1 x n2 R2).
  BatchedGemmShape g;
  g.m = shape.col_factor(0);
  g.n = shape.col_factor(1) * shape.rank(2);
  g.k = shape.rank(1);
  g.lda = g.k;
  g.ldb = g.n;
  g.ldc = g.n;
  batched_gemm(g, prep.ptr_a, prep.ptr_b, prep.ptr_c);
}

void EffTTTable::compute_prefix_products(std::span<const index_t> rows) {
  fill_prefix_products(rows, reuse_buffer_, prep_);
  stats_.forward_gemms += static_cast<std::size_t>(prep_.unique_prefixes);
}

// Extends a row's prefix product (n1 n2 x R2) through cores 2..d-1 into the
// final embedding row at `dst`. `chain` receives intermediate prefixes
// A_2..A_{d-2} if non-null (needed by the generic backward); scratch vectors
// are caller-provided to avoid per-row allocation.
void EffTTTable::chain_suffix(index_t row, const float* p12, float* dst,
                              std::vector<std::vector<float>>* chain,
                              std::vector<float>& sa,
                              std::vector<float>& sb) const {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  std::vector<index_t> parts(static_cast<std::size_t>(d));
  shape.factorize_row(row, parts);

  index_t p = shape.col_factor(0) * shape.col_factor(1);
  sa.assign(p12, p12 + p * shape.rank(2));
  for (int k = 2; k < d; ++k) {
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.slice_cols(k);  // n_k * R_{k+1}
    float* out = nullptr;
    if (k == d - 1) {
      out = dst;
      gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f, sa.data(), rk,
           cores_.slice(k, parts[static_cast<std::size_t>(k)]), cols, 0.0f,
           out, cols);
    } else {
      sb.assign(static_cast<std::size_t>(p) * cols, 0.0f);
      gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f, sa.data(), rk,
           cores_.slice(k, parts[static_cast<std::size_t>(k)]), cols, 0.0f,
           sb.data(), cols);
      if (chain != nullptr) {
        (*chain)[static_cast<std::size_t>(k)] = sb;
      }
      sa.swap(sb);
    }
    p *= shape.col_factor(k);
  }
}

std::size_t EffTTTable::expand_rows_from_prefixes(
    std::span<const index_t> rows, const ReuseBuffer& reuse,
    const PointerPrepResult& prep, Matrix& dst, std::vector<float>& sa,
    std::vector<float>& sb) const {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  dst.resize(static_cast<index_t>(rows.size()), shape.dim());

  if (d == 3) {
    // Fast path — the paper's case: one more batched launch,
    //   row_i = P12(slot) (n1 n2 x R2) * C3[i3] (R2 x n3).
    const index_t m3 = shape.row_factor(2);
    const index_t n12 = shape.col_factor(0) * shape.col_factor(1);
    const index_t n3 = shape.col_factor(2);
    const index_t r2 = shape.rank(2);
    std::vector<const float*> pa(rows.size());
    std::vector<const float*> pb(rows.size());
    std::vector<float*> pc(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      pa[i] = reuse.slot_data(prep.slot_of[i]);
      pb[i] = cores_.slice(2, rows[i] % m3);
      pc[i] = dst.row(static_cast<index_t>(i));
    }
    BatchedGemmShape g;
    g.m = n12;
    g.n = n3;
    g.k = r2;
    g.lda = r2;
    g.ldb = n3;
    g.ldc = n3;
    batched_gemm(g, pa, pb, pc);
    return rows.size();
  }

  // Generic d: chain the remaining cores per row.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    chain_suffix(rows[i], reuse.slot_data(prep.slot_of[i]),
                 dst.row(static_cast<index_t>(i)), nullptr, sa, sb);
  }
  return rows.size() * static_cast<std::size_t>(d - 2);
}

void EffTTTable::compute_rows_from_prefixes(std::span<const index_t> rows,
                                            Matrix& dst) {
  std::vector<float> sa, sb;
  stats_.forward_gemms +=
      expand_rows_from_prefixes(rows, reuse_buffer_, prep_, dst, sa, sb);
}

void EffTTTable::forward(const IndexBatch& batch, Matrix& out) {
  TRACE_SPAN("efftt.forward");
  batch.validate(num_rows_);
  stats_ = Stats{};
  stats_.total_indices = batch.num_indices();

  remap_rows(batch.indices, cached_rows_);

  if (!config_.intermediate_reuse) {
    out.resize(batch.batch_size(), dim());
    forward_no_reuse(batch, cached_rows_, out);
    forward_cache_valid_ = false;
    return;
  }

  // Two-level reuse: (1) dedup identical rows across the batch,
  // (2) share C1*C2 prefix products among the unique rows.
  {
    TRACE_SPAN("efftt.dedup");
    cached_unique_ = build_unique_index_map(cached_rows_);
  }
  stats_.unique_rows = static_cast<index_t>(cached_unique_.unique.size());

  compute_prefix_products(cached_unique_.unique);
  stats_.unique_prefixes = prep_.unique_prefixes;
  unique_slots_ = prep_.slot_of;

  {
    TRACE_SPAN("efftt.expand");
    compute_rows_from_prefixes(cached_unique_.unique, unique_rows_buf_);
  }

  {
    TRACE_SPAN("efftt.pool");
    pool_unique_rows(batch, cached_unique_.occurrence, unique_rows_buf_, out);
  }
  forward_cache_valid_ = true;
}

std::unique_ptr<ILookupContext> EffTTTable::make_lookup_context() const {
  return std::make_unique<EffTTLookupContext>(prefix_count(cores_.shape()),
                                              prefix_floats(cores_.shape()));
}

void EffTTTable::materialize_rows(const std::vector<index_t>& rows,
                                  Matrix& values, ILookupContext* ctx) const {
  TRACE_SPAN("efftt.lookup");
  auto* ws = dynamic_cast<EffTTLookupContext*>(ctx);
  ELREC_CHECK(ws != nullptr,
              "EffTTTable::materialize_rows needs the context returned by "
              "make_lookup_context() — one per concurrent reader");
  check_rows_in_range(rows, num_rows_);
  remap_rows(rows, ws->rows);
  fill_prefix_products(ws->rows, ws->reuse, ws->prep);
  expand_rows_from_prefixes(ws->rows, ws->reuse, ws->prep, values, ws->sa,
                            ws->sb);
}

void EffTTTable::forward_no_reuse(const IndexBatch& batch,
                                  const std::vector<index_t>& rows,
                                  Matrix& out) {
  // Ablation path: every occurrence recomputes its full chain.
  const TTShape& shape = cores_.shape();
  const index_t m2 = shape.row_factor(1);
  const index_t suffix = suffix_length();
  const index_t n1 = shape.col_factor(0);
  const index_t n2r2 = shape.col_factor(1) * shape.rank(2);
  const index_t n12 = shape.col_factor(0) * shape.col_factor(1);
  const index_t r1 = shape.rank(1);
  const index_t n = dim();

  Matrix occ_rows(static_cast<index_t>(rows.size()), n);
  std::vector<float> p12(static_cast<std::size_t>(n12) * shape.rank(2));
  std::vector<float> sa, sb;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const index_t row = rows[i];
    const index_t prefix = row / suffix;
    gemm(Trans::kNo, Trans::kNo, n1, n2r2, r1, 1.0f,
         cores_.slice(0, prefix / m2), r1, cores_.slice(1, prefix % m2), n2r2,
         0.0f, p12.data(), n2r2);
    chain_suffix(row, p12.data(), occ_rows.row(static_cast<index_t>(i)),
                 nullptr, sa, sb);
    stats_.forward_gemms +=
        static_cast<std::size_t>(shape.num_cores() - 1);
  }
  stats_.unique_rows = static_cast<index_t>(rows.size());
  stats_.unique_prefixes = static_cast<index_t>(rows.size());

  const index_t b = batch.batch_size();
  for (index_t s = 0; s < b; ++s) {
    float* dst = out.row(s);
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      const float* src = occ_rows.row(pos);
#pragma omp simd
      for (index_t j = 0; j < n; ++j) dst[j] += src[j];
    }
  }
}

void EffTTTable::init_grad_accum(GradAccum& acc) const {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  acc.core_grads.resize(static_cast<std::size_t>(d));
  acc.stamp.resize(static_cast<std::size_t>(d));
  acc.touched.resize(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    acc.core_grads[static_cast<std::size_t>(k)].resize(cores_.core(k).rows(),
                                                       cores_.core(k).cols());
    acc.stamp[static_cast<std::size_t>(k)].assign(
        static_cast<std::size_t>(shape.row_factor(k)), 0);
  }
}

float* EffTTTable::grad_slice(GradAccum& acc, int k, index_t ik) {
  auto& stamps = acc.stamp[static_cast<std::size_t>(k)];
  Matrix& g = acc.core_grads[static_cast<std::size_t>(k)];
  const index_t rk = cores_.shape().rank(k);
  float* block = g.row(ik * rk);
  if (stamps[static_cast<std::size_t>(ik)] != acc.epoch) {
    stamps[static_cast<std::size_t>(ik)] = acc.epoch;
    acc.touched[static_cast<std::size_t>(k)].push_back(ik);
    std::fill(block, block + rk * g.cols(), 0.0f);
  }
  return block;
}

void EffTTTable::accumulate_row_gradient(GradAccum& acc,
                                         BackwardScratch& scratch,
                                         index_t row, const float* p12,
                                         const float* g) {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  const index_t n1 = shape.col_factor(0);
  const index_t n2r2 = shape.col_factor(1) * shape.rank(2);
  const index_t r1 = shape.rank(1);

  scratch.parts.resize(static_cast<std::size_t>(d));
  shape.factorize_row(row, scratch.parts);

  // Forward chain prefixes beyond P12 (needed when d > 3): chain[k] holds
  // A_k (P_k x R_{k+1}) for k in [2, d-2]; A_1 == p12.
  if (d > 3) {
    scratch.chain.resize(static_cast<std::size_t>(d));
    scratch.row_out.resize(static_cast<std::size_t>(shape.dim()));
    chain_suffix(row, p12, scratch.row_out.data(), &scratch.chain, scratch.sa,
                 scratch.sb);
  }

  // Backward sweep over cores d-1 .. 2: dA_{k} viewed (P_{k-1} x n_k R_{k+1});
  // dC_k[i_k] += A_{k-1}^T * view; dA_{k-1} = view * C_k[i_k]^T.
  scratch.d_prefix.assign(g, g + shape.dim());
  index_t pk = shape.dim();  // P_k as we sweep down
  for (int k = d - 1; k >= 2; --k) {
    const index_t cols = cores_.slice_cols(k);  // n_k * R_{k+1}
    const index_t rk = shape.rank(k);
    pk /= shape.col_factor(k);  // P_{k-1}
    const float* a_prev =
        k == 2 ? p12 : scratch.chain[static_cast<std::size_t>(k - 1)].data();
    gemm(Trans::kYes, Trans::kNo, rk, cols, pk, 1.0f, a_prev, rk,
         scratch.d_prefix.data(), cols, 1.0f,
         grad_slice(acc, k, scratch.parts[static_cast<std::size_t>(k)]), cols);
    scratch.d_prev.assign(static_cast<std::size_t>(pk) * rk, 0.0f);
    gemm(Trans::kNo, Trans::kYes, pk, rk, cols, 1.0f, scratch.d_prefix.data(),
         cols, cores_.slice(k, scratch.parts[static_cast<std::size_t>(k)]),
         cols, 0.0f, scratch.d_prev.data(), rk);
    scratch.d_prefix.swap(scratch.d_prev);
    acc.gemms += 2;
  }

  // First two cores from W = dP12, viewed (n1 x n2 R2).
  ELREC_DCHECK(static_cast<index_t>(scratch.d_prefix.size()) ==
               n1 * shape.col_factor(1) * shape.rank(2));
  // dC1[i1] += A0^T (R1 x n1) * W-view (n1 x n2 R2); A0 = C0[i0] as n1 x R1.
  gemm(Trans::kYes, Trans::kNo, r1, n2r2, n1, 1.0f,
       cores_.slice(0, scratch.parts[0]), r1, scratch.d_prefix.data(), n2r2,
       1.0f, grad_slice(acc, 1, scratch.parts[1]), n2r2);
  // dC0[i0] += W-view * C1[i1]^T — (n1 x R1), flat == the 1 x (n1 R1) slice.
  gemm(Trans::kNo, Trans::kYes, n1, r1, n2r2, 1.0f, scratch.d_prefix.data(),
       n2r2, cores_.slice(1, scratch.parts[1]), n2r2, 1.0f,
       grad_slice(acc, 0, scratch.parts[0]), r1);
  acc.gemms += 2;
}

void EffTTTable::aggregate_unique_gradients(const IndexBatch& batch,
                                            const Matrix& grad_out) {
  const index_t n = dim();
  const index_t u = static_cast<index_t>(cached_unique_.unique.size());
  const std::size_t total = cached_unique_.occurrence.size();

  // Position -> owning sample (bag) of the flat index list.
  sample_of_pos_.resize(total);
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      sample_of_pos_[static_cast<std::size_t>(pos)] = s;
    }
  }

  // CSR of occurrence positions per unique row; positions stay ascending
  // within a row, so each row's gradient sum has a fixed float order no
  // matter which thread computes it.
  occ_offsets_.assign(static_cast<std::size_t>(u) + 1, 0);
  for (std::size_t pos = 0; pos < total; ++pos) {
    ++occ_offsets_[static_cast<std::size_t>(cached_unique_.occurrence[pos]) + 1];
  }
  for (index_t i = 0; i < u; ++i) {
    occ_offsets_[static_cast<std::size_t>(i) + 1] +=
        occ_offsets_[static_cast<std::size_t>(i)];
  }
  occ_cursor_.assign(occ_offsets_.begin(), occ_offsets_.end() - 1);
  occ_positions_.resize(total);
  for (std::size_t pos = 0; pos < total; ++pos) {
    const auto uid = static_cast<std::size_t>(cached_unique_.occurrence[pos]);
    occ_positions_[static_cast<std::size_t>(occ_cursor_[uid]++)] =
        static_cast<index_t>(pos);
  }

  grad_agg_buf_.resize(u, n);
  parallel_for(index_t{0}, u, u >= 64, [&](index_t i) {
    float* dst = grad_agg_buf_.row(i);
    std::fill(dst, dst + n, 0.0f);
    for (index_t t = occ_offsets_[static_cast<std::size_t>(i)];
         t < occ_offsets_[static_cast<std::size_t>(i) + 1]; ++t) {
      const index_t pos = occ_positions_[static_cast<std::size_t>(t)];
      const float* src =
          grad_out.row(sample_of_pos_[static_cast<std::size_t>(pos)]);
#pragma omp simd
      for (index_t j = 0; j < n; ++j) dst[j] += src[j];
    }
  });
}

void EffTTTable::merge_grad_shards() {
  const int d = cores_.shape().num_cores();
  for (int k = 0; k < d; ++k) {
    // Union of the shards' touched slices, walked in fixed shard order so
    // the master touched list (and every sum below) is thread-count-free.
    for (GradAccum& shard : grad_shards_) {
      for (index_t ik : shard.touched[static_cast<std::size_t>(k)]) {
        grad_slice(grad_master_, k, ik);
      }
    }
    const auto& list = grad_master_.touched[static_cast<std::size_t>(k)];
    const index_t rk = cores_.shape().rank(k);
    const index_t block =
        rk * grad_master_.core_grads[static_cast<std::size_t>(k)].cols();
    parallel_for(std::size_t{0}, list.size(), list.size() >= 16,
                 [&](std::size_t idx) {
      const index_t ik = list[idx];
      float* dst =
          grad_master_.core_grads[static_cast<std::size_t>(k)].row(ik * rk);
      for (const GradAccum& shard : grad_shards_) {
        if (shard.stamp[static_cast<std::size_t>(k)]
                       [static_cast<std::size_t>(ik)] != shard.epoch) {
          continue;
        }
        const float* src =
            shard.core_grads[static_cast<std::size_t>(k)].row(ik * rk);
#pragma omp simd
        for (index_t t = 0; t < block; ++t) dst[t] += src[t];
      }
    });
  }
  for (const GradAccum& shard : grad_shards_) {
    grad_master_.gemms += shard.gemms;
  }
}

void EffTTTable::backward_and_update(const IndexBatch& batch,
                                     const Matrix& grad_out, float lr) {
  TRACE_SPAN("efftt.backward");
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim(),
              "grad_out shape mismatch");
  const TTShape& shape = cores_.shape();

  if (grad_master_.core_grads.empty()) init_grad_accum(grad_master_);
  ++grad_master_.epoch;
  for (auto& t : grad_master_.touched) t.clear();
  grad_master_.gemms = 0;

  remap_rows(batch.indices, cached_rows_);

  if (config_.in_advance_aggregation) {
    // §III-B Step 1: aggregate per-occurrence embedding gradients into one
    // gradient per unique row BEFORE any TT-core work.
    if (!forward_cache_valid_) {
      cached_unique_ = build_unique_index_map(cached_rows_);
      compute_prefix_products(cached_unique_.unique);
      unique_slots_ = prep_.slot_of;
    }
    const index_t u = static_cast<index_t>(cached_unique_.unique.size());
    {
      TRACE_SPAN("efftt.grad_aggregate");
      aggregate_unique_gradients(batch, grad_out);
    }

    // Step 2: chain rule once per unique row, prefix products shared.
    // Unique rows are cut into kGradShards contiguous blocks; each shard
    // accumulates into its own core-gradient buffers (no locks), and
    // merge_grad_shards() folds them into grad_master_ in shard order —
    // the result is bitwise identical at any thread count.
    if (grad_shards_.empty()) {
      grad_shards_.resize(kGradShards);
      shard_scratch_.resize(kGradShards);
      for (GradAccum& shard : grad_shards_) init_grad_accum(shard);
    }
    {
      TRACE_SPAN("efftt.grad_chain");
      // Shards differ in work, so they are handed out dynamically; the gemm
      // calls inside run serially on the shard's thread.
      const auto chain_shard = [&](int s) {
        GradAccum& acc = grad_shards_[static_cast<std::size_t>(s)];
        BackwardScratch& scratch = shard_scratch_[static_cast<std::size_t>(s)];
        ++acc.epoch;
        for (auto& t : acc.touched) t.clear();
        acc.gemms = 0;
        const index_t lo = u * s / kGradShards;
        const index_t hi = u * (s + 1) / kGradShards;
        for (index_t i = lo; i < hi; ++i) {
          accumulate_row_gradient(
              acc, scratch, cached_unique_.unique[static_cast<std::size_t>(i)],
              reuse_buffer_.slot_data(
                  unique_slots_[static_cast<std::size_t>(i)]),
              grad_agg_buf_.row(i));
        }
      };
      if (fork_omp_team(u >= 2 * kGradShards)) {
#pragma omp parallel for schedule(dynamic, 1)
        for (int s = 0; s < kGradShards; ++s) chain_shard(s);
      } else {
        for (int s = 0; s < kGradShards; ++s) chain_shard(s);
      }
    }
    {
      TRACE_SPAN("efftt.grad_merge");
      merge_grad_shards();
    }
  } else {
    // Ablation: per-occurrence gradients (the TT-Rec cost the paper removes).
    const index_t n12 = shape.col_factor(0) * shape.col_factor(1);
    const index_t r2 = shape.rank(2);
    const index_t m2 = shape.row_factor(1);
    const index_t suffix = suffix_length();
    const index_t n1 = shape.col_factor(0);
    const index_t n2r2 = shape.col_factor(1) * shape.rank(2);
    const index_t r1 = shape.rank(1);
    std::vector<float> p12(static_cast<std::size_t>(n12) * r2);
    for (index_t s = 0; s < batch.batch_size(); ++s) {
      const float* g = grad_out.row(s);
      for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
        const index_t row = cached_rows_[static_cast<std::size_t>(pos)];
        const index_t prefix = row / suffix;
        gemm(Trans::kNo, Trans::kNo, n1, n2r2, r1, 1.0f,
             cores_.slice(0, prefix / m2), r1, cores_.slice(1, prefix % m2),
             n2r2, 0.0f, p12.data(), n2r2);
        stats_.backward_gemms += 1;
        accumulate_row_gradient(grad_master_, seq_scratch_, row, p12.data(),
                                g);
      }
    }
  }

  stats_.backward_gemms += grad_master_.gemms;
  {
    TRACE_SPAN("efftt.update");
    apply_update(lr);
  }
  forward_cache_valid_ = false;  // parameters changed; cached P12 is stale
}

void EffTTTable::set_optimizer(OptimizerConfig config) {
  ELREC_CHECK(config.kind != OptimizerKind::kMomentum,
              "momentum is not inactive-safe for sparse embedding updates");
  const int d = cores_.shape().num_cores();
  core_optimizers_.resize(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    core_optimizers_[static_cast<std::size_t>(k)].reset(
        config, static_cast<std::size_t>(cores_.core(k).size()));
  }
}

void EffTTTable::apply_update(float lr) {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  if (core_optimizers_.empty()) set_optimizer(OptimizerConfig{});
  if (config_.fused_update) {
    // Fused path: one pass over the touched slices, the optimizer applied
    // in place — no staging copy, no full-core sweep. Touched slices are
    // disjoint parameter regions, so the pass parallelizes without changing
    // any per-slice float order (prepare() pre-allocates optimizer state,
    // which would otherwise be lazily created under the race).
    for (int k = 0; k < d; ++k) {
      const index_t rk = shape.rank(k);
      const index_t cols = cores_.core(k).cols();
      Matrix& grads = grad_master_.core_grads[static_cast<std::size_t>(k)];
      OptimizerState& opt = core_optimizers_[static_cast<std::size_t>(k)];
      opt.prepare();
      const auto& touched = grad_master_.touched[static_cast<std::size_t>(k)];
      parallel_for(std::size_t{0}, touched.size(), touched.size() >= 64,
                   [&](std::size_t t) {
        const index_t ik = touched[t];
        opt.update_region(cores_.core(k).row(ik * rk), grads.row(ik * rk),
                          static_cast<std::size_t>(ik * rk) * cols,
                          static_cast<std::size_t>(rk * cols), lr);
      });
    }
    return;
  }
  // Unfused path (TT-Rec style): stage a dense copy of the gradients (the
  // "additional data copy" of §III-B), then run a separate optimizer pass
  // over the FULL cores.
  if (unfused_staging_.empty()) {
    unfused_staging_.resize(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k) {
      unfused_staging_[static_cast<std::size_t>(k)].resize(
          cores_.core(k).rows(), cores_.core(k).cols());
    }
  }
  for (int k = 0; k < d; ++k) {
    Matrix& staging = unfused_staging_[static_cast<std::size_t>(k)];
    staging.set_zero();
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.core(k).cols();
    Matrix& grads = grad_master_.core_grads[static_cast<std::size_t>(k)];
    for (index_t ik : grad_master_.touched[static_cast<std::size_t>(k)]) {
      std::copy(grads.row(ik * rk), grads.row(ik * rk) + rk * cols,
                staging.row(ik * rk));
    }
    core_optimizers_[static_cast<std::size_t>(k)].update(
        {cores_.core(k).data(),
         static_cast<std::size_t>(cores_.core(k).size())},
        {staging.data(), static_cast<std::size_t>(staging.size())}, lr);
  }
}

}  // namespace elrec
