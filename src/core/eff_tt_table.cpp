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

// Below this many chain-rule items the backward stays on the calling thread.
constexpr index_t kMinParallelItems = 64;

constexpr std::size_t at(index_t i) { return static_cast<std::size_t>(i); }

// Per-thread stacking buffer of the backward: grows to the largest group the
// thread has stacked and is reused by every later group (of any table).
float* group_scratch(index_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < at(floats)) buf.resize(at(floats));
  return buf.data();
}

void add_into(const float* src, index_t n, float* dst) {
#pragma omp simd
  for (index_t t = 0; t < n; ++t) dst[t] += src[t];
}

// Runs body(slice, lo, cnt) once per group of `g` (a SliceGroups): the group
// selecting `slice` covers g.members[lo, lo + cnt). Groups write disjoint
// slices, so spreading them over a team changes no float order.
template <typename Groups, typename Body>
void for_each_group(const Groups& g, bool parallel, Body&& body) {
  parallel_for(std::size_t{0}, g.touched.size(),
               parallel && g.touched.size() > 1, [&](std::size_t t) {
    const index_t lo = g.offsets[t];
    body(g.touched[t], lo, g.offsets[t + 1] - lo);
  });
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
// final embedding row at `dst`; the scratch is caller-provided so rows
// allocate nothing once it has grown.
void EffTTTable::chain_suffix(index_t row, const float* p12, float* dst,
                              ChainScratch& scratch) const {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  std::vector<float>& sa = scratch.sa;
  std::vector<float>& sb = scratch.sb;
  scratch.parts.resize(static_cast<std::size_t>(d));
  shape.factorize_row(row, scratch.parts);

  index_t p = shape.col_factor(0) * shape.col_factor(1);
  sa.assign(p12, p12 + p * shape.rank(2));
  for (int k = 2; k < d; ++k) {
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.slice_cols(k);  // n_k * R_{k+1}
    const float* slice =
        cores_.slice(k, scratch.parts[static_cast<std::size_t>(k)]);
    if (k == d - 1) {
      gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f, sa.data(), rk, slice,
           cols, 0.0f, dst, cols);
    } else {
      sb.resize(static_cast<std::size_t>(p) * cols);
      gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f, sa.data(), rk, slice,
           cols, 0.0f, sb.data(), cols);
      sa.swap(sb);
    }
    p *= shape.col_factor(k);
  }
}

std::size_t EffTTTable::expand_rows_from_prefixes(
    std::span<const index_t> rows, const ReuseBuffer& reuse,
    const PointerPrepResult& prep, Matrix& dst,
    ChainScratch& scratch) const {
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
                 dst.row(static_cast<index_t>(i)), scratch);
  }
  return rows.size() * static_cast<std::size_t>(d - 2);
}

void EffTTTable::compute_rows_from_prefixes(std::span<const index_t> rows,
                                            Matrix& dst) {
  stats_.forward_gemms += expand_rows_from_prefixes(rows, reuse_buffer_, prep_,
                                                    dst, chain_scratch_);
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
  expand_rows_from_prefixes(ws->rows, ws->reuse, ws->prep, values,
                            ws->chain);
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
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const index_t row = rows[i];
    const index_t prefix = row / suffix;
    gemm(Trans::kNo, Trans::kNo, n1, n2r2, r1, 1.0f,
         cores_.slice(0, prefix / m2), r1, cores_.slice(1, prefix % m2), n2r2,
         0.0f, p12.data(), n2r2);
    chain_suffix(row, p12.data(), occ_rows.row(static_cast<index_t>(i)),
                 chain_scratch_);
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

void EffTTTable::group_by_slice(std::span<const index_t> keys, index_t slices,
                                SliceGroups& g) {
  g.cursor.assign(at(slices), 0);
  for (index_t key : keys) ++g.cursor[at(key)];
  g.touched.clear();
  g.offsets.assign(1, 0);
  for (index_t s = 0; s < slices; ++s) {
    index_t& c = g.cursor[at(s)];
    if (c == 0) continue;
    const index_t lo = g.offsets.back();
    g.touched.push_back(s);
    g.offsets.push_back(lo + c);
    c = lo;  // from here on: slice s's next free member index
  }
  g.members.resize(keys.size());
  g.pos.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const index_t p = g.cursor[at(keys[i])]++;
    g.members[at(p)] = static_cast<index_t>(i);
    g.pos[i] = p;
  }
}

void EffTTTable::chain_rule(std::span<const index_t> rows,
                            std::span<const float* const> p12,
                            std::span<const float* const> grads) {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  const auto u = static_cast<index_t>(rows.size());
  const bool parallel = u >= kMinParallelItems;
  std::size_t gemms = 0;

  if (core_grads_.empty()) {
    core_grads_.resize(at(d));
    for (int k = 0; k < d; ++k) {
      core_grads_[at(k)].resize(cores_.core(k).rows(), cores_.core(k).cols());
    }
  }
  groups_.resize(at(d));
  chain_.resize(at(d));

  // i_k of every item, core-major so each core's keys are one span.
  parts_.resize(at(d * u));
  parallel_for(index_t{0}, u, parallel, [&](index_t i) {
    index_t row = rows[at(i)];
    for (int k = d - 1; k >= 0; --k) {
      parts_[at(k * u + i)] = row % shape.row_factor(k);
      row /= shape.row_factor(k);
    }
  });
  const auto keys = [&](int k) {
    return std::span<const index_t>(parts_).subspan(at(k * u), at(u));
  };

  // pk[k] = n_0 ... n_k, the rows of A_k (pk[k] x R_{k+1}): the product of
  // cores 0..k. A_1 is the prefix product, A_k for k >= 2 sits in chain_[k]
  // in groups_[k] order.
  std::vector<index_t> pk(at(d));
  pk[0] = shape.col_factor(0);
  for (int k = 1; k < d; ++k) pk[at(k)] = pk[at(k - 1)] * shape.col_factor(k);
  const auto a_of = [&](int k, index_t i) -> const float* {
    if (k == 1) return p12[at(i)];
    return chain_[at(k)].data() +
           groups_[at(k)].pos[at(i)] * pk[at(k)] * shape.rank(k + 1);
  };

  // d > 3: A_2 .. A_{d-2} of every item, one NN per touched i_k over the
  // group's stacked A_{k-1}.
  for (int k = 2; k <= d - 2; ++k) {
    SliceGroups& g = groups_[at(k)];
    group_by_slice(keys(k), shape.row_factor(k), g);
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.slice_cols(k);
    const index_t a_floats = pk[at(k - 1)] * rk;
    chain_[at(k)].resize(at(u * pk[at(k - 1)] * cols));
    for_each_group(g, parallel, [&](index_t ik, index_t lo, index_t cnt) {
      float* as = group_scratch(cnt * a_floats);
      for (index_t j = 0; j < cnt; ++j) {
        std::copy_n(a_of(k - 1, g.members[at(lo + j)]), a_floats,
                    as + j * a_floats);
      }
      gemm(Trans::kNo, Trans::kNo, cnt * pk[at(k - 1)], cols, rk, 1.0f, as,
           rk, cores_.slice(k, ik), cols, 0.0f,
           chain_[at(k)].data() + lo * pk[at(k - 1)] * cols, cols);
    });
    gemms += g.touched.size();
  }

  // Backward sweep over cores d-1 .. 2. Level k stacks each group's A_{k-1}
  // (P x R_k, P = pk[k-1]) and dA_k (P x n_k R_{k+1}) in item order. One TN
  // gives the slice gradient as the full-tile transpose
  // dC_k[i_k]^T = dA^T A (n_k R_{k+1} x R_k), and one NN over the packed
  // C_k[i_k]^T gives every member's dA_{k-1} = dA C_k[i_k]^T, in groups_[k]
  // order in sweep_out_ — the next level's dA input.
  int out = 0;
  for (int k = d - 1; k >= 2; --k) {
    SliceGroups& g = groups_[at(k)];
    if (k == d - 1) group_by_slice(keys(k), shape.row_factor(k), g);
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.slice_cols(k);
    const index_t p = pk[at(k - 1)];
    const index_t a_floats = p * rk;
    const index_t d_floats = p * cols;
    const index_t tile = cols * rk;
    const std::vector<float>& d_in = sweep_out_[1 - out];
    const auto d_of = [&](index_t i) -> const float* {
      if (k == d - 1) return grads[at(i)];
      return d_in.data() + groups_[at(k + 1)].pos[at(i)] * d_floats;
    };
    std::vector<float>& d_out = sweep_out_[out];
    d_out.resize(at(u * a_floats));
    for_each_group(g, parallel, [&](index_t ik, index_t lo, index_t cnt) {
      float* as = group_scratch(cnt * (a_floats + d_floats) + 2 * tile);
      float* ds = as + cnt * a_floats;
      for (index_t j = 0; j < cnt; ++j) {
        const index_t i = g.members[at(lo + j)];
        std::copy_n(a_of(k - 1, i), a_floats, as + j * a_floats);
        std::copy_n(d_of(i), d_floats, ds + j * d_floats);
      }
      float* grad_t = ds + cnt * d_floats;  // dC_k[i_k]^T
      float* core_t = grad_t + tile;        // C_k[i_k]^T
      gemm(Trans::kYes, Trans::kNo, cols, rk, cnt * p, 1.0f, ds, cols, as, rk,
           0.0f, grad_t, rk);
      float* grad = core_grads_[at(k)].row(ik * rk);
      const float* core = cores_.slice(k, ik);
      for (index_t r = 0; r < rk; ++r) {
        for (index_t c = 0; c < cols; ++c) {
          grad[r * cols + c] = grad_t[c * rk + r];
          core_t[c * rk + r] = core[r * cols + c];
        }
      }
      gemm(Trans::kNo, Trans::kNo, cnt * p, rk, cols, 1.0f, ds, cols, core_t,
           rk, 0.0f, d_out.data() + lo * a_floats, rk);
    });
    gemms += 2 * g.touched.size();
    out = 1 - out;
  }
  const std::vector<float>& dp12 = sweep_out_[1 - out];  // dA_1, groups_[2]
  const SliceGroups& g2 = groups_[2];

  // Runs of consecutive items sharing an (i0, i1) prefix; sorted unique rows
  // give exactly one run per unique prefix.
  const index_t suffix = suffix_length();
  run_begin_.clear();
  run_i0_.clear();
  run_i1_.clear();
  for (index_t i = 0; i < u; ++i) {
    if (i > 0 && rows[at(i)] / suffix == rows[at(i - 1)] / suffix) continue;
    run_begin_.push_back(i);
    run_i0_.push_back(parts_[at(i)]);
    run_i1_.push_back(parts_[at(u + i)]);
  }
  const auto runs = static_cast<index_t>(run_i0_.size());
  run_begin_.push_back(u);

  // Core 1: per touched i1, each member run's W = sum of its items' dP12
  // (n1 x n2 R2, in item order) and its C0[i0] (n1 x R1) are stacked, and
  // one TN gives dC1[i1] = C0-stack^T W-stack.
  const index_t n1 = shape.col_factor(0);
  const index_t r1 = shape.rank(1);
  const index_t n2r2 = cores_.slice_cols(1);
  const index_t w_floats = n1 * n2r2;
  SliceGroups& g1 = groups_[1];
  group_by_slice(run_i1_, shape.row_factor(1), g1);
  run_w_.resize(at(runs * w_floats));
  for_each_group(g1, parallel, [&](index_t i1, index_t lo, index_t cnt) {
    float* c0_stack = group_scratch(cnt * n1 * r1);
    for (index_t j = 0; j < cnt; ++j) {
      const index_t q = g1.members[at(lo + j)];
      const index_t first = run_begin_[at(q)];
      float* w = run_w_.data() + (lo + j) * w_floats;
      std::copy_n(dp12.data() + g2.pos[at(first)] * w_floats, w_floats, w);
      for (index_t i = first + 1; i < run_begin_[at(q + 1)]; ++i) {
        add_into(dp12.data() + g2.pos[at(i)] * w_floats, w_floats, w);
      }
      std::copy_n(cores_.slice(0, run_i0_[at(q)]), n1 * r1,
                  c0_stack + j * n1 * r1);
    }
    gemm(Trans::kYes, Trans::kNo, r1, n2r2, cnt * n1, 1.0f, c0_stack, r1,
         run_w_.data() + lo * w_floats, n2r2, 0.0f,
         core_grads_[1].row(i1 * r1), n2r2);
  });

  // Core 0: per touched i0, the member runs' W (n1 x n2 R2) and C1[i1]
  // (R1 x n2 R2) are laid side by side along k, and one NT gives
  // dC0[i0] (n1 x R1) = W-cat C1-cat^T.
  SliceGroups& g0 = groups_[0];
  group_by_slice(run_i0_, shape.row_factor(0), g0);
  for_each_group(g0, parallel, [&](index_t i0, index_t lo, index_t cnt) {
    const index_t kk = cnt * n2r2;
    float* w_cat = group_scratch(kk * (n1 + r1));
    float* c_cat = w_cat + n1 * kk;
    for (index_t j = 0; j < cnt; ++j) {
      const index_t q = g0.members[at(lo + j)];
      const float* w = run_w_.data() + g1.pos[at(q)] * w_floats;
      const float* c1 = cores_.slice(1, run_i1_[at(q)]);
      for (index_t r = 0; r < n1; ++r) {
        std::copy_n(w + r * n2r2, n2r2, w_cat + r * kk + j * n2r2);
      }
      for (index_t r = 0; r < r1; ++r) {
        std::copy_n(c1 + r * n2r2, n2r2, c_cat + r * kk + j * n2r2);
      }
    }
    gemm(Trans::kNo, Trans::kYes, n1, r1, kk, 1.0f, w_cat, kk, c_cat, kk, 0.0f,
         core_grads_[0].row(i0 * shape.rank(0)), r1);
  });
  gemms += g1.touched.size() + g0.touched.size();
  stats_.backward_gemms += gemms;
}

void EffTTTable::map_positions_to_samples(const IndexBatch& batch) {
  sample_of_pos_.resize(batch.indices.size());
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      sample_of_pos_[at(pos)] = s;
    }
  }
}

void EffTTTable::aggregate_unique_gradients(const IndexBatch& batch,
                                            const Matrix& grad_out) {
  const index_t n = dim();
  const index_t u = static_cast<index_t>(cached_unique_.unique.size());
  const std::size_t total = cached_unique_.occurrence.size();
  map_positions_to_samples(batch);

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

void EffTTTable::backward_and_update(const IndexBatch& batch,
                                     const Matrix& grad_out, float lr) {
  TRACE_SPAN("efftt.backward");
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim(),
              "grad_out shape mismatch");
  const TTShape& shape = cores_.shape();

  remap_rows(batch.indices, cached_rows_);

  if (config_.in_advance_aggregation) {
    // §III-B Step 1: aggregate per-occurrence embedding gradients into one
    // gradient per unique row BEFORE any TT-core work.
    if (!forward_cache_valid_) {
      cached_unique_ = build_unique_index_map(cached_rows_);
      compute_prefix_products(cached_unique_.unique);
      unique_slots_ = prep_.slot_of;
    }
    const std::size_t u = cached_unique_.unique.size();
    {
      TRACE_SPAN("efftt.grad_aggregate");
      aggregate_unique_gradients(batch, grad_out);
    }
    // Step 2: chain rule once per unique row, prefix products shared.
    p12_ptrs_.resize(u);
    grad_ptrs_.resize(u);
    for (std::size_t i = 0; i < u; ++i) {
      p12_ptrs_[i] = reuse_buffer_.slot_data(unique_slots_[i]);
      grad_ptrs_[i] = grad_agg_buf_.row(static_cast<index_t>(i));
    }
    TRACE_SPAN("efftt.grad_chain");
    chain_rule(cached_unique_.unique, p12_ptrs_, grad_ptrs_);
  } else {
    // Ablation: per-occurrence gradients (the TT-Rec cost the paper
    // removes). Every occurrence recomputes its prefix product and enters
    // the chain rule as an item of its own.
    map_positions_to_samples(batch);
    const auto total = static_cast<index_t>(cached_rows_.size());
    const index_t m2 = shape.row_factor(1);
    const index_t suffix = suffix_length();
    const index_t n1 = shape.col_factor(0);
    const index_t n2r2 = cores_.slice_cols(1);
    const index_t r1 = shape.rank(1);
    occ_p12_.resize(total, n1 * n2r2);
    parallel_for(index_t{0}, total, total >= kMinParallelItems, [&](index_t i) {
      const index_t prefix = cached_rows_[at(i)] / suffix;
      gemm(Trans::kNo, Trans::kNo, n1, n2r2, r1, 1.0f,
           cores_.slice(0, prefix / m2), r1, cores_.slice(1, prefix % m2),
           n2r2, 0.0f, occ_p12_.row(i), n2r2);
    });
    stats_.backward_gemms += at(total);
    p12_ptrs_.resize(at(total));
    grad_ptrs_.resize(at(total));
    for (index_t i = 0; i < total; ++i) {
      p12_ptrs_[at(i)] = occ_p12_.row(i);
      grad_ptrs_[at(i)] = grad_out.row(sample_of_pos_[at(i)]);
    }
    TRACE_SPAN("efftt.grad_chain");
    chain_rule(cached_rows_, p12_ptrs_, grad_ptrs_);
  }

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
      Matrix& grads = core_grads_[static_cast<std::size_t>(k)];
      OptimizerState& opt = core_optimizers_[static_cast<std::size_t>(k)];
      opt.prepare();
      const auto& touched = groups_[static_cast<std::size_t>(k)].touched;
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
    Matrix& grads = core_grads_[static_cast<std::size_t>(k)];
    for (index_t ik : groups_[static_cast<std::size_t>(k)].touched) {
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
