// Pointer-list batched GEMM.
//
// Mirrors the interface of cublasGemmBatchedEx that the paper's Algorithm 1
// feeds: three arrays of device pointers (Ptr_a, Ptr_b, Ptr_c) plus uniform
// problem dimensions. The Eff-TT pointer-preparation step assembles those
// lists; this kernel executes every (A_i, B_i, C_i) product.
#pragma once

#include <span>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"

namespace elrec {

/// Uniform problem shape for one batched-GEMM launch.
struct BatchedGemmShape {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  index_t lda = 0;  // row stride of each A_i
  index_t ldb = 0;  // row stride of each B_i
  index_t ldc = 0;  // row stride of each C_i
  float alpha = 1.0f;
  float beta = 0.0f;
  Trans trans_a = Trans::kNo;
  Trans trans_b = Trans::kNo;
};

/// Computes C_i = alpha * op(A_i) * op(B_i) + beta * C_i for every i.
/// Entries where c[i] == nullptr are skipped — Algorithm 1 leaves gaps for
/// indices whose prefix product is computed by another thread.
void batched_gemm(const BatchedGemmShape& shape,
                  std::span<const float* const> a,
                  std::span<const float* const> b, std::span<float* const> c);

/// True when the launch runs a fixed-shape kernel instead of one gemm call
/// per product: NN, beta == 0, alpha != 0, and an (m, n, k) among the
/// Eff-TT prefix and expand shapes of TTShape::balanced(rows, dim, 3, rank)
/// for dim 16/32 and rank 8/16/32. Either way every product is bitwise
/// equal to gemm's.
bool batched_gemm_has_fixed_kernel(const BatchedGemmShape& shape);

/// Bookkeeping counters so benchmarks can report launch/FLOP savings.
///
/// The counters live in the process-wide MetricsRegistry under
/// "tensor.batched_gemm.*" (launches / products / skipped / flops), so they
/// appear in every MetricsSnapshot and BENCH_*.json metrics block; this
/// struct is the cached hot-path handle onto those registry entries.
/// Relaxed-atomic semantics as before: launches recorded on a pipeline
/// worker thread are visible from the test/driver thread, totals are exact,
/// only the *ordering* between concurrent launches is unspecified.
struct BatchedGemmStats {
  obs::Counter& launches;  // batched_gemm() calls
  obs::Counter& products;  // individual GEMMs executed
  obs::Counter& skipped;   // nullptr gaps (reuse wins)
  obs::Counter& flops;     // 2*m*n*k per executed product
  void reset() {
    launches.reset();
    products.reset();
    skipped.reset();
    flops.reset();
  }
};

/// Process-wide stats accumulator (enabled unconditionally; negligible cost).
BatchedGemmStats& batched_gemm_stats();

/// Plain-value snapshot of the process-wide counters.
struct BatchedGemmCounts {
  std::size_t launches = 0;
  std::size_t products = 0;
  std::size_t skipped = 0;
  std::size_t flops = 0;
};

inline BatchedGemmCounts batched_gemm_counts() {
  const auto& s = batched_gemm_stats();
  return {s.launches.load(), s.products.load(), s.skipped.load(),
          s.flops.load()};
}

/// Scoped delta over the process-wide counters: captures a snapshot at
/// construction; delta() reports only the launches issued since. Lets
/// per-request/per-batch compute accounting (the serving scheduler) exclude
/// warm-up and other callers' history without reset()ing the global state.
/// Note the counters are process-wide, so concurrent launches from OTHER
/// threads land in the delta too; attribute deltas only around regions you
/// know are exclusive, or treat them as an upper bound.
class ScopedBatchedGemmCounters {
 public:
  ScopedBatchedGemmCounters() : start_(batched_gemm_counts()) {}

  BatchedGemmCounts delta() const {
    const BatchedGemmCounts now = batched_gemm_counts();
    return {now.launches - start_.launches, now.products - start_.products,
            now.skipped - start_.skipped, now.flops - start_.flops};
  }

 private:
  BatchedGemmCounts start_;
};

}  // namespace elrec
