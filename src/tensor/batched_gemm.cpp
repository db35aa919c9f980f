#include "tensor/batched_gemm.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace elrec {

namespace {

// Fixed-shape products: C (M x N) = 0 + alpha * A (M x K) * B (K x N), with
// every extent a compile-time constant so the accumulators of a column
// tile stay in registers and no per-product dispatch or zero-fill runs.
// Each element sums its K terms in k order from zero and then takes
// c = 0 + alpha * acc: the arithmetic of gemm's small NN path at beta == 0,
// so a product is bitwise equal to the gemm call it replaces.
using FixedProduct = void (*)(float alpha, const float* a, index_t lda,
                              const float* b, index_t ldb, float* c,
                              index_t ldc);

template <index_t M, index_t N, index_t K>
void fixed_product(float alpha, const float* __restrict__ a, index_t lda,
                   const float* __restrict__ b, index_t ldb,
                   float* __restrict__ c, index_t ldc) {
  constexpr index_t kTile = N < 64 ? N : 64;  // columns held per pass
  static_assert(N % kTile == 0);
  for (index_t j0 = 0; j0 < N; j0 += kTile) {
    float acc[M][kTile] = {};
    for (index_t kk = 0; kk < K; ++kk) {
      const float* __restrict__ brow = b + kk * ldb + j0;
#pragma GCC unroll 16
      for (index_t i = 0; i < M; ++i) {
        const float aik = a[i * lda + kk];
#pragma omp simd
        for (index_t j = 0; j < kTile; ++j) acc[i][j] += aik * brow[j];
      }
    }
#pragma GCC unroll 16
    for (index_t i = 0; i < M; ++i) {
      float* __restrict__ crow = c + i * ldc + j0;
#pragma omp simd
      for (index_t j = 0; j < kTile; ++j) crow[j] = 0.0f + alpha * acc[i][j];
    }
  }
}

struct FixedKernel {
  index_t m, n, k;
  FixedProduct run;
};

template <index_t M, index_t N, index_t K>
constexpr FixedKernel fixed() {
  return {M, N, K, &fixed_product<M, N, K>};
}

// The two Eff-TT launches of TTShape::balanced(rows, dim, 3, rank), whose
// column factors are 2x2x4 (dim 16) and 4x2x4 (dim 32): prefix
// (n1, n2 R2, R1) and expand (n1 n2, n3, R2), for rank 8, 16, 32. These are
// the dims the training, serving and Fig. 17 lookup workloads run.
constexpr FixedKernel kFixedKernels[] = {
    fixed<2, 16, 8>(), fixed<2, 32, 16>(), fixed<2, 64, 32>(),
    fixed<4, 4, 8>(),  fixed<4, 4, 16>(),  fixed<4, 4, 32>(),
    fixed<4, 16, 8>(), fixed<4, 32, 16>(), fixed<4, 64, 32>(),
    fixed<8, 4, 8>(),  fixed<8, 4, 16>(),  fixed<8, 4, 32>(),
};

// The fixed-shape kernel for a launch, or nullptr when it must run gemm:
// only plain NN launches that overwrite C with a nonzero alpha qualify
// (gemm returns a zero C for alpha == 0 without reading A or B).
FixedProduct fixed_kernel(const BatchedGemmShape& s) {
  if (s.trans_a != Trans::kNo || s.trans_b != Trans::kNo || s.beta != 0.0f ||
      s.alpha == 0.0f) {
    return nullptr;
  }
  for (const FixedKernel& k : kFixedKernels) {
    if (k.m == s.m && k.n == s.n && k.k == s.k) return k.run;
  }
  return nullptr;
}

}  // namespace

bool batched_gemm_has_fixed_kernel(const BatchedGemmShape& shape) {
  return fixed_kernel(shape) != nullptr;
}

BatchedGemmStats& batched_gemm_stats() {
  auto& reg = obs::MetricsRegistry::global();
  static BatchedGemmStats stats{reg.counter("tensor.batched_gemm.launches"),
                                reg.counter("tensor.batched_gemm.products"),
                                reg.counter("tensor.batched_gemm.skipped"),
                                reg.counter("tensor.batched_gemm.flops")};
  return stats;
}

void batched_gemm(const BatchedGemmShape& shape,
                  std::span<const float* const> a,
                  std::span<const float* const> b, std::span<float* const> c) {
  ELREC_CHECK(a.size() == b.size() && b.size() == c.size(),
              "batched_gemm pointer lists must have equal length");
  TRACE_SPAN("tensor.batched_gemm");

  // Each product writes only its own C; the gemm calls inside the team run
  // serially (fork_omp_team is false in a parallel region).
  const FixedProduct fixed = fixed_kernel(shape);
  parallel_for(std::size_t{0}, a.size(), a.size() >= 64, [&](std::size_t i) {
    if (c[i] == nullptr) return;
    if (fixed != nullptr) {
      fixed(shape.alpha, a[i], shape.lda, b[i], shape.ldb, c[i], shape.ldc);
      return;
    }
    gemm(shape.trans_a, shape.trans_b, shape.m, shape.n, shape.k, shape.alpha,
         a[i], shape.lda, b[i], shape.ldb, shape.beta, c[i], shape.ldc);
  });
  const auto executed = static_cast<std::size_t>(
      std::count_if(c.begin(), c.end(), [](float* p) { return p != nullptr; }));
  // One relaxed add per counter per launch; exact totals, no per-product
  // contention.
  auto& stats = batched_gemm_stats();
  stats.launches.add(1);
  stats.products.add(executed);
  stats.skipped.add(a.size() - executed);
  stats.flops.add(executed * 2ULL * static_cast<std::size_t>(shape.m) *
                  static_cast<std::size_t>(shape.n) *
                  static_cast<std::size_t>(shape.k));
}

}  // namespace elrec
