#include "tensor/batched_gemm.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace elrec {

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
  parallel_for(std::size_t{0}, a.size(), a.size() >= 64, [&](std::size_t i) {
    if (c[i] == nullptr) return;
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
