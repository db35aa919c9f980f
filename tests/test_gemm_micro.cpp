// Property sweep for the register-tiled GEMM micro-kernel: every transpose
// combination, shapes straddling the 4x16 tile and 64/128/256 cache-block
// boundaries, leading dimensions larger than the logical width, and
// alpha/beta edge values — all checked against a naive double-accumulation
// reference on raw strided buffers. Plus bitwise thread-count invariance of
// gemm/gemv (the property the deterministic Eff-TT backward builds on).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tensor/batched_gemm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tt/tt_shape.hpp"

namespace elrec {
namespace {

// Naive strided reference: C = alpha * op(A) * op(B) + beta * C, double acc.
// beta == 0 overwrites (so C may hold garbage), matching the kernel contract.
void reference_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda, const float* b,
                    index_t ldb, float beta, float* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t kk = 0; kk < k; ++kk) {
        const float av = ta == Trans::kNo ? a[i * lda + kk] : a[kk * lda + i];
        const float bv = tb == Trans::kNo ? b[kk * ldb + j] : b[j * ldb + kk];
        acc += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c[i * ldc + j];
      c[i * ldc + j] = prior + alpha * static_cast<float>(acc);
    }
  }
}

std::vector<float> random_buffer(Prng& rng, index_t rows, index_t ld) {
  std::vector<float> buf(static_cast<std::size_t>(rows * ld));
  for (auto& v : buf) v = static_cast<float>(rng.normal());
  return buf;
}

float max_abs_diff(const std::vector<float>& x, const std::vector<float>& y) {
  float d = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    d = std::max(d, std::fabs(x[i] - y[i]));
  }
  return d;
}

struct SweepCase {
  index_t m, n, k;
  index_t pad;  // extra columns added to every leading dimension
  float alpha, beta;
};

// Runs one (shape, stride, scalar) case through all four transpose combos.
void run_sweep_case(const SweepCase& sc) {
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      Prng rng(1234 + static_cast<std::uint64_t>(sc.m * 131 + sc.n * 17 +
                                                 sc.k * 3 + sc.pad));
      const index_t a_rows = ta == Trans::kNo ? sc.m : sc.k;
      const index_t a_cols = ta == Trans::kNo ? sc.k : sc.m;
      const index_t b_rows = tb == Trans::kNo ? sc.k : sc.n;
      const index_t b_cols = tb == Trans::kNo ? sc.n : sc.k;
      const index_t lda = a_cols + sc.pad;
      const index_t ldb = b_cols + sc.pad;
      const index_t ldc = sc.n + sc.pad;

      const auto a = random_buffer(rng, a_rows, lda);
      const auto b = random_buffer(rng, b_rows, ldb);
      auto c = random_buffer(rng, sc.m, ldc);
      if (sc.beta == 0.0f) {
        // beta == 0 must overwrite: poison C so any read of it shows up.
        for (auto& v : c) v = std::numeric_limits<float>::quiet_NaN();
      }
      auto expected = c;

      reference_gemm(ta, tb, sc.m, sc.n, sc.k, sc.alpha, a.data(), lda,
                     b.data(), ldb, sc.beta, expected.data(), ldc);
      gemm(ta, tb, sc.m, sc.n, sc.k, sc.alpha, a.data(), lda, b.data(), ldb,
           sc.beta, c.data(), ldc);

      // Compare only the logical m x n window; padding is never written by
      // the reference, and the kernel must not touch it either.
      float diff = 0.0f;
      for (index_t i = 0; i < sc.m; ++i) {
        for (index_t j = 0; j < sc.n; ++j) {
          diff = std::max(diff, std::fabs(c[static_cast<std::size_t>(i * ldc + j)] -
                                          expected[static_cast<std::size_t>(i * ldc + j)]));
          ASSERT_FALSE(std::isnan(c[static_cast<std::size_t>(i * ldc + j)]))
              << "NaN leaked from beta==0 C at (" << i << "," << j << ")";
        }
      }
      EXPECT_LT(diff, 1e-3f * (1.0f + static_cast<float>(sc.k)))
          << "m=" << sc.m << " n=" << sc.n << " k=" << sc.k
          << " pad=" << sc.pad << " alpha=" << sc.alpha << " beta=" << sc.beta
          << " ta=" << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes);
      if (sc.beta != 0.0f) {
        // Padding columns must be untouched (they started equal in c and
        // expected, and the reference never writes them).
        for (index_t i = 0; i < sc.m; ++i) {
          for (index_t j = sc.n; j < ldc; ++j) {
            EXPECT_EQ(c[static_cast<std::size_t>(i * ldc + j)],
                      expected[static_cast<std::size_t>(i * ldc + j)])
                << "padding written at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

// Shapes straddle the kMR=4 / kNR=16 register tile and the 64/128/256
// cache-block edges; n <= 4 exercises the dedicated tiny-n path.
TEST(GemmMicroKernel, ShapeSweepAllTransposeCombos) {
  const index_t dims[] = {1, 3, 4, 5, 15, 16, 17, 33};
  for (index_t m : dims) {
    for (index_t n : dims) {
      for (index_t k : dims) {
        run_sweep_case({m, n, k, 0, 1.0f, 0.0f});
      }
    }
  }
}

TEST(GemmMicroKernel, CacheBlockBoundaries) {
  run_sweep_case({63, 127, 255, 0, 1.0f, 0.0f});
  run_sweep_case({64, 128, 256, 0, 1.0f, 1.0f});
  run_sweep_case({65, 129, 257, 0, 1.0f, 0.5f});
  run_sweep_case({130, 40, 300, 0, -1.0f, 0.0f});
  // Packed NT (m >= 128, n <= 128, k <= 256) with a ragged last column tile
  // and tail rows, and k-split TN (m <= 64, k > 256), strided.
  run_sweep_case({131, 13, 64, 3, -1.0f, 0.5f});
  run_sweep_case({200, 52, 256, 0, 1.0f, 0.0f});
  run_sweep_case({13, 52, 600, 2, -0.5f, 1.0f});
}

TEST(GemmMicroKernel, StridedBuffers) {
  for (index_t pad : {1, 3, 7}) {
    run_sweep_case({5, 17, 9, pad, 1.0f, 0.5f});
    run_sweep_case({4, 2, 33, pad, 1.0f, 0.0f});   // tiny-n path, strided
    run_sweep_case({33, 31, 64, pad, 2.0f, 1.0f});
  }
}

TEST(GemmMicroKernel, AlphaBetaEdges) {
  const float alphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  for (float alpha : alphas) {
    for (float beta : betas) {
      run_sweep_case({17, 19, 23, 0, alpha, beta});
    }
  }
}

TEST(GemmMicroKernel, TinyTTShapes) {
  // The exact shapes the Eff-TT kernels launch: stage-1 prefix products
  // (4x16 * 16x64) and stage-2 suffix extension (n <= 4 output columns).
  run_sweep_case({4, 64, 16, 0, 1.0f, 0.0f});
  run_sweep_case({1, 64, 16, 0, 1.0f, 0.0f});
  run_sweep_case({8, 2, 128, 0, 1.0f, 0.0f});
  run_sweep_case({2, 4, 16, 0, 1.0f, 1.0f});
}

// The prefix (n1 x R1 * R1 x n2 R2) and expand (n1 n2 x R2 * R2 x n3)
// launches Eff-TT issues for a 3-core balanced shape.
std::vector<BatchedGemmShape> efftt_launch_shapes(index_t dim, index_t rank) {
  const TTShape s = TTShape::balanced(100000, dim, 3, rank);
  BatchedGemmShape prefix;
  prefix.m = s.col_factor(0);
  prefix.n = s.col_factor(1) * s.rank(2);
  prefix.k = s.rank(1);
  BatchedGemmShape expand;
  expand.m = s.col_factor(0) * s.col_factor(1);
  expand.n = s.col_factor(2);
  expand.k = s.rank(2);
  return {prefix, expand};
}

// Runs one launch of `products` products with leading dimensions padded by
// `pad` and every 5th C a nullptr gap, and checks it bitwise against one
// gemm call per product: outputs, padding and gaps (both start from the
// same NaN-filled C), and the launch's counter deltas.
void expect_launch_equals_gemm(BatchedGemmShape shape, index_t pad,
                               Prng& rng) {
  constexpr index_t products = 70;  // above the launch's parallel threshold
  shape.lda = shape.k + pad;
  shape.ldb = shape.n + pad;
  shape.ldc = shape.n + pad;
  const std::vector<float> a = random_buffer(rng, products * shape.m, shape.lda);
  const std::vector<float> b = random_buffer(rng, products * shape.k, shape.ldb);
  const std::vector<float> c0(
      static_cast<std::size_t>(products * shape.m * shape.ldc),
      std::numeric_limits<float>::quiet_NaN());
  std::vector<float> got = c0;
  std::vector<float> want = c0;
  std::vector<const float*> pa, pb;
  std::vector<float*> pc;
  std::size_t executed = 0;
  for (index_t i = 0; i < products; ++i) {
    const float* ai = a.data() + i * shape.m * shape.lda;
    const float* bi = b.data() + i * shape.k * shape.ldb;
    const index_t c_off = i * shape.m * shape.ldc;
    pa.push_back(ai);
    pb.push_back(bi);
    pc.push_back(i % 5 == 3 ? nullptr : got.data() + c_off);
    if (pc.back() == nullptr) continue;
    ++executed;
    gemm(Trans::kNo, Trans::kNo, shape.m, shape.n, shape.k, shape.alpha, ai,
         shape.lda, bi, shape.ldb, shape.beta, want.data() + c_off, shape.ldc);
  }
  const ScopedBatchedGemmCounters counters;
  batched_gemm(shape, pa, pb, pc);
  const BatchedGemmCounts d = counters.delta();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0);
  EXPECT_EQ(d.launches, 1u);
  EXPECT_EQ(d.products, executed);
  EXPECT_EQ(d.skipped, static_cast<std::size_t>(products) - executed);
  EXPECT_EQ(d.flops, executed * 2 * static_cast<std::size_t>(
                                        shape.m * shape.n * shape.k));
}

TEST(BatchedGemmFixedShape, EveryEffTTShapeIsBitwiseEqualToGemm) {
  Prng rng(31);
  std::size_t shapes = 0;
  for (const index_t dim : {16, 32}) {
    for (const index_t rank : {8, 16, 32}) {
      for (BatchedGemmShape shape : efftt_launch_shapes(dim, rank)) {
        ++shapes;
        EXPECT_TRUE(batched_gemm_has_fixed_kernel(shape))
            << shape.m << "x" << shape.n << " k=" << shape.k;
        for (const float alpha : {1.0f, -0.75f}) {
          for (const index_t pad : {0, 3}) {
            SCOPED_TRACE(::testing::Message()
                         << "dim " << dim << " rank " << rank << " "
                         << shape.m << "x" << shape.n << " k=" << shape.k
                         << " alpha " << alpha << " pad " << pad);
            shape.alpha = alpha;
            expect_launch_equals_gemm(shape, pad, rng);
          }
        }
      }
    }
  }
  EXPECT_EQ(shapes, 12u);
}

TEST(BatchedGemmFixedShape, OtherLaunchesFallBackToGemm) {
  Prng rng(32);
  BatchedGemmShape covered{4, 4, 16, 0, 0, 0, 1.0f, 0.0f, Trans::kNo,
                           Trans::kNo};
  ASSERT_TRUE(batched_gemm_has_fixed_kernel(covered));
  BatchedGemmShape uncovered = covered;
  uncovered.m = 3;  // no fixed kernel for 3x4 k=16
  BatchedGemmShape zero_alpha = covered;
  zero_alpha.alpha = 0.0f;
  BatchedGemmShape transposed = covered;
  transposed.trans_b = Trans::kYes;
  for (const BatchedGemmShape& s : {uncovered, zero_alpha, transposed}) {
    EXPECT_FALSE(batched_gemm_has_fixed_kernel(s));
  }
  expect_launch_equals_gemm(uncovered, 1, rng);
  expect_launch_equals_gemm(zero_alpha, 0, rng);
  BatchedGemmShape accumulate = covered;
  accumulate.beta = 1.0f;
  EXPECT_FALSE(batched_gemm_has_fixed_kernel(accumulate));
}

#ifdef _OPENMP
// gemm/gemv must be bitwise identical at any thread count: threads split
// disjoint row blocks, and where a single row block splits k (TN with
// m <= 64, the DLRM weight gradient) the chunk partials are added in chunk
// order, so the float sum order is a function of the shape alone. The
// deterministic Eff-TT backward (and the checkpoint/resume invariants)
// depend on this.
TEST(GemmMicroKernel, BitwiseThreadCountInvariance) {
  const int saved = omp_get_max_threads();
  Prng rng(77);
  struct Case {
    Trans ta, tb;
    index_t m, n, k;
  };
  const Case cases[] = {
      {Trans::kNo, Trans::kNo, 300, 200, 150},
      // TN tall-k: the DLRM weight-gradient shapes at batch 4096.
      {Trans::kYes, Trans::kNo, 13, 64, 4096},
      {Trans::kYes, Trans::kNo, 52, 64, 4096},
      {Trans::kYes, Trans::kNo, 32, 1, 4096},
      // NT large-m: the DLRM input gradient (packed B^T path).
      {Trans::kNo, Trans::kYes, 4096, 64, 32},
  };
  for (const Case& cs : cases) {
    const index_t lda = cs.ta == Trans::kNo ? cs.k : cs.m;
    const index_t ldb = cs.tb == Trans::kNo ? cs.n : cs.k;
    const std::vector<float> a =
        random_buffer(rng, cs.ta == Trans::kNo ? cs.m : cs.k, lda);
    const std::vector<float> b =
        random_buffer(rng, cs.tb == Trans::kNo ? cs.k : cs.n, ldb);
    const std::vector<float> c0 = random_buffer(rng, cs.m, cs.n);
    std::vector<float> c1;
    for (const int threads : {1, 3, 4}) {
      omp_set_num_threads(threads);
      std::vector<float> c = c0;
      gemm(cs.ta, cs.tb, cs.m, cs.n, cs.k, -0.5f, a.data(), lda, b.data(),
           ldb, 1.0f, c.data(), cs.n);
      if (threads == 1) {
        c1 = c;
      } else {
        EXPECT_EQ(std::memcmp(c.data(), c1.data(), sizeof(float) * c.size()),
                  0)
            << cs.m << "x" << cs.n << " k=" << cs.k << " at " << threads
            << " threads";
      }
    }
  }

  // gemv needs m >= 512 (no-trans) / n >= 512 (trans) before its parallel
  // clauses engage, so use a matrix big enough in both directions.
  const index_t gm = 600, gn = 600;
  Matrix g(gm, gn);
  g.fill_normal(rng);
  std::vector<float> x(static_cast<std::size_t>(gm), 0.25f);
  std::vector<float> y1(static_cast<std::size_t>(gn), 0.0f);
  std::vector<float> y4(static_cast<std::size_t>(gn), 0.0f);
  omp_set_num_threads(1);
  gemv(Trans::kNo, gm, gn, 1.0f, g.data(), gn, x.data(), 0.0f, y1.data());
  omp_set_num_threads(4);
  gemv(Trans::kNo, gm, gn, 1.0f, g.data(), gn, x.data(), 0.0f, y4.data());
  EXPECT_EQ(max_abs_diff(y1, y4), 0.0f);
  omp_set_num_threads(1);
  gemv(Trans::kYes, gm, gn, 1.0f, g.data(), gn, x.data(), 0.0f, y1.data());
  omp_set_num_threads(4);
  gemv(Trans::kYes, gm, gn, 1.0f, g.data(), gn, x.data(), 0.0f, y4.data());
  EXPECT_EQ(max_abs_diff(y1, y4), 0.0f);

  omp_set_num_threads(saved);
}
#endif

}  // namespace
}  // namespace elrec
