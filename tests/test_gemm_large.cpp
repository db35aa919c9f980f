// Large-shape GEMM tests: exercise the blocked + OpenMP-parallel branches
// (m >= 2*kBlockM triggers the parallel loop; k > kBlockK spans multiple
// K-panels with beta handling) and the parallel batched-GEMM path
// (batch >= 64), against double-precision references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "tensor/batched_gemm.hpp"
#include "tensor/gemm.hpp"

namespace elrec {
namespace {

Matrix reference_nn(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(GemmLarge, ParallelRowBlocksMatchReference) {
  Prng rng(1);
  Matrix a(300, 70), b(70, 90);
  a.fill_normal(rng);
  b.fill_normal(rng);
  Matrix c(300, 90);
  gemm(Trans::kNo, Trans::kNo, 300, 90, 70, 1.0f, a.data(), 70, b.data(), 90,
       0.0f, c.data(), 90);
  EXPECT_LT(Matrix::max_abs_diff(c, reference_nn(a, b)), 1e-3f);
}

TEST(GemmLarge, MultipleKPanelsAccumulateOnce) {
  // k = 600 spans three K-panels; beta must only be applied once.
  Prng rng(2);
  Matrix a(40, 600), b(600, 30);
  a.fill_normal(rng);
  b.fill_normal(rng);
  Matrix c(40, 30);
  c.fill(2.0f);
  gemm(Trans::kNo, Trans::kNo, 40, 30, 600, 1.0f, a.data(), 600, b.data(), 30,
       0.5f, c.data(), 30);
  const Matrix ref = reference_nn(a, b);
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), ref.at(i, j) + 1.0f, 2e-2f);
    }
  }
}

TEST(GemmLarge, ParallelBatchedPathMatchesSerial) {
  // 100 products trigger the parallel batched branch; compare against
  // per-product serial gemm results.
  Prng rng(3);
  const index_t n = 100, m = 6, kk = 5, nn = 7;
  Matrix a(n * m, kk), b(n * kk, nn), c(n * m, nn), expected(n * m, nn);
  a.fill_normal(rng);
  b.fill_normal(rng);
  std::vector<const float*> pa, pb;
  std::vector<float*> pc;
  for (index_t i = 0; i < n; ++i) {
    pa.push_back(a.row(i * m));
    pb.push_back(b.row(i * kk));
    pc.push_back(c.row(i * m));
    gemm(Trans::kNo, Trans::kNo, m, nn, kk, 1.0f, a.row(i * m), kk,
         b.row(i * kk), nn, 0.0f, expected.row(i * m), nn);
  }
  BatchedGemmShape shape{m, nn, kk, kk, nn, nn, 1.0f, 0.0f,
                         Trans::kNo, Trans::kNo};
  batched_gemm(shape, pa, pb, pc);
  EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-5f);
}

TEST(GemmLarge, TransATallMatchesReference) {
  Prng rng(4);
  Matrix a(50, 260), b(50, 40);  // op(A) = A^T: 260 x 50
  a.fill_normal(rng);
  b.fill_normal(rng);
  Matrix c(260, 40), ref(260, 40);
  gemm(Trans::kYes, Trans::kNo, 260, 40, 50, 1.0f, a.data(), 260, b.data(), 40,
       0.0f, c.data(), 40);
  for (index_t i = 0; i < 260; ++i) {
    for (index_t j = 0; j < 40; ++j) {
      double acc = 0.0;
      for (index_t k = 0; k < 50; ++k) {
        acc += static_cast<double>(a.at(k, i)) * b.at(k, j);
      }
      ref.at(i, j) = static_cast<float>(acc);
    }
  }
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f);
}

TEST(GemmLarge, KSplitTnMatchesChunkedSerialOrder) {
  // A single-row-block TN call with k > 256 splits k across threads. It must
  // be bitwise equal to the same product issued as successive k <= 256 TN
  // calls with beta = 1: the order in which one thread walks the k blocks.
  // Shapes: the DLRM weight gradients (fan-in x fan-out, k = batch), plus
  // n > 128 and a ragged, more-than-16-block k. A and C carry padded
  // leading dimensions.
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{52, 64, 4096}, {32, 1, 4096}, {13, 200, 5000}};
  constexpr index_t kChunk = 256;
  const float alpha = -0.01f;  // -lr: the fused SGD update
  Prng rng(5);
  for (const Shape& s : shapes) {
    const index_t lda = s.m + 3, ldc = s.n + 5;
    Matrix a(s.k, lda), b(s.k, s.n), c0(s.m, ldc);
    a.fill_normal(rng);
    b.fill_normal(rng);
    c0.fill_normal(rng);
    for (const float beta : {1.0f, 0.0f}) {
      Matrix got = c0;
      gemm(Trans::kYes, Trans::kNo, s.m, s.n, s.k, alpha, a.data(), lda,
           b.data(), s.n, beta, got.data(), ldc);
      Matrix want = c0;
      if (beta == 0.0f) {
        for (index_t i = 0; i < s.m; ++i) {
          std::fill(want.row(i), want.row(i) + s.n, 0.0f);
        }
      }
      for (index_t k0 = 0; k0 < s.k; k0 += kChunk) {
        gemm(Trans::kYes, Trans::kNo, s.m, s.n, std::min(kChunk, s.k - k0),
             alpha, a.row(k0), lda, b.row(k0), s.n, 1.0f, want.data(), ldc);
      }
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) * static_cast<std::size_t>(got.size())),
                0)
          << s.m << "x" << s.n << " k=" << s.k << " beta=" << beta;
    }
  }
}

TEST(GemmLarge, TnColumnMatchesFirstColumnOfTwoColumnProduct) {
  // The n == 1 TN path (the top MLP's last-layer weight gradient) must sum
  // each element exactly as the general tile kernels sum one column: equal,
  // bitwise, to column 0 of the same product with a second B column. Shapes
  // cover the 32 x 1 k = 4096 layer (k split across threads), a ragged m
  // and a k inside one block.
  struct Shape {
    index_t m, k;
  };
  const Shape shapes[] = {{32, 4096}, {13, 700}, {64, 256}, {1, 33}};
  const float alpha = -0.01f;
  Prng rng(8);
  for (const Shape& s : shapes) {
    const index_t lda = s.m + 3;
    Matrix a(s.k, lda), b2(s.k, 2), b1(s.k, 1), c0(s.m, 2);
    a.fill_normal(rng);
    b2.fill_normal(rng);
    c0.fill_normal(rng);
    for (index_t kk = 0; kk < s.k; ++kk) b1.at(kk, 0) = b2.at(kk, 0);
    for (const float beta : {1.0f, 0.0f}) {
      Matrix two = c0;
      gemm(Trans::kYes, Trans::kNo, s.m, 2, s.k, alpha, a.data(), lda,
           b2.data(), 2, beta, two.data(), 2);
      Matrix one = c0;  // ldc = 2: column 0 only
      gemm(Trans::kYes, Trans::kNo, s.m, 1, s.k, alpha, a.data(), lda,
           b1.data(), 1, beta, one.data(), 2);
      for (index_t i = 0; i < s.m; ++i) {
        EXPECT_EQ(std::memcmp(&one.at(i, 0), &two.at(i, 0), sizeof(float)), 0)
            << s.m << "x1 k=" << s.k << " beta=" << beta << " row " << i;
        EXPECT_EQ(one.at(i, 1), c0.at(i, 1)) << "column 1 must be untouched";
      }
    }
  }
}

}  // namespace
}  // namespace elrec
