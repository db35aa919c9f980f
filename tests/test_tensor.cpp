// Unit + property tests for the tensor substrate: Matrix, GEMM (all
// transpose combinations against a naive reference), batched GEMM with
// pointer-gap skipping, gemv, and vector ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "tensor/batched_gemm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {
namespace {

// Naive triple-loop reference used to validate the blocked kernels.
Matrix reference_gemm(Trans ta, Trans tb, const Matrix& a, const Matrix& b,
                      float alpha, float beta, const Matrix& c0) {
  const index_t m = ta == Trans::kNo ? a.rows() : a.cols();
  const index_t k = ta == Trans::kNo ? a.cols() : a.rows();
  const index_t n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c = c0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t kk = 0; kk < k; ++kk) {
        const float av = ta == Trans::kNo ? a.at(i, kk) : a.at(kk, i);
        const float bv = tb == Trans::kNo ? b.at(kk, j) : b.at(j, kk);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = beta * c0.at(i, j) + alpha * static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.at(2, 1), 6.0f);
  EXPECT_EQ(m.row(1)[0], 3.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0f, 2.0f}, {3.0f}}), Error);
}

TEST(Matrix, ResizeZeroFills) {
  Matrix m(2, 2);
  m.fill(5.0f);
  m.resize(3, 3);
  for (index_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, ResizeToSameOrSmallerShapeReusesStorageAndZeroFills) {
  Matrix m(64, 16);
  const float* storage = m.data();
  m.fill(5.0f);
  m.resize(64, 16);
  EXPECT_EQ(m.data(), storage);
  for (index_t i = 0; i < m.size(); ++i) ASSERT_EQ(m.data()[i], 0.0f);
  m.fill(5.0f);
  m.resize(16, 8);
  EXPECT_EQ(m.data(), storage);
  for (index_t i = 0; i < m.size(); ++i) ASSERT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, FillNormalStats) {
  Prng rng(1);
  Matrix m(200, 200);
  m.fill_normal(rng, 1.0f, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (index_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sq += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  const double n = static_cast<double>(m.size());
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.15);
}

TEST(Matrix, XavierBounds) {
  Prng rng(2);
  Matrix m(64, 32);
  m.fill_xavier(rng);
  const float bound = std::sqrt(6.0f / (64 + 32));
  for (index_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3.0f, 0.0f}, {0.0f, 4.0f}};
  EXPECT_FLOAT_EQ(m.frobenius_norm(), 5.0f);
}

struct GemmCase {
  index_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const GemmCase& p = GetParam();
  Prng rng(99);
  Matrix a(p.ta == Trans::kNo ? p.m : p.k, p.ta == Trans::kNo ? p.k : p.m);
  Matrix b(p.tb == Trans::kNo ? p.k : p.n, p.tb == Trans::kNo ? p.n : p.k);
  Matrix c(p.m, p.n);
  a.fill_normal(rng);
  b.fill_normal(rng);
  c.fill_normal(rng);

  const Matrix expected = reference_gemm(p.ta, p.tb, a, b, p.alpha, p.beta, c);
  gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), a.cols(), b.data(),
       b.cols(), p.beta, c.data(), c.cols());
  EXPECT_LT(Matrix::max_abs_diff(c, expected),
            1e-3f * (1.0f + static_cast<float>(p.k)));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GemmParamTest,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{16, 16, 16, Trans::kNo, Trans::kNo, 2.0f, 1.0f},
        GemmCase{65, 130, 257, Trans::kNo, Trans::kNo, 1.0f, 0.5f},
        GemmCase{128, 64, 300, Trans::kNo, Trans::kNo, -1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kYes, Trans::kNo, 1.0f, 0.0f},
        GemmCase{33, 17, 65, Trans::kYes, Trans::kNo, 1.5f, 1.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kYes, 1.0f, 0.0f},
        GemmCase{40, 80, 24, Trans::kNo, Trans::kYes, 1.0f, 2.0f},
        GemmCase{3, 5, 7, Trans::kYes, Trans::kYes, 1.0f, 0.0f},
        GemmCase{19, 23, 29, Trans::kYes, Trans::kYes, 0.5f, 0.25f}));

TEST(Gemm, ZeroKWithBetaScalesC) {
  Matrix c{{1.0f, 2.0f}, {3.0f, 4.0f}};
  gemm(Trans::kNo, Trans::kNo, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.5f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 2.0f);
}

TEST(Gemm, StridedViewsMultiplyCorrectly) {
  // Multiply a 2x2 sub-block of a 4x4 matrix (lda = 4).
  Prng rng(5);
  Matrix big(4, 4);
  big.fill_normal(rng);
  Matrix b{{1.0f, 0.0f}, {0.0f, 1.0f}};
  Matrix c(2, 2);
  gemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0f, big.row(1) + 1, 4, b.data(), 2,
       0.0f, c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), big.at(1, 1));
  EXPECT_FLOAT_EQ(c.at(1, 1), big.at(2, 2));
}

TEST(Matmul, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c;
  EXPECT_THROW(matmul(a, b, c), Error);
}

TEST(Gemv, MatchesGemm) {
  Prng rng(6);
  Matrix a(7, 5);
  a.fill_normal(rng);
  std::vector<float> x(5), y(7, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  gemv(Trans::kNo, 7, 5, 1.0f, a.data(), 5, x.data(), 0.0f, y.data());
  for (index_t i = 0; i < 7; ++i) {
    float acc = 0.0f;
    for (index_t j = 0; j < 5; ++j) acc += a.at(i, j) * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], acc, 1e-4f);
  }
}

TEST(Gemv, TransposedMatchesReference) {
  Prng rng(8);
  Matrix a(4, 6);
  a.fill_normal(rng);
  std::vector<float> x(4), y(6, 1.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  gemv(Trans::kYes, 4, 6, 2.0f, a.data(), 6, x.data(), 0.0f, y.data());
  for (index_t j = 0; j < 6; ++j) {
    float acc = 0.0f;
    for (index_t i = 0; i < 4; ++i) acc += a.at(i, j) * x[static_cast<std::size_t>(i)];
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], 2.0f * acc, 1e-4f);
  }
}

TEST(BatchedGemm, ComputesEveryEntry) {
  Prng rng(7);
  const index_t m = 4, n = 6, k = 5, batch = 9;
  std::vector<Matrix> as(batch), bs(batch), cs(batch);
  std::vector<const float*> pa, pb;
  std::vector<float*> pc;
  for (index_t i = 0; i < batch; ++i) {
    as[static_cast<std::size_t>(i)].resize(m, k);
    bs[static_cast<std::size_t>(i)].resize(k, n);
    cs[static_cast<std::size_t>(i)].resize(m, n);
    as[static_cast<std::size_t>(i)].fill_normal(rng);
    bs[static_cast<std::size_t>(i)].fill_normal(rng);
    pa.push_back(as[static_cast<std::size_t>(i)].data());
    pb.push_back(bs[static_cast<std::size_t>(i)].data());
    pc.push_back(cs[static_cast<std::size_t>(i)].data());
  }
  BatchedGemmShape shape{m, n, k, k, n, n, 1.0f, 0.0f, Trans::kNo, Trans::kNo};
  batched_gemm(shape, pa, pb, pc);
  for (index_t i = 0; i < batch; ++i) {
    Matrix expected;
    matmul(as[static_cast<std::size_t>(i)], bs[static_cast<std::size_t>(i)],
           expected);
    EXPECT_LT(Matrix::max_abs_diff(cs[static_cast<std::size_t>(i)], expected),
              1e-4f);
  }
}

TEST(BatchedGemm, NullGapsAreSkippedAndCounted) {
  Prng rng(9);
  Matrix a(2, 2), b(2, 2), c(2, 2);
  a.fill_normal(rng);
  b.fill_normal(rng);
  std::vector<const float*> pa{a.data(), a.data(), a.data()};
  std::vector<const float*> pb{b.data(), b.data(), b.data()};
  Matrix c2(2, 2);
  std::vector<float*> pc{c.data(), nullptr, c2.data()};

  batched_gemm_stats().reset();
  BatchedGemmShape shape{2, 2, 2, 2, 2, 2, 1.0f, 0.0f, Trans::kNo, Trans::kNo};
  batched_gemm(shape, pa, pb, pc);
  const auto& stats = batched_gemm_stats();
  EXPECT_EQ(stats.launches.load(), 1u);
  EXPECT_EQ(stats.products.load(), 2u);
  EXPECT_EQ(stats.skipped.load(), 1u);
  EXPECT_EQ(stats.flops.load(), 2u * 2 * 2 * 2 * 2);
}

TEST(BatchedGemm, StatsAreProcessWideAcrossThreads) {
  // The counters are a single process-wide accumulator (relaxed atomics),
  // not thread_local: launches issued from a worker thread must be visible
  // from the test thread, and concurrent launches must not lose counts.
  Prng rng(10);
  Matrix a(2, 2), b(2, 2);
  a.fill_normal(rng);
  b.fill_normal(rng);
  BatchedGemmShape shape{2, 2, 2, 2, 2, 2, 1.0f, 0.0f, Trans::kNo, Trans::kNo};

  batched_gemm_stats().reset();
  constexpr int kThreads = 4;
  constexpr int kLaunchesPerThread = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      Matrix c(2, 2);
      std::vector<const float*> pa{a.data(), a.data()};
      std::vector<const float*> pb{b.data(), b.data()};
      std::vector<float*> pc{c.data(), c.data()};
      for (int i = 0; i < kLaunchesPerThread; ++i) {
        batched_gemm(shape, pa, pb, pc);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto& stats = batched_gemm_stats();
  EXPECT_EQ(stats.launches.load(), kThreads * kLaunchesPerThread);
  EXPECT_EQ(stats.products.load(), kThreads * kLaunchesPerThread * 2u);
  EXPECT_EQ(stats.skipped.load(), 0u);
  EXPECT_EQ(stats.flops.load(),
            kThreads * kLaunchesPerThread * 2u * (2u * 2 * 2 * 2));

  // The stats ARE registry counters now — the same totals must be readable
  // through the registry under the tensor.batched_gemm.* names, and a
  // snapshot taken here must carry them.
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter("tensor.batched_gemm.launches").value(),
            static_cast<std::uint64_t>(kThreads * kLaunchesPerThread));
  const obs::MetricsSnapshot snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "tensor.batched_gemm.products") {
      found = true;
      EXPECT_EQ(value,
                static_cast<std::uint64_t>(kThreads * kLaunchesPerThread * 2));
    }
  }
  EXPECT_TRUE(found);
}

TEST(BatchedGemm, ScopedCountersNestCleanly) {
  // Nested ScopedBatchedGemmCounters are snapshot-deltas over the same
  // process-wide counters: the inner scope sees only launches issued inside
  // it, the outer scope sees inner + its own — nothing is double-counted.
  Prng rng(11);
  Matrix a(2, 2), b(2, 2), c(2, 2);
  a.fill_normal(rng);
  b.fill_normal(rng);
  std::vector<const float*> pa{a.data()};
  std::vector<const float*> pb{b.data()};
  std::vector<float*> pc{c.data()};
  BatchedGemmShape shape{2, 2, 2, 2, 2, 2, 1.0f, 0.0f, Trans::kNo, Trans::kNo};

  const ScopedBatchedGemmCounters outer;
  batched_gemm(shape, pa, pb, pc);  // outer-only launch
  {
    const ScopedBatchedGemmCounters inner;
    batched_gemm(shape, pa, pb, pc);
    batched_gemm(shape, pa, pb, pc);
    const BatchedGemmCounts d = inner.delta();
    EXPECT_EQ(d.launches, 2u);
    EXPECT_EQ(d.products, 2u);
  }
  const BatchedGemmCounts d = outer.delta();
  EXPECT_EQ(d.launches, 3u);  // 1 outer + 2 inner, counted once each
  EXPECT_EQ(d.products, 3u);
  EXPECT_EQ(d.flops, 3u * 2 * 2 * 2 * 2);
}

TEST(BatchedGemm, MismatchedListsThrow) {
  std::vector<const float*> pa(2), pb(3);
  std::vector<float*> pc(2);
  BatchedGemmShape shape{1, 1, 1, 1, 1, 1, 1.0f, 0.0f, Trans::kNo, Trans::kNo};
  EXPECT_THROW(batched_gemm(shape, pa, pb, pc), Error);
}

TEST(VectorOps, AxpyCopyScaleDotSum) {
  std::vector<float> x{1.0f, 2.0f, 3.0f};
  std::vector<float> y{1.0f, 1.0f, 1.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  scale(0.5f, y);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(dot(x, x), 14.0f);
  EXPECT_FLOAT_EQ(sum(x), 6.0f);
  std::vector<float> z(3);
  copy(x, z);
  EXPECT_EQ(z[1], 2.0f);
}

TEST(VectorOps, ReluAndBackward) {
  std::vector<float> x{-1.0f, 0.0f, 2.0f};
  std::vector<float> act = x;
  for (float& v : act) v = std::max(v, 0.0f);
  EXPECT_FLOAT_EQ(act[0], 0.0f);
  EXPECT_FLOAT_EQ(act[2], 2.0f);
  std::vector<float> dy{1.0f, 1.0f, 1.0f}, dx(3);
  relu_backward(x, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(VectorOps, ReluBackwardMatchesScalarReferenceOnSpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials{nan,  -nan, 0.0f, -0.0f, den,
                                    -den, inf,  -inf, 1.5f,  -1.5f};
  // Every (x, dy) pair: 100 elements, so the SIMD body and its tail both run.
  std::vector<float> x, dy;
  for (float a : specials) {
    for (float g : specials) {
      x.push_back(a);
      dy.push_back(g);
    }
  }
  std::vector<float> dx(x.size(), 7.0f);
  relu_backward(x, dy, dx);
  std::vector<float> in_place = dy;  // dx may alias dy
  relu_backward(x, in_place, in_place);
  for (std::size_t i = 0; i < x.size(); ++i) {
    float want = 0.0f;
    if (x[i] > 0.0f) want = dy[i];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]),
              std::bit_cast<std::uint32_t>(want))
        << "x=" << x[i] << " dy=" << dy[i];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(in_place[i]),
              std::bit_cast<std::uint32_t>(want));
  }
}

TEST(VectorOps, SigmoidStableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_GT(sigmoid(-100.0f), 0.0f);  // no NaN / underflow to exactly 0 is ok
}

}  // namespace
}  // namespace elrec
