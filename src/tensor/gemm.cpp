#include "tensor/gemm.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace elrec {
namespace {

// Cache-blocking parameters tuned for typical L1/L2 sizes; correctness does
// not depend on them.
constexpr index_t kBlockM = 64;
constexpr index_t kBlockN = 128;
constexpr index_t kBlockK = 256;

// Register micro-tile: kMR rows x kNR columns of C are held in accumulators
// across the whole k extent of a block, so C traffic drops from O(m*n*k/kNR)
// cache lines to one read-modify-write per tile. 4x16 keeps the working set
// at 4 vector accumulators on AVX-512 (8 on AVX2) plus one B row.
constexpr index_t kMR = 4;
constexpr index_t kNR = 16;

#define ELREC_RESTRICT __restrict__

// ---------------------------------------------------------------------------
// NN path: C[i, :] += alpha * A[i, k] * B[k, :].
// ---------------------------------------------------------------------------

// Full 4x16 tile.
inline void kernel_nn_4x16(index_t kb, float alpha,
                           const float* ELREC_RESTRICT a, index_t lda,
                           const float* ELREC_RESTRICT b, index_t ldb,
                           float* ELREC_RESTRICT c, index_t ldc) {
  float acc0[kNR] = {}, acc1[kNR] = {}, acc2[kNR] = {}, acc3[kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* ELREC_RESTRICT brow = b + kk * ldb;
    const float a0 = a[kk];
    const float a1 = a[lda + kk];
    const float a2 = a[2 * lda + kk];
    const float a3 = a[3 * lda + kk];
#pragma omp simd
    for (index_t j = 0; j < kNR; ++j) {
      const float bj = brow[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
#pragma omp simd
  for (index_t j = 0; j < kNR; ++j) {
    c[j] += alpha * acc0[j];
    c[ldc + j] += alpha * acc1[j];
    c[2 * ldc + j] += alpha * acc2[j];
    c[3 * ldc + j] += alpha * acc3[j];
  }
}

// Partial tile (mr <= kMR, nr <= kNR) at the m/n edges.
inline void kernel_nn_edge(index_t mr, index_t nr, index_t kb, float alpha,
                           const float* ELREC_RESTRICT a, index_t lda,
                           const float* ELREC_RESTRICT b, index_t ldb,
                           float* ELREC_RESTRICT c, index_t ldc) {
  float acc[kMR][kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* ELREC_RESTRICT brow = b + kk * ldb;
    for (index_t i = 0; i < mr; ++i) {
      const float aik = a[i * lda + kk];
#pragma omp simd
      for (index_t j = 0; j < nr; ++j) acc[i][j] += aik * brow[j];
    }
  }
  for (index_t i = 0; i < mr; ++i) {
#pragma omp simd
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

// Dedicated path for very narrow C (n <= 4) — the Eff-TT stage-2 shape
// (n = n_3, often 2) where a 16-wide tile would waste nearly every lane.
// Keeps the n accumulators of one output row in registers across k.
inline void gemm_nn_tiny_n(index_t m, index_t n, index_t k, float alpha,
                           const float* ELREC_RESTRICT a, index_t lda,
                           const float* ELREC_RESTRICT b, index_t ldb,
                           float* ELREC_RESTRICT c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    const float* ELREC_RESTRICT arow = a + i * lda;
    float acc[4] = {};
    for (index_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* ELREC_RESTRICT bk = b + kk * ldb;
      for (index_t j = 0; j < n; ++j) acc[j] += aik * bk[j];
    }
    float* ELREC_RESTRICT crow = c + i * ldc;
    for (index_t j = 0; j < n; ++j) crow[j] += alpha * acc[j];
  }
}

// One cache block of the NN path, tiled into register micro-kernels.
void gemm_nn_block(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  if (n <= 4) {
    gemm_nn_tiny_n(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  index_t i = 0;
  for (; i + kMR <= m; i += kMR) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    index_t j = 0;
    for (; j + kNR <= n; j += kNR) {
      kernel_nn_4x16(k, alpha, arow, lda, b + j, ldb, crow + j, ldc);
    }
    if (j < n) {
      kernel_nn_edge(kMR, n - j, k, alpha, arow, lda, b + j, ldb, crow + j,
                     ldc);
    }
  }
  if (i < m) {
    for (index_t j = 0; j < n; j += kNR) {
      kernel_nn_edge(m - i, std::min(kNR, n - j), k, alpha, a + i * lda, lda,
                     b + j, ldb, c + i * ldc + j, ldc);
    }
  }
}

// ---------------------------------------------------------------------------
// TN path: C[i, :] += alpha * A[k, i] * B[k, :]. The kMR A elements per k
// step are contiguous (a[kk*lda + i .. i+3]), so the tile loads stream.
// ---------------------------------------------------------------------------

inline void kernel_tn_4x16(index_t kb, float alpha,
                           const float* ELREC_RESTRICT a, index_t lda,
                           const float* ELREC_RESTRICT b, index_t ldb,
                           float* ELREC_RESTRICT c, index_t ldc) {
  float acc0[kNR] = {}, acc1[kNR] = {}, acc2[kNR] = {}, acc3[kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* ELREC_RESTRICT brow = b + kk * ldb;
    const float* ELREC_RESTRICT acol = a + kk * lda;
    const float a0 = acol[0];
    const float a1 = acol[1];
    const float a2 = acol[2];
    const float a3 = acol[3];
#pragma omp simd
    for (index_t j = 0; j < kNR; ++j) {
      const float bj = brow[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
#pragma omp simd
  for (index_t j = 0; j < kNR; ++j) {
    c[j] += alpha * acc0[j];
    c[ldc + j] += alpha * acc1[j];
    c[2 * ldc + j] += alpha * acc2[j];
    c[3 * ldc + j] += alpha * acc3[j];
  }
}

inline void kernel_tn_edge(index_t mr, index_t nr, index_t kb, float alpha,
                           const float* ELREC_RESTRICT a, index_t lda,
                           const float* ELREC_RESTRICT b, index_t ldb,
                           float* ELREC_RESTRICT c, index_t ldc) {
  float acc[kMR][kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* ELREC_RESTRICT brow = b + kk * ldb;
    const float* ELREC_RESTRICT acol = a + kk * lda;
    for (index_t i = 0; i < mr; ++i) {
      const float aik = acol[i];
#pragma omp simd
      for (index_t j = 0; j < nr; ++j) acc[i][j] += aik * brow[j];
    }
  }
  for (index_t i = 0; i < mr; ++i) {
#pragma omp simd
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

void gemm_tn_block(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  index_t i = 0;
  for (; i + kMR <= m; i += kMR) {
    float* crow = c + i * ldc;
    index_t j = 0;
    for (; j + kNR <= n; j += kNR) {
      kernel_tn_4x16(k, alpha, a + i, lda, b + j, ldb, crow + j, ldc);
    }
    if (j < n) {
      kernel_tn_edge(kMR, n - j, k, alpha, a + i, lda, b + j, ldb, crow + j,
                     ldc);
    }
  }
  if (i < m) {
    for (index_t j = 0; j < n; j += kNR) {
      kernel_tn_edge(m - i, std::min(kNR, n - j), k, alpha, a + i, lda, b + j,
                     ldb, c + i * ldc + j, ldc);
    }
  }
}

// ---------------------------------------------------------------------------
// NT path: C[i, j] += alpha * dot(A[i, :], B[j, :]); both operands stream
// contiguously along k, so the kernel is 4 simultaneous simd dot products.
// ---------------------------------------------------------------------------

void gemm_nt_row(index_t n, index_t k, float alpha,
                 const float* ELREC_RESTRICT arow,
                 const float* ELREC_RESTRICT b, index_t ldb,
                 float* ELREC_RESTRICT crow) {
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* ELREC_RESTRICT b0 = b + j * ldb;
    const float* ELREC_RESTRICT b1 = b + (j + 1) * ldb;
    const float* ELREC_RESTRICT b2 = b + (j + 2) * ldb;
    const float* ELREC_RESTRICT b3 = b + (j + 3) * ldb;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      s0 += av * b0[kk];
      s1 += av * b1[kk];
      s2 += av * b2[kk];
      s3 += av * b3[kk];
    }
    crow[j] += alpha * s0;
    crow[j + 1] += alpha * s1;
    crow[j + 2] += alpha * s2;
    crow[j + 3] += alpha * s3;
  }
  for (; j < n; ++j) {
    const float* ELREC_RESTRICT brow = b + j * ldb;
    float s = 0.0f;
#pragma omp simd reduction(+ : s)
    for (index_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
    crow[j] += alpha * s;
  }
}

// <arow, x> over n entries. A function of its own so the SIMD reduction sees
// plain pointer arguments; inlined into a lambda that captures `x` by
// reference, GCC 12 leaves the loop scalar.
inline float row_dot(index_t n, const float* ELREC_RESTRICT arow,
                     const float* ELREC_RESTRICT x) {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (index_t j = 0; j < n; ++j) acc += arow[j] * x[j];
  return acc;
}

// Generic element accessor honoring transposition (TT fallback only).
inline float elem(const float* p, index_t ld, Trans t, index_t r, index_t c) {
  return t == Trans::kNo ? p[r * ld + c] : p[c * ld + r];
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc) {
  ELREC_DCHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;

  // Scale C by beta first; the accumulation kernels then just add.
  if (beta == 0.0f) {
    parallel_for(index_t{0}, m, m >= 4 * kBlockM, [&](index_t i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    });
  } else if (beta != 1.0f) {
    parallel_for(index_t{0}, m, m >= 4 * kBlockM, [&](index_t i) {
      float* ELREC_RESTRICT crow = c + i * ldc;
#pragma omp simd
      for (index_t j = 0; j < n; ++j) crow[j] *= beta;
    });
  }
  if (k == 0 || alpha == 0.0f) return;
  const index_t row_blocks = (m + kBlockM - 1) / kBlockM;

  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    // Small-matrix fast path — the tiny TT shapes batched_gemm launches
    // (m, k <= ~32) skip the cache-block loop entirely.
    if (m <= kBlockM && n <= kBlockN && k <= kBlockK) {
      gemm_nn_block(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      return;
    }
    // Blocked NN path — the hot case for every EL-Rec kernel. Threads split
    // disjoint row blocks and k stays sequential per C tile, so results do
    // not depend on the thread count.
    parallel_for(index_t{0}, row_blocks, m >= 2 * kBlockM, [&](index_t ib) {
      const index_t i0 = ib * kBlockM;
      const index_t mb = std::min(kBlockM, m - i0);
      for (index_t k0 = 0; k0 < k; k0 += kBlockK) {
        const index_t kb = std::min(kBlockK, k - k0);
        for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
          const index_t nb = std::min(kBlockN, n - j0);
          gemm_nn_block(mb, nb, kb, alpha, a + i0 * lda + k0, lda,
                        b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
        }
      }
    });
    return;
  }

  if (trans_a == Trans::kYes && trans_b == Trans::kNo) {
    if (m <= kBlockM && n <= kBlockN && k <= kBlockK) {
      gemm_tn_block(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      return;
    }
    // k is the large dimension here (activation gradients: k == batch), so
    // block it for cache reuse of the C tile accumulators.
    parallel_for(index_t{0}, row_blocks, m >= 2 * kBlockM, [&](index_t ib) {
      const index_t i0 = ib * kBlockM;
      const index_t mb = std::min(kBlockM, m - i0);
      for (index_t k0 = 0; k0 < k; k0 += kBlockK) {
        const index_t kb = std::min(kBlockK, k - k0);
        for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
          const index_t nb = std::min(kBlockN, n - j0);
          gemm_tn_block(mb, nb, kb, alpha, a + k0 * lda + i0, lda,
                        b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
        }
      }
    });
    return;
  }

  if (trans_a == Trans::kNo && trans_b == Trans::kYes) {
    parallel_for(index_t{0}, m, m >= 2 * kBlockM, [&](index_t i) {
      gemm_nt_row(n, k, alpha, a + i * lda, b, ldb, c + i * ldc);
    });
    return;
  }

  // TT case — rare; naive loops.
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (index_t kk = 0; kk < k; ++kk) {
        acc += elem(a, lda, trans_a, i, kk) * elem(b, ldb, trans_b, kk, j);
      }
      c[i * ldc + j] += alpha * acc;
    }
  }
}

void matmul(const Matrix& a, const Matrix& b, Matrix& c, Trans trans_a,
            Trans trans_b) {
  const index_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const index_t ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const index_t kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const index_t n = trans_b == Trans::kNo ? b.cols() : b.rows();
  ELREC_CHECK(ka == kb, "inner dimensions do not match in matmul");
  c.resize(m, n);
  gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.cols(), b.data(),
       b.cols(), 0.0f, c.data(), c.cols());
}

void gemv(Trans trans_a, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, float beta, float* y) {
  if (trans_a == Trans::kNo) {
    parallel_for(index_t{0}, m, m >= 512, [&](index_t i) {
      const float acc = row_dot(n, a + i * lda, x);
      y[i] = beta * (beta == 0.0f ? 0.0f : y[i]) + alpha * acc;
    });
    return;
  }
  // Transposed: y[j] += alpha * A[i, j] * x[i]. Threads own disjoint j
  // ranges and each walks all of A's rows, so the i-order (and therefore
  // the float sum order) is identical at any thread count.
  constexpr index_t kColChunk = 256;
  const index_t col_chunks = (n + kColChunk - 1) / kColChunk;
  parallel_for(index_t{0}, col_chunks, n >= 2 * kColChunk, [&](index_t jc) {
    const index_t j0 = jc * kColChunk;
    const index_t j1 = std::min(j0 + kColChunk, n);
    if (beta == 0.0f) {
      std::fill(y + j0, y + j1, 0.0f);
    } else if (beta != 1.0f) {
#pragma omp simd
      for (index_t j = j0; j < j1; ++j) y[j] *= beta;
    }
    for (index_t i = 0; i < m; ++i) {
      const float xi = alpha * x[i];
      if (xi == 0.0f) continue;
      const float* ELREC_RESTRICT arow = a + i * lda;
#pragma omp simd
      for (index_t j = j0; j < j1; ++j) y[j] += xi * arow[j];
    }
  });
}

}  // namespace elrec
