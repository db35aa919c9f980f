// Dense row-major float32 matrix, the storage type of every EL-Rec kernel.
//
// Embedding tables, TT-core slices, MLP weights and activations are all
// Matrix; GEMM kernels operate on raw pointers + leading dimensions so views
// into larger buffers work without copies.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace elrec {

using index_t = std::int64_t;

/// Owning dense row-major matrix of float.
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols) { resize(rows, cols); }

  /// Builds a matrix from nested initializer lists (row by row); handy in
  /// tests. All rows must have the same length.
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  /// Resizes to rows x cols, zero-filled. Contents are not preserved; the
  /// allocation is kept when it already holds rows * cols floats.
  void resize(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }

  float* row(index_t i) {
    ELREC_DCHECK(i >= 0 && i < rows_);
    return buf_.data() + static_cast<std::size_t>(i) * cols_;
  }
  const float* row(index_t i) const {
    ELREC_DCHECK(i >= 0 && i < rows_);
    return buf_.data() + static_cast<std::size_t>(i) * cols_;
  }

  float& at(index_t i, index_t j) {
    ELREC_DCHECK(j >= 0 && j < cols_);
    return row(i)[j];
  }
  float at(index_t i, index_t j) const {
    ELREC_DCHECK(j >= 0 && j < cols_);
    return row(i)[j];
  }

  float& operator()(index_t i, index_t j) { return at(i, j); }
  float operator()(index_t i, index_t j) const { return at(i, j); }

  void fill(float value) { buf_.fill(value); }
  void set_zero() { buf_.fill(0.0f); }

  /// Fills with N(mean, stddev) draws.
  void fill_normal(Prng& rng, float mean = 0.0f, float stddev = 1.0f);

  /// Fills with U[lo, hi) draws.
  void fill_uniform(Prng& rng, float lo, float hi);

  /// Xavier/Glorot uniform init for a (fan_in=rows, fan_out=cols) layer.
  void fill_xavier(Prng& rng);

  /// Max |a_ij - b_ij| over both matrices; they must have equal shape.
  static float max_abs_diff(const Matrix& a, const Matrix& b);

  /// Frobenius norm.
  float frobenius_norm() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedBuffer<float> buf_;
};

}  // namespace elrec
