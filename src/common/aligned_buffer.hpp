// Cache-line-aligned numeric storage.
//
// GEMM kernels want 64-byte alignment for vectorized loads; std::vector does
// not guarantee it. AlignedBuffer<T> is a minimal owning array with that
// guarantee.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace elrec {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Owning, 64-byte-aligned array of trivially copyable T.
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { resize(n); }

  AlignedBuffer(const AlignedBuffer& other) { *this = other; }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this == &other) return *this;
    resize(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { *this = std::move(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this == &other) return *this;
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Resizes to n elements, all zero: contents are NOT preserved. The
  /// allocation only grows, like std::vector's: a resize to n <= capacity()
  /// keeps data() and just zero-fills the n elements.
  void resize(std::size_t n) {
    if (n > capacity_) {
      release();
      const std::size_t bytes =
          (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
          kCacheLineBytes;
      data_ = static_cast<T*>(std::aligned_alloc(kCacheLineBytes, bytes));
      if (data_ == nullptr) throw std::bad_alloc{};
      capacity_ = n;
    }
    size_ = n;
    if (n > 0) std::memset(data_, 0, n * sizeof(T));
  }

  void fill(T value) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    ELREC_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    ELREC_DCHECK(i < size_);
    return data_[i];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void release() {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace elrec
