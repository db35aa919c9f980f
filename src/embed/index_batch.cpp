#include "embed/index_batch.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace elrec {

IndexBatch IndexBatch::one_per_sample(std::vector<index_t> indices) {
  IndexBatch batch;
  batch.offsets.resize(indices.size() + 1);
  for (std::size_t i = 0; i <= indices.size(); ++i) {
    batch.offsets[i] = static_cast<index_t>(i);
  }
  batch.indices = std::move(indices);
  return batch;
}

IndexBatch IndexBatch::from_bags(const std::vector<std::vector<index_t>>& bags) {
  IndexBatch batch;
  batch.offsets.reserve(bags.size() + 1);
  batch.offsets.push_back(0);
  for (const auto& bag : bags) {
    batch.indices.insert(batch.indices.end(), bag.begin(), bag.end());
    batch.offsets.push_back(static_cast<index_t>(batch.indices.size()));
  }
  return batch;
}

void IndexBatch::validate(index_t num_rows) const {
  ELREC_CHECK(!offsets.empty() && offsets.front() == 0,
              "offsets must start at 0");
  ELREC_CHECK(offsets.back() == static_cast<index_t>(indices.size()),
              "offsets must end at indices.size()");
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    ELREC_CHECK(offsets[i] >= offsets[i - 1], "offsets must be nondecreasing");
  }
  check_rows_in_range(indices, num_rows);
}

void check_rows_in_range(const std::vector<index_t>& rows, index_t num_rows) {
  for (index_t idx : rows) {
    ELREC_CHECK(idx >= 0 && idx < num_rows, "embedding index out of range");
  }
}

namespace {

using Keyed = std::pair<index_t, index_t>;  // (value, position)

// Below this many indices one comparison sort beats the radix passes: with
// the radix path forced, std::sort was faster at 64-80 indices for 20- and
// 22-bit values and the radix map from 96 on at every width up to 22 bits
// (EXPERIMENTS.md, "Radix dedup cutoff").
constexpr std::size_t kRadixMinIndices = 96;
constexpr int kMaxDigitBits = 11;

// Per-thread sort scratch: grows to the largest batch the thread has
// deduplicated and is reused by every later call.
struct SortScratch {
  std::vector<Keyed> keyed[2];
  std::vector<index_t> counts;  // one histogram per pass
};

SortScratch& sort_scratch() {
  thread_local SortScratch scratch;
  return scratch;
}

// (value, position) pairs of `indices` in (value, position) order, in the
// calling thread's scratch. Non-negative batches of at least
// kRadixMinIndices take a stable LSD radix sort by value over the values'
// bit width: positions enter ascending and every pass is stable, so the
// order is the one std::sort gives. Small or negative batches take
// std::sort.
const Keyed* sort_by_value(const std::vector<index_t>& indices) {
  const std::size_t n = indices.size();
  SortScratch& s = sort_scratch();
  for (auto& buf : s.keyed) {
    if (buf.size() < n) buf.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.keyed[0][i] = {indices[i], static_cast<index_t>(i)};
  }
  const auto comparison_sort = [&] {
    std::sort(s.keyed[0].begin(), s.keyed[0].begin() + n);
    return s.keyed[0].data();
  };
  if (n < kRadixMinIndices) return comparison_sort();
  const auto [lo, hi] = std::minmax_element(indices.begin(), indices.end());
  if (*lo < 0) return comparison_sort();
  // Digits are at most kMaxDigitBits and at most n's bit width wide, spread
  // evenly over the passes, so each pass clears and scans a histogram of
  // at most about 2n buckets (2048 at most): values of a 203k-row table
  // take 2 passes of 9 bits in a batch of 2048 or more, 3 passes of 6 bits
  // in a batch of 100.
  const int bits = std::bit_width(static_cast<std::uint64_t>(*hi));
  const int widest =
      std::min(kMaxDigitBits, static_cast<int>(std::bit_width(n)));
  const int passes = (bits + widest - 1) / widest;  // 0 if all are 0
  const int digit_bits = passes == 0 ? 0 : (bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const auto digit = [digit_bits, buckets](index_t v, int pass) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(v) >>
                                    (pass * digit_bits)) &
           (buckets - 1);
  };
  s.counts.assign(static_cast<std::size_t>(passes) * buckets, 0);
  for (index_t v : indices) {
    for (int p = 0; p < passes; ++p) ++s.counts[p * buckets + digit(v, p)];
  }
  int src = 0;
  for (int p = 0; p < passes; ++p) {
    index_t* count = s.counts.data() + p * buckets;
    index_t next = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const index_t c = count[b];
      count[b] = next;
      next += c;
    }
    const Keyed* in = s.keyed[src].data();
    Keyed* out = s.keyed[1 - src].data();
    for (std::size_t i = 0; i < n; ++i) {
      out[count[digit(in[i].first, p)]++] = in[i];
    }
    src = 1 - src;
  }
  return s.keyed[src].data();
}

}  // namespace

UniqueIndexMap build_unique_index_map(const std::vector<index_t>& indices) {
  // (value, position) pairs sorted by value, then position; a single walk
  // gives each run of equal values the next rank and scatters it to the
  // run's positions.
  const std::size_t n = indices.size();
  const Keyed* keyed = sort_by_value(indices);
  UniqueIndexMap map;
  map.occurrence.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [value, pos] = keyed[i];
    if (map.unique.empty() || map.unique.back() != value) {
      map.unique.push_back(value);
    }
    map.occurrence[static_cast<std::size_t>(pos)] =
        static_cast<index_t>(map.unique.size() - 1);
  }
  return map;
}

void pool_unique_rows(const IndexBatch& batch,
                      const std::vector<index_t>& occurrence,
                      const Matrix& unique_rows, Matrix& out) {
  const index_t b = batch.batch_size();
  const index_t n = unique_rows.cols();
  out.resize(b, n);  // zero-filled: every bag sums from zero
  parallel_for(index_t{0}, b, b >= 256, [&](index_t s) {
    float* dst = out.row(s);
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      const float* src =
          unique_rows.row(occurrence[static_cast<std::size_t>(pos)]);
#pragma omp simd
      for (index_t j = 0; j < n; ++j) dst[j] += src[j];
    }
  });
}

}  // namespace elrec
