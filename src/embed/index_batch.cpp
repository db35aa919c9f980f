#include "embed/index_batch.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

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
  for (index_t idx : indices) {
    ELREC_CHECK(idx >= 0 && idx < num_rows, "embedding index out of range");
  }
}

UniqueIndexMap build_unique_index_map(const std::vector<index_t>& indices) {
  // One sort of (value, position) pairs; a single walk then gives each run
  // of equal values the next rank and scatters it to the run's positions.
  const std::size_t n = indices.size();
  std::vector<std::pair<index_t, index_t>> keyed(n);
  for (std::size_t i = 0; i < n; ++i) {
    keyed[i] = {indices[i], static_cast<index_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  UniqueIndexMap map;
  map.occurrence.resize(n);
  for (const auto& [value, pos] : keyed) {
    if (map.unique.empty() || map.unique.back() != value) {
      map.unique.push_back(value);
    }
    map.occurrence[static_cast<std::size_t>(pos)] =
        static_cast<index_t>(map.unique.size() - 1);
  }
  return map;
}

}  // namespace elrec
