// Tests for the embedding substrate: IndexBatch, unique-index mapping, and
// the dense EmbeddingBag baseline (forward pooling + SGD backward).
#include <gtest/gtest.h>

#include <algorithm>

#include "data/zipf.hpp"
#include "embed/embedding_bag.hpp"
#include "embed/index_batch.hpp"

namespace elrec {
namespace {

TEST(IndexBatch, OnePerSample) {
  const IndexBatch b = IndexBatch::one_per_sample({5, 3, 9});
  EXPECT_EQ(b.batch_size(), 3);
  EXPECT_EQ(b.bag_size(1), 1);
  EXPECT_EQ(b.indices[static_cast<std::size_t>(b.bag_begin(2))], 9);
}

TEST(IndexBatch, FromBagsHandlesEmptyBags) {
  const IndexBatch b = IndexBatch::from_bags({{1, 2}, {}, {3}});
  EXPECT_EQ(b.batch_size(), 3);
  EXPECT_EQ(b.bag_size(0), 2);
  EXPECT_EQ(b.bag_size(1), 0);
  EXPECT_EQ(b.bag_size(2), 1);
  EXPECT_NO_THROW(b.validate(10));
}

TEST(IndexBatch, ValidateRejectsOutOfRange) {
  const IndexBatch b = IndexBatch::one_per_sample({0, 11});
  EXPECT_THROW(b.validate(10), Error);
  EXPECT_NO_THROW(b.validate(12));
}

TEST(IndexBatch, ValidateRejectsNegative) {
  const IndexBatch b = IndexBatch::one_per_sample({-1});
  EXPECT_THROW(b.validate(10), Error);
}

TEST(IndexBatch, ValidateRejectsBadOffsets) {
  IndexBatch b;
  b.indices = {1, 2};
  b.offsets = {0, 2, 1};  // decreasing
  EXPECT_THROW(b.validate(10), Error);
  b.offsets = {1, 2};  // does not start at 0
  EXPECT_THROW(b.validate(10), Error);
}

TEST(UniqueIndexMap, SortedUniqueAndOccurrences) {
  const auto m = build_unique_index_map({7, 3, 7, 1, 3, 3});
  ASSERT_EQ(m.unique.size(), 3u);
  EXPECT_EQ(m.unique[0], 1);
  EXPECT_EQ(m.unique[1], 3);
  EXPECT_EQ(m.unique[2], 7);
  EXPECT_EQ(m.occurrence[0], 2);  // 7
  EXPECT_EQ(m.occurrence[1], 1);  // 3
  EXPECT_EQ(m.occurrence[3], 0);  // 1
}

TEST(UniqueIndexMap, EmptyInput) {
  const auto m = build_unique_index_map({});
  EXPECT_TRUE(m.unique.empty());
  EXPECT_TRUE(m.occurrence.empty());
}

// The previous implementation: sort + unique, then one lower_bound per
// occurrence.
UniqueIndexMap reference_unique_map(const std::vector<index_t>& indices) {
  UniqueIndexMap map;
  map.unique = indices;
  std::sort(map.unique.begin(), map.unique.end());
  map.unique.erase(std::unique(map.unique.begin(), map.unique.end()),
                   map.unique.end());
  map.occurrence.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto it =
        std::lower_bound(map.unique.begin(), map.unique.end(), indices[i]);
    map.occurrence[i] = static_cast<index_t>(it - map.unique.begin());
  }
  return map;
}

void expect_matches_reference(const std::vector<index_t>& indices) {
  const UniqueIndexMap got = build_unique_index_map(indices);
  const UniqueIndexMap want = reference_unique_map(indices);
  EXPECT_EQ(got.unique, want.unique);
  EXPECT_EQ(got.occurrence, want.occurrence);
}

TEST(UniqueIndexMap, MatchesSortLowerBoundReference) {
  Prng rng(3);
  const ZipfSampler zipf(100000, 1.05, rng);
  std::vector<index_t> skewed(8192);
  for (index_t& v : skewed) v = zipf.sample(rng);
  expect_matches_reference(skewed);
  expect_matches_reference({});
  expect_matches_reference({42});
  expect_matches_reference(std::vector<index_t>(1000, 7));
  std::vector<index_t> descending(500);
  for (std::size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<index_t>(2000 - 3 * i);
  }
  expect_matches_reference(descending);
  // Descending with every value repeated.
  std::vector<index_t> repeated;
  for (index_t v : descending) repeated.insert(repeated.end(), 3, v);
  expect_matches_reference(repeated);
}

TEST(EmbeddingBag, ForwardGathersRows) {
  Prng rng(1);
  EmbeddingBag bag(10, 4, rng);
  Matrix out;
  bag.forward(IndexBatch::one_per_sample({3, 7}), out);
  ASSERT_EQ(out.rows(), 2);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), bag.weights().at(3, j));
    EXPECT_FLOAT_EQ(out.at(1, j), bag.weights().at(7, j));
  }
}

TEST(EmbeddingBag, ForwardSumsBags) {
  Prng rng(2);
  EmbeddingBag bag(10, 4, rng);
  Matrix out;
  bag.forward(IndexBatch::from_bags({{1, 2, 2}}), out);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.at(0, j),
                bag.weights().at(1, j) + 2.0f * bag.weights().at(2, j), 1e-5f);
  }
}

TEST(EmbeddingBag, EmptyBagYieldsZeroRow) {
  Prng rng(3);
  EmbeddingBag bag(10, 4, rng);
  Matrix out;
  bag.forward(IndexBatch::from_bags({{}}), out);
  for (index_t j = 0; j < 4; ++j) EXPECT_EQ(out.at(0, j), 0.0f);
}

TEST(EmbeddingBag, BackwardAppliesSgd) {
  Prng rng(4);
  EmbeddingBag bag(10, 2, rng);
  const float before = bag.weights().at(5, 0);
  Matrix grad{{1.0f, 0.0f}};
  bag.backward_and_update(IndexBatch::one_per_sample({5}), grad, 0.1f);
  EXPECT_NEAR(bag.weights().at(5, 0), before - 0.1f, 1e-6f);
}

TEST(EmbeddingBag, DuplicateIndexAccumulatesGradient) {
  Prng rng(5);
  EmbeddingBag bag(10, 2, rng);
  const float before = bag.weights().at(5, 0);
  // Same row appears in two samples AND twice in one bag: 3 contributions.
  Matrix grad{{1.0f, 0.0f}, {1.0f, 0.0f}};
  bag.backward_and_update(IndexBatch::from_bags({{5, 5}, {5}}), grad, 0.1f);
  EXPECT_NEAR(bag.weights().at(5, 0), before - 0.3f, 1e-6f);
}

TEST(EmbeddingBag, ParameterBytes) {
  Prng rng(6);
  EmbeddingBag bag(100, 8, rng);
  EXPECT_EQ(bag.parameter_bytes(), 100u * 8u * sizeof(float));
}

TEST(EmbeddingBag, GradShapeMismatchThrows) {
  Prng rng(7);
  EmbeddingBag bag(10, 4, rng);
  Matrix grad(1, 3);  // wrong dim
  EXPECT_THROW(
      bag.backward_and_update(IndexBatch::one_per_sample({1}), grad, 0.1f),
      Error);
}

}  // namespace
}  // namespace elrec
