// Tests for the Eff-TT table (the paper's contribution): numerical
// equivalence with the dense materialization and the TT-Rec baseline under
// every configuration of the three optimizations, reuse statistics,
// Algorithm 1 pointer preparation, and the index bijection.
#include <gtest/gtest.h>

#include "core/eff_tt_table.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

TTShape small_shape() { return TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}); }

TTCores random_cores(std::uint64_t seed, TTShape shape = small_shape()) {
  Prng rng(seed);
  TTCores cores(std::move(shape));
  cores.init_normal(rng, 0.2f);
  return cores;
}

// All 8 optimization on/off combinations.
class EffTTConfigTest : public ::testing::TestWithParam<int> {
 protected:
  EffTTConfig config() const {
    const int p = GetParam();
    return EffTTConfig{(p & 1) != 0, (p & 2) != 0, (p & 4) != 0};
  }
};

TEST_P(EffTTConfigTest, ForwardMatchesMaterializedTable) {
  EffTTTable table(55, random_cores(11), config());
  const Matrix dense = table.cores().materialize(55);
  const IndexBatch batch =
      IndexBatch::from_bags({{0}, {54}, {7, 7, 12}, {}, {3, 3, 3, 3}});
  Matrix out;
  table.forward(batch, out);
  ASSERT_EQ(out.rows(), 5);
  for (index_t j = 0; j < 12; ++j) {
    EXPECT_NEAR(out.at(0, j), dense.at(0, j), 1e-4f);
    EXPECT_NEAR(out.at(1, j), dense.at(54, j), 1e-4f);
    EXPECT_NEAR(out.at(2, j), 2.0f * dense.at(7, j) + dense.at(12, j), 1e-4f);
    EXPECT_EQ(out.at(3, j), 0.0f);
    EXPECT_NEAR(out.at(4, j), 4.0f * dense.at(3, j), 1e-4f);
  }
}

TEST_P(EffTTConfigTest, BackwardMatchesBaselineTTTable) {
  // Same initial cores, same batch, same lr -> parameters must agree with
  // the TT-Rec baseline regardless of which optimizations are enabled (the
  // optimizations change the schedule, not the math).
  const TTCores init = random_cores(13);
  EffTTTable eff(55, init, config());
  TTTable base(55, init);

  Prng rng(99);
  const IndexBatch batch =
      IndexBatch::from_bags({{1, 9, 9}, {9}, {20, 1}, {44, 44, 44}});
  Matrix grad(4, 12);
  grad.fill_normal(rng);

  Matrix out_eff, out_base;
  eff.forward(batch, out_eff);
  base.forward(batch, out_base);
  EXPECT_LT(Matrix::max_abs_diff(out_eff, out_base), 1e-4f);

  eff.backward_and_update(batch, grad, 0.05f);
  base.backward_and_update(batch, grad, 0.05f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f)
        << "core " << k;
  }
}

TEST_P(EffTTConfigTest, MultiStepTrainingStaysEquivalent) {
  const TTCores init = random_cores(17);
  EffTTTable eff(55, init, config());
  TTTable base(55, init);
  Prng rng(5);

  for (int step = 0; step < 5; ++step) {
    std::vector<index_t> idx;
    for (int i = 0; i < 16; ++i) {
      idx.push_back(static_cast<index_t>(rng.uniform_index(55)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    Matrix grad(16, 12);
    grad.fill_normal(rng, 0.0f, 0.1f);

    Matrix out_eff, out_base;
    eff.forward(batch, out_eff);
    base.forward(batch, out_base);
    ASSERT_LT(Matrix::max_abs_diff(out_eff, out_base), 1e-3f) << "step " << step;
    eff.backward_and_update(batch, grad, 0.1f);
    base.backward_and_update(batch, grad, 0.1f);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, EffTTConfigTest, ::testing::Range(0, 8));

TEST(EffTTTable, RequiresThreeCores) {
  Prng rng(1);
  EXPECT_THROW(
      EffTTTable(16, TTShape({4, 4}, {2, 2}, {1, 2, 1}), rng),
      Error);
}

TEST(EffTTTable, StatsReflectDeduplication) {
  EffTTTable table(55, random_cores(19));
  // 6 indices, 3 unique rows {7, 12, 13}; prefixes (m3=5): 7/5=1, 12/5=2,
  // 13/5=2 -> 2 unique prefixes.
  const IndexBatch batch = IndexBatch::from_bags({{7, 7, 12}, {13, 12, 7}});
  Matrix out;
  table.forward(batch, out);
  const auto& s = table.last_stats();
  EXPECT_EQ(s.total_indices, 6);
  EXPECT_EQ(s.unique_rows, 3);
  EXPECT_EQ(s.unique_prefixes, 2);
}

TEST(EffTTTable, NoReuseStatsCountOccurrences) {
  EffTTTable table(55, random_cores(19), EffTTConfig{false, true, true});
  const IndexBatch batch = IndexBatch::from_bags({{7, 7, 12}, {13, 12, 7}});
  Matrix out;
  table.forward(batch, out);
  EXPECT_EQ(table.last_stats().unique_rows, 6);
  EXPECT_EQ(table.last_stats().unique_prefixes, 6);
}

TEST(PointerPrep, EmitsNullGapsForRepeatedPrefixes) {
  const TTCores cores = random_cores(23);
  ReuseBuffer buffer(3 * 4, 2 * 2 * 5);
  PointerPrepResult prep;
  // m3 = 5: rows 0..4 share prefix 0; row 5 has prefix 1.
  const std::vector<index_t> rows{0, 3, 5, 4};
  prepare_prefix_pointers(cores, rows, buffer, prep);
  EXPECT_EQ(prep.unique_prefixes, 2);
  EXPECT_NE(prep.ptr_c[0], nullptr);   // first claim of prefix 0
  EXPECT_EQ(prep.ptr_c[1], nullptr);   // repeat of prefix 0
  EXPECT_NE(prep.ptr_c[2], nullptr);   // prefix 1
  EXPECT_EQ(prep.ptr_c[3], nullptr);   // repeat of prefix 0
  EXPECT_EQ(prep.slot_of[0], prep.slot_of[1]);
  EXPECT_EQ(prep.slot_of[0], prep.slot_of[3]);
  EXPECT_NE(prep.slot_of[0], prep.slot_of[2]);
}

TEST(ReuseBufferTest, EpochInvalidatesClaims) {
  ReuseBuffer buffer(10, 4);
  buffer.begin_batch(4);
  auto [s0, first0] = buffer.claim(3);
  EXPECT_TRUE(first0);
  auto [s1, first1] = buffer.claim(3);
  EXPECT_FALSE(first1);
  EXPECT_EQ(s0, s1);
  buffer.begin_batch(4);
  auto [s2, first2] = buffer.claim(3);
  EXPECT_TRUE(first2);
  EXPECT_EQ(buffer.num_slots(), 1);
  static_cast<void>(s2);
}

TEST(ReuseBufferTest, SlotPointersStableAcrossClaims) {
  // Regression: claims must never reallocate the backing store — pointer
  // lists prepared for batched GEMM would dangle.
  ReuseBuffer buffer(100, 8);
  buffer.begin_batch(100);
  const float* first = buffer.slot_data(buffer.claim(0).first);
  for (index_t p = 1; p < 100; ++p) buffer.claim(p);
  EXPECT_EQ(buffer.slot_data(0), first);
  EXPECT_EQ(buffer.num_slots(), 100);
}

TEST(ReuseBufferTest, OverClaimingThrows) {
  ReuseBuffer buffer(10, 4);
  buffer.begin_batch(1);
  buffer.claim(0);
  EXPECT_THROW(buffer.claim(1), Error);
}

TEST(EffTTTable, BijectionValidation) {
  EffTTTable table(55, random_cores(29));
  std::vector<index_t> bad(55, 0);  // not a bijection
  EXPECT_THROW(table.set_index_bijection(bad), Error);
  std::vector<index_t> wrong_size(54);
  EXPECT_THROW(table.set_index_bijection(wrong_size), Error);
  std::vector<index_t> ok(55);
  for (index_t i = 0; i < 55; ++i) ok[static_cast<std::size_t>(i)] = 54 - i;
  EXPECT_NO_THROW(table.set_index_bijection(ok));
  EXPECT_TRUE(table.has_index_bijection());
}

TEST(EffTTTable, BijectionRemapsLookups) {
  EffTTTable table(55, random_cores(31));
  const Matrix dense = table.cores().materialize(55);
  std::vector<index_t> mapping(55);
  for (index_t i = 0; i < 55; ++i) {
    mapping[static_cast<std::size_t>(i)] = (i * 7 + 3) % 55;  // a permutation
  }
  table.set_index_bijection(mapping);
  Matrix out;
  table.forward(IndexBatch::one_per_sample({10}), out);
  const index_t remapped = mapping[10];
  for (index_t j = 0; j < 12; ++j) {
    EXPECT_NEAR(out.at(0, j), dense.at(remapped, j), 1e-5f);
  }
}

TEST(EffTTTable, MaterializeRowsMatchesOneAtATimeAndForward) {
  // Unsorted rows with repeats, through a bijection: every materialized row
  // is bitwise the row materialized alone and the row forward() pools.
  EffTTTable table(55, random_cores(43));
  std::vector<index_t> mapping(55);
  for (index_t i = 0; i < 55; ++i) {
    mapping[static_cast<std::size_t>(i)] = (i * 7 + 3) % 55;
  }
  table.set_index_bijection(mapping);
  const std::vector<index_t> rows{41, 3, 17, 3, 54, 0, 41, 41};
  auto ctx = table.make_lookup_context();
  Matrix values;
  table.materialize_rows(rows, values, ctx.get());
  ASSERT_EQ(values.rows(), static_cast<index_t>(rows.size()));
  ASSERT_EQ(values.cols(), 12);

  Matrix pooled;
  table.forward(IndexBatch::one_per_sample(rows), pooled);
  Matrix one;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.materialize_rows({rows[i]}, one, ctx.get());
    for (index_t j = 0; j < 12; ++j) {
      const auto r = static_cast<index_t>(i);
      EXPECT_EQ(values.at(r, j), one.at(0, j)) << "row " << i;
      EXPECT_EQ(values.at(r, j), pooled.at(r, j)) << "row " << i;
    }
  }
}

TEST(EffTTTable, MaterializeRowsRejectsOutOfRangeRows) {
  const EffTTTable table(55, random_cores(47));
  auto ctx = table.make_lookup_context();
  Matrix values;
  EXPECT_THROW(table.materialize_rows({3, 55}, values, ctx.get()), Error);
  EXPECT_THROW(table.materialize_rows({-1}, values, ctx.get()), Error);
  EXPECT_THROW(table.materialize_rows({3}, values, nullptr), Error);
}

TEST(EffTTTable, BijectionPreservesTrainingSemantics) {
  // Training with a bijection must behave like training the baseline on the
  // remapped index stream.
  std::vector<index_t> mapping(55);
  for (index_t i = 0; i < 55; ++i) {
    mapping[static_cast<std::size_t>(i)] = (i * 13 + 5) % 55;
  }
  const TTCores init = random_cores(37);
  EffTTTable eff(55, init);
  eff.set_index_bijection(mapping);
  TTTable base(55, init);

  const std::vector<index_t> raw{4, 9, 4, 50};
  std::vector<index_t> remapped;
  for (index_t i : raw) remapped.push_back(mapping[static_cast<std::size_t>(i)]);

  Prng rng(3);
  Matrix grad(4, 12);
  grad.fill_normal(rng);
  Matrix out_eff, out_base;
  eff.forward(IndexBatch::one_per_sample(raw), out_eff);
  base.forward(IndexBatch::one_per_sample(remapped), out_base);
  EXPECT_LT(Matrix::max_abs_diff(out_eff, out_base), 1e-4f);
  eff.backward_and_update(IndexBatch::one_per_sample(raw), grad, 0.1f);
  base.backward_and_update(IndexBatch::one_per_sample(remapped), grad, 0.1f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f);
  }
}

TEST(EffTTTable, BackwardWithoutForwardStillCorrect) {
  // backward_and_update must not depend on forward's cached state.
  const TTCores init = random_cores(41);
  EffTTTable eff(55, init);
  TTTable base(55, init);
  const IndexBatch batch = IndexBatch::one_per_sample({2, 2, 30});
  Prng rng(4);
  Matrix grad(3, 12);
  grad.fill_normal(rng);
  eff.backward_and_update(batch, grad, 0.1f);
  Matrix tmp;
  base.forward(batch, tmp);
  base.backward_and_update(batch, grad, 0.1f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f);
  }
}

TEST(EffTTTable, LargeSkewedBatchStressEquivalence) {
  // Heavy duplication (Zipf-ish draws) across a bigger table.
  const TTShape shape = TTShape::balanced(5000, 12, 3, 8);
  Prng init_rng(55);
  TTCores cores(shape);
  cores.init_normal(init_rng, 0.1f);
  EffTTTable eff(5000, cores);
  TTTable base(5000, cores);

  Prng rng(77);
  std::vector<index_t> idx;
  for (int i = 0; i < 512; ++i) {
    // Quadratic skew toward small indices.
    const double u = rng.uniform();
    idx.push_back(static_cast<index_t>(u * u * 4999));
  }
  const IndexBatch batch = IndexBatch::one_per_sample(idx);
  Matrix grad(512, 12);
  grad.fill_normal(rng, 0.0f, 0.05f);

  Matrix oe, ob;
  eff.forward(batch, oe);
  base.forward(batch, ob);
  EXPECT_LT(Matrix::max_abs_diff(oe, ob), 1e-3f);
  EXPECT_LT(eff.last_stats().unique_rows, 512);  // dedup must have happened

  eff.backward_and_update(batch, grad, 0.01f);
  base.backward_and_update(batch, grad, 0.01f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-3f);
  }
}

}  // namespace
}  // namespace elrec
