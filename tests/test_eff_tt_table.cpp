// Tests for the Eff-TT table (the paper's contribution): numerical
// equivalence with the dense materialization and the TT-Rec baseline under
// every configuration of the three optimizations, reuse statistics,
// Algorithm 1 pointer preparation, and the index bijection.
#include <gtest/gtest.h>

#include <cmath>

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

// ---------------------------------------------------------------------------
// Core gradients of the slice-owned backward against a double-precision
// reference that differentiates every occurrence on its own. One SGD step
// with lr = 1 turns the cores' change into the gradient: old - new.
// ---------------------------------------------------------------------------

// Core-shaped dL/dC_k in double: for every occurrence (row, bag gradient g),
// dC_k[i_k](r, j, r') += sum_{a, b} L(a, r) g((a n_k + j) Q + b) R(r', b),
// where L (P x R_k) is the product of cores 0..k-1 and R (R_{k+1} x Q) the
// product of cores k+1..d-1 at the row's slices.
std::vector<std::vector<double>> reference_core_grads(const TTCores& cores,
                                                      const IndexBatch& batch,
                                                      const Matrix& grad) {
  const TTShape& shape = cores.shape();
  const int d = shape.num_cores();
  std::vector<std::vector<double>> out(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    out[static_cast<std::size_t>(k)].assign(
        static_cast<std::size_t>(cores.core(k).size()), 0.0);
  }
  std::vector<index_t> parts(static_cast<std::size_t>(d));
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* g = grad.row(s);
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      shape.factorize_row(batch.indices[static_cast<std::size_t>(pos)], parts);
      // left[k]: P_{k-1} x R_k (P_{-1} = 1); right[k]: R_{k+1} x Q_{k+1}.
      std::vector<std::vector<double>> left(static_cast<std::size_t>(d) + 1);
      std::vector<std::vector<double>> right(static_cast<std::size_t>(d));
      std::vector<index_t> p_rows(static_cast<std::size_t>(d) + 1, 1);
      std::vector<index_t> q_cols(static_cast<std::size_t>(d) + 1, 1);
      left[0] = {1.0};
      for (int k = 0; k < d; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        const index_t rk = shape.rank(k), nk = shape.col_factor(k);
        const index_t rn = shape.rank(k + 1);
        const float* c = cores.slice(k, parts[kk]);
        p_rows[kk + 1] = p_rows[kk] * nk;
        left[kk + 1].assign(static_cast<std::size_t>(p_rows[kk + 1] * rn), 0.0);
        for (index_t a = 0; a < p_rows[kk]; ++a) {
          for (index_t r = 0; r < rk; ++r) {
            const double l = left[kk][static_cast<std::size_t>(a * rk + r)];
            for (index_t col = 0; col < nk * rn; ++col) {
              left[kk + 1][static_cast<std::size_t>(a * nk * rn + col)] +=
                  l * c[r * nk * rn + col];
            }
          }
        }
      }
      right[static_cast<std::size_t>(d) - 1] = {1.0};
      for (int k = d - 1; k >= 1; --k) {
        const auto kk = static_cast<std::size_t>(k);
        const index_t rk = shape.rank(k), nk = shape.col_factor(k);
        const index_t rn = shape.rank(k + 1);
        const float* c = cores.slice(k, parts[kk]);
        const index_t q = q_cols[kk + 1];
        q_cols[kk] = nk * q;
        right[kk - 1].assign(static_cast<std::size_t>(rk * nk * q), 0.0);
        for (index_t r = 0; r < rk; ++r) {
          for (index_t j = 0; j < nk; ++j) {
            for (index_t r2 = 0; r2 < rn; ++r2) {
              const double cv = c[r * nk * rn + j * rn + r2];
              for (index_t b = 0; b < q; ++b) {
                right[kk - 1][static_cast<std::size_t>(r * nk * q + j * q + b)] +=
                    cv * right[kk][static_cast<std::size_t>(r2 * q + b)];
              }
            }
          }
        }
      }
      for (int k = 0; k < d; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        const index_t rk = shape.rank(k), nk = shape.col_factor(k);
        const index_t rn = shape.rank(k + 1);
        const index_t p = p_rows[kk], q = q_cols[kk + 1];
        double* dst = out[kk].data() + parts[kk] * rk * nk * rn;
        for (index_t r = 0; r < rk; ++r) {
          for (index_t j = 0; j < nk; ++j) {
            for (index_t r2 = 0; r2 < rn; ++r2) {
              double acc = 0.0;
              for (index_t a = 0; a < p; ++a) {
                for (index_t b = 0; b < q; ++b) {
                  acc += left[kk][static_cast<std::size_t>(a * rk + r)] *
                         g[(a * nk + j) * q + b] *
                         right[kk][static_cast<std::size_t>(r2 * q + b)];
                }
              }
              dst[r * nk * rn + j * rn + r2] += acc;
            }
          }
        }
      }
    }
  }
  return out;
}

// One lr = 1 SGD step of an EffTTTable under every aggregation/fused-update
// combination: each core's change must match the reference gradient, and
// untouched slices must not move at all.
void expect_core_grads_match_reference(const TTCores& init, index_t num_rows,
                                       const IndexBatch& batch,
                                       const Matrix& grad) {
  const auto want = reference_core_grads(init, batch, grad);
  for (int p = 0; p < 4; ++p) {
    const EffTTConfig config{true, (p & 1) != 0, (p & 2) != 0};
    EffTTTable table(num_rows, init, config);
    Matrix out;
    table.forward(batch, out);
    table.backward_and_update(batch, grad, 1.0f);
    for (int k = 0; k < init.shape().num_cores(); ++k) {
      const auto& ref = want[static_cast<std::size_t>(k)];
      double scale = 0.0;
      for (double v : ref) scale = std::max(scale, std::fabs(v));
      ASSERT_GT(scale, 0.0) << "core " << k;
      const float* before = init.core(k).data();
      const float* after = table.cores().core(k).data();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] == 0.0) {
          ASSERT_EQ(after[i], before[i])
              << "untouched entry moved: core " << k << " entry " << i;
          continue;
        }
        const double got = static_cast<double>(before[i]) - after[i];
        ASSERT_NEAR(got, ref[i], 2e-5 * scale + 1e-7)
            << "core " << k << " entry " << i << " config " << p;
      }
    }
  }
}

Matrix random_grad(index_t rows, index_t cols, std::uint64_t seed) {
  Prng rng(seed);
  Matrix g(rows, cols);
  g.fill_normal(rng, 0.0f, 0.5f);
  return g;
}

TTCores random_cores_of(const TTShape& shape, std::uint64_t seed) {
  Prng rng(seed);
  TTCores cores(shape);
  cores.init_normal(rng, 0.3f);
  return cores;
}

// Multi-hot bags of 1..4 rows, with repeats across and within bags.
IndexBatch multi_hot_batch(index_t num_rows, index_t bags, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<std::vector<index_t>> b(static_cast<std::size_t>(bags));
  for (auto& bag : b) {
    const int len = 1 + static_cast<int>(rng.uniform_index(4));
    for (int i = 0; i < len; ++i) {
      bag.push_back(rng.uniform() < 0.3
                        ? static_cast<index_t>(rng.uniform_index(16))
                        : static_cast<index_t>(rng.uniform_index(
                              static_cast<std::uint64_t>(num_rows))));
    }
  }
  return IndexBatch::from_bags(b);
}

TEST(SliceOwnedBackward, CoreGradsMatchDoubleReferenceThreeCores) {
  // The pipelined Eff-TT training shape: dim 16, rank 16.
  const index_t rows = 5000;
  const TTShape shape = TTShape::balanced(rows, 16, 3, 16);
  const IndexBatch batch = multi_hot_batch(rows, 96, 21);
  expect_core_grads_match_reference(random_cores_of(shape, 3), rows, batch,
                                    random_grad(96, 16, 4));
}

TEST(SliceOwnedBackward, CoreGradsMatchDoubleReferenceFourCores) {
  const index_t rows = 4096;
  const TTShape shape = TTShape::balanced(rows, 16, 4, 8);
  ASSERT_EQ(shape.num_cores(), 4);
  const IndexBatch batch = multi_hot_batch(rows, 96, 22);
  expect_core_grads_match_reference(random_cores_of(shape, 5), rows, batch,
                                    random_grad(96, 16, 6));
}

TEST(SliceOwnedBackward, EveryRowInOneLastCoreSlice) {
  // Every row selects i2 = 5: one group holds the whole batch, and every
  // prefix is distinct.
  const TTShape shape({6, 5, 8}, {2, 2, 4}, {1, 16, 16, 1});
  const index_t m3 = shape.row_factor(2);
  std::vector<std::vector<index_t>> bags;
  for (index_t prefix = 0; prefix < 30; ++prefix) {
    bags.push_back({prefix * m3 + 5});
    if (prefix % 3 == 0) bags.back().push_back(prefix * m3 + 5);  // repeat
  }
  const IndexBatch batch = IndexBatch::from_bags(bags);
  expect_core_grads_match_reference(
      random_cores_of(shape, 7), shape.padded_rows(), batch,
      random_grad(batch.batch_size(), shape.dim(), 8));
}

TEST(SliceOwnedBackward, EveryRowInOnePrefix) {
  // All rows share (i0, i1) = (2, 3): one prefix run spans the batch, so
  // cores 0 and 1 each get a single product over the run's summed dP12.
  const TTShape shape({6, 5, 40}, {2, 2, 4}, {1, 16, 16, 1});
  const index_t m3 = shape.row_factor(2);
  const index_t prefix = 2 * shape.row_factor(1) + 3;
  std::vector<std::vector<index_t>> bags;
  for (index_t i2 = 0; i2 < m3; ++i2) {
    bags.push_back({prefix * m3 + (i2 * 7) % m3, prefix * m3 + i2});
  }
  const IndexBatch batch = IndexBatch::from_bags(bags);
  expect_core_grads_match_reference(
      random_cores_of(shape, 9), shape.padded_rows(), batch,
      random_grad(batch.batch_size(), shape.dim(), 10));
}

TEST(SliceOwnedBackward, AllRowsDistinct) {
  const TTShape shape({6, 5, 8}, {2, 2, 4}, {1, 16, 16, 1});
  std::vector<index_t> rows;
  for (index_t r = 0; r < shape.padded_rows(); r += 3) rows.push_back(r);
  const IndexBatch batch = IndexBatch::one_per_sample(rows);
  expect_core_grads_match_reference(
      random_cores_of(shape, 11), shape.padded_rows(), batch,
      random_grad(batch.batch_size(), shape.dim(), 12));
}

}  // namespace
}  // namespace elrec
