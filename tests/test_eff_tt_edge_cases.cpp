// Edge-case and property sweeps for the Eff-TT table: degenerate shapes
// (rank 1, unit factors), boundary rows, padded vocabularies, empty
// batches, and a parameterized equivalence sweep across shape/rank/batch
// combinations against both the dense materialization and the baseline.
#include <gtest/gtest.h>

#include "core/eff_tt_table.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

struct ShapeCase {
  std::vector<index_t> row_factors;
  std::vector<index_t> col_factors;
  std::vector<index_t> ranks;
  index_t num_rows;
};

// Prints the factors, e.g. "m3x3x3_n2x2x2_r1x1x1x1". Without it gtest prints
// the raw bytes, which hold the vectors' heap addresses, so the test names
// changed from one build to the next.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  const auto dims = [os](const std::vector<index_t>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) *os << (i ? "x" : "") << v[i];
  };
  *os << "m";
  dims(c.row_factors);
  *os << "_n";
  dims(c.col_factors);
  *os << "_r";
  dims(c.ranks);
}

class EffTTShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(EffTTShapeSweep, ForwardMatchesMaterialization) {
  const ShapeCase& c = GetParam();
  Prng rng(7);
  EffTTTable table(c.num_rows,
                   TTShape(c.row_factors, c.col_factors, c.ranks), rng, {},
                   0.3f);
  const Matrix dense = table.cores().materialize(c.num_rows);
  // Every row, one bag each, plus a duplicate-heavy bag.
  std::vector<std::vector<index_t>> bags;
  for (index_t r = 0; r < c.num_rows; ++r) bags.push_back({r});
  bags.push_back({0, c.num_rows - 1, 0});
  const IndexBatch batch = IndexBatch::from_bags(bags);
  Matrix out;
  table.forward(batch, out);
  for (index_t r = 0; r < c.num_rows; ++r) {
    for (index_t j = 0; j < dense.cols(); ++j) {
      EXPECT_NEAR(out.at(r, j), dense.at(r, j), 1e-4f)
          << "row " << r << " col " << j;
    }
  }
  for (index_t j = 0; j < dense.cols(); ++j) {
    EXPECT_NEAR(out.at(c.num_rows, j),
                2.0f * dense.at(0, j) + dense.at(c.num_rows - 1, j), 1e-4f);
  }
}

TEST_P(EffTTShapeSweep, BackwardMatchesBaseline) {
  const ShapeCase& c = GetParam();
  Prng init(9);
  TTCores cores(TTShape(c.row_factors, c.col_factors, c.ranks));
  cores.init_normal(init, 0.3f);
  EffTTTable eff(c.num_rows, cores);
  TTTable base(c.num_rows, cores);

  Prng rng(11);
  std::vector<index_t> idx;
  for (int i = 0; i < 9; ++i) {
    idx.push_back(static_cast<index_t>(rng.uniform_index(
        static_cast<std::uint64_t>(c.num_rows))));
  }
  const IndexBatch batch = IndexBatch::one_per_sample(idx);
  Matrix grad(9, eff.dim());
  grad.fill_normal(rng, 0.0f, 0.2f);
  Matrix oe, ob;
  eff.forward(batch, oe);
  base.forward(batch, ob);
  eff.backward_and_update(batch, grad, 0.1f);
  base.backward_and_update(batch, grad, 0.1f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegenerateAndTypicalShapes, EffTTShapeSweep,
    ::testing::Values(
        // Rank-1 decomposition (pure outer products).
        ShapeCase{{3, 3, 3}, {2, 2, 2}, {1, 1, 1, 1}, 27},
        // Unit column factor in the middle (n_2 == 1).
        ShapeCase{{3, 4, 3}, {2, 1, 4}, {1, 3, 3, 1}, 36},
        // Unit ROW factor in the middle (m_2 == 1).
        ShapeCase{{5, 1, 6}, {2, 2, 2}, {1, 4, 4, 1}, 30},
        // First factor 1.
        ShapeCase{{1, 6, 5}, {2, 2, 2}, {1, 2, 2, 1}, 30},
        // Asymmetric ranks.
        ShapeCase{{4, 4, 4}, {2, 3, 2}, {1, 7, 2, 1}, 64},
        // Rank larger than any mode (over-parameterized).
        ShapeCase{{2, 2, 2}, {2, 2, 2}, {1, 16, 16, 1}, 8},
        // dim 1 columns everywhere.
        ShapeCase{{3, 3, 3}, {1, 1, 1}, {1, 2, 2, 1}, 27}));

TEST(EffTTEdge, SingleRowTable) {
  Prng rng(1);
  // num_rows == 1, padded to 2x2x2 = 8.
  EffTTTable table(1, TTShape({2, 2, 2}, {2, 2, 2}, {1, 2, 2, 1}), rng);
  Matrix out;
  table.forward(IndexBatch::one_per_sample({0, 0, 0}), out);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(table.last_stats().unique_rows, 1);
  Matrix grad(3, 8);
  grad.fill(0.1f);
  EXPECT_NO_THROW(table.backward_and_update(IndexBatch::one_per_sample({0, 0, 0}),
                                            grad, 0.1f));
}

TEST(EffTTEdge, EmptyBatchOfBags) {
  Prng rng(2);
  EffTTTable table(55, TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}), rng);
  const IndexBatch batch = IndexBatch::from_bags({{}, {}, {}});
  Matrix out;
  table.forward(batch, out);
  EXPECT_EQ(out.rows(), 3);
  for (index_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.data()[i], 0.0f);
  Matrix grad(3, 12);
  grad.fill(1.0f);
  const Matrix before0 = table.cores().core(0);
  table.backward_and_update(batch, grad, 0.5f);
  EXPECT_LT(Matrix::max_abs_diff(table.cores().core(0), before0), 1e-9f);
}

TEST(EffTTEdge, LastPaddedRowAccessible) {
  // num_rows == padded_rows: the very last index exercises the factorize
  // boundary.
  Prng rng(3);
  EffTTTable table(60, TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}), rng);
  const Matrix dense = table.cores().materialize(60);
  Matrix out;
  table.forward(IndexBatch::one_per_sample({59}), out);
  for (index_t j = 0; j < 12; ++j) {
    EXPECT_NEAR(out.at(0, j), dense.at(59, j), 1e-5f);
  }
}

TEST(EffTTEdge, RepeatedBackwardWithoutForward) {
  Prng rng(4);
  EffTTTable table(55, TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}), rng);
  Matrix grad(2, 12);
  grad.fill(0.01f);
  const IndexBatch batch = IndexBatch::one_per_sample({5, 6});
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(table.backward_and_update(batch, grad, 0.05f));
  }
}

TEST(EffTTEdge, AlternatingBatchSizesReuseInternalBuffers) {
  Prng rng(5);
  EffTTTable table(500, TTShape::balanced(500, 8, 3, 4), rng);
  Prng idx_rng(6);
  Matrix out;
  for (index_t size : {512, 16, 1024, 1, 256}) {
    std::vector<index_t> idx;
    for (index_t i = 0; i < size; ++i) {
      idx.push_back(static_cast<index_t>(idx_rng.uniform_index(500)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    table.forward(batch, out);
    EXPECT_EQ(out.rows(), size);
    Matrix grad(size, 8);
    grad.fill_normal(idx_rng, 0.0f, 0.01f);
    EXPECT_NO_THROW(table.backward_and_update(batch, grad, 0.01f));
  }
}

TEST(EffTTEdge, ZeroLearningRateLeavesParametersUntouched) {
  Prng rng(7);
  EffTTTable table(55, TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}), rng);
  const Matrix c0 = table.cores().core(0);
  const Matrix c1 = table.cores().core(1);
  const Matrix c2 = table.cores().core(2);
  Matrix grad(1, 12);
  grad.fill(100.0f);
  table.backward_and_update(IndexBatch::one_per_sample({17}), grad, 0.0f);
  EXPECT_LT(Matrix::max_abs_diff(table.cores().core(0), c0), 1e-9f);
  EXPECT_LT(Matrix::max_abs_diff(table.cores().core(1), c1), 1e-9f);
  EXPECT_LT(Matrix::max_abs_diff(table.cores().core(2), c2), 1e-9f);
}

// ---------------------------------------------------------------------
// Generic-d support (extension beyond the paper's fixed 3 cores): the
// reuse prefix still spans the first two cores; the remaining chain is
// applied per unique row.
// ---------------------------------------------------------------------

TEST(EffTTGenericD, FourCoreForwardMatchesMaterialization) {
  Prng rng(21);
  const TTShape shape({2, 3, 2, 3}, {2, 2, 2, 2}, {1, 3, 4, 3, 1});
  EffTTTable table(36, shape, rng, {}, 0.3f);
  const Matrix dense = table.cores().materialize(36);
  std::vector<std::vector<index_t>> bags;
  for (index_t r = 0; r < 36; ++r) bags.push_back({r});
  bags.push_back({5, 5, 30});
  Matrix out;
  table.forward(IndexBatch::from_bags(bags), out);
  for (index_t r = 0; r < 36; ++r) {
    for (index_t j = 0; j < 16; ++j) {
      EXPECT_NEAR(out.at(r, j), dense.at(r, j), 1e-4f) << "row " << r;
    }
  }
  for (index_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(out.at(36, j), 2.0f * dense.at(5, j) + dense.at(30, j), 1e-4f);
  }
  // Prefixes still dedup over the first two cores: rows 0..5 share i0=i1=0
  // for m = (2,3,2,3): suffix = 6, so rows 0-5 -> prefix 0.
  Matrix out2;
  table.forward(IndexBatch::one_per_sample({0, 1, 2, 3, 4, 5}), out2);
  EXPECT_EQ(table.last_stats().unique_prefixes, 1);
}

TEST(EffTTGenericD, FourCoreBackwardMatchesBaseline) {
  Prng init(22);
  TTCores cores(TTShape({2, 3, 2, 3}, {2, 2, 2, 2}, {1, 3, 4, 3, 1}));
  cores.init_normal(init, 0.3f);
  EffTTTable eff(36, cores);
  TTTable base(36, cores);

  Prng rng(23);
  for (int step = 0; step < 4; ++step) {
    std::vector<index_t> idx;
    for (int i = 0; i < 14; ++i) {
      idx.push_back(static_cast<index_t>(rng.uniform_index(36)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    Matrix grad(14, 16);
    grad.fill_normal(rng, 0.0f, 0.1f);
    Matrix oe, ob;
    eff.forward(batch, oe);
    base.forward(batch, ob);
    ASSERT_LT(Matrix::max_abs_diff(oe, ob), 1e-4f) << "step " << step;
    eff.backward_and_update(batch, grad, 0.05f);
    base.backward_and_update(batch, grad, 0.05f);
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f)
        << "core " << k;
  }
}

TEST(EffTTGenericD, FourCoreAblationsStayEquivalent) {
  for (int mask = 0; mask < 8; ++mask) {
    const EffTTConfig config{(mask & 1) != 0, (mask & 2) != 0,
                             (mask & 4) != 0};
    Prng init(24);
    TTCores cores(TTShape({3, 2, 2, 2}, {2, 2, 2, 2}, {1, 2, 3, 2, 1}));
    cores.init_normal(init, 0.3f);
    EffTTTable eff(24, cores, config);
    TTTable base(24, cores);
    const IndexBatch batch = IndexBatch::from_bags({{1, 9, 9}, {23}, {0, 1}});
    Prng rng(25);
    Matrix grad(3, 16);
    grad.fill_normal(rng, 0.0f, 0.2f);
    Matrix oe, ob;
    eff.forward(batch, oe);
    base.forward(batch, ob);
    ASSERT_LT(Matrix::max_abs_diff(oe, ob), 1e-4f) << "mask " << mask;
    eff.backward_and_update(batch, grad, 0.1f);
    base.backward_and_update(batch, grad, 0.1f);
    for (int k = 0; k < 4; ++k) {
      EXPECT_LT(
          Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
          1e-4f)
          << "mask " << mask << " core " << k;
    }
  }
}

TEST(EffTTGenericD, TwoCoreShapeRejected) {
  Prng rng(26);
  EXPECT_THROW(
      EffTTTable(16, TTShape({4, 4}, {2, 2}, {1, 2, 1}), rng), Error);
}

TEST(EffTTEdge, WholeVocabularyBatch) {
  // A batch hitting every row exactly once: unique == total, prefix count
  // equals the number of distinct (i1, i2) pairs.
  Prng rng(8);
  const TTShape shape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1});
  EffTTTable table(60, shape, rng);
  std::vector<index_t> all(60);
  for (index_t i = 0; i < 60; ++i) all[static_cast<std::size_t>(i)] = i;
  Matrix out;
  table.forward(IndexBatch::one_per_sample(all), out);
  EXPECT_EQ(table.last_stats().unique_rows, 60);
  EXPECT_EQ(table.last_stats().unique_prefixes, 12);  // 3 * 4 prefixes
}

}  // namespace
}  // namespace elrec
