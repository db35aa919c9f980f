// Broad randomized property sweeps tying the whole stack together:
//  * Eff-TT == dense-materialization == TT-Rec baseline across a grid of
//    (rank, batch size, skew) drawn from seeded generators,
//  * pipeline-vs-oracle equivalence fuzzed over seeds and queue depths,
//  * TT-SVD -> EffTT round trip: a table decomposed at full rank behaves
//    exactly like the original dense table inside a DLRM forward pass.
#include <gtest/gtest.h>

#include <cmath>

#include "core/eff_tt_table.hpp"
#include "pipeline/pipeline_trainer.hpp"
#include "pipeline_test_util.hpp"
#include "tt/tt_svd.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

struct SweepCase {
  std::uint64_t seed;
  index_t rank;
  index_t batch;
  double skew;  // quadratic-power exponent for index draws
};

class EffTTPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EffTTPropertySweep, ForwardAndBackwardEquivalence) {
  const SweepCase& c = GetParam();
  const index_t rows = 3000;
  const index_t dim = 16;
  const TTShape shape = TTShape::balanced(rows, dim, 3, c.rank);

  Prng init(c.seed);
  TTCores cores(shape);
  cores.init_normal(init, 0.15f);
  EffTTTable eff(rows, cores);
  TTTable base(rows, cores);

  Prng rng(c.seed ^ 0xabcdef);
  for (int step = 0; step < 3; ++step) {
    std::vector<index_t> idx;
    for (index_t i = 0; i < c.batch; ++i) {
      const double u = rng.uniform();
      idx.push_back(static_cast<index_t>(std::pow(u, c.skew) * (rows - 1)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    Matrix grad(c.batch, dim);
    grad.fill_normal(rng, 0.0f, 0.05f);

    Matrix oe, ob;
    eff.forward(batch, oe);
    base.forward(batch, ob);
    ASSERT_LT(Matrix::max_abs_diff(oe, ob), 1e-3f)
        << "seed " << c.seed << " step " << step;
    eff.backward_and_update(batch, grad, 0.02f);
    base.backward_and_update(batch, grad, 0.02f);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-3f)
        << "seed " << c.seed << " core " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankBatchSkewGrid, EffTTPropertySweep,
    ::testing::Values(SweepCase{1, 2, 64, 1.0}, SweepCase{2, 4, 256, 2.0},
                      SweepCase{3, 8, 128, 3.0}, SweepCase{4, 16, 512, 2.0},
                      SweepCase{5, 8, 32, 1.0}, SweepCase{6, 4, 1024, 4.0},
                      SweepCase{7, 16, 64, 1.0}, SweepCase{8, 2, 512, 3.0}));

// ---------------------------------------------------------------------

// 16 bytes with extra_stores = 0, so the one-store cases print — and are
// named — exactly as before the store count was a parameter.
struct FuzzCase {
  std::uint64_t seed;
  std::int32_t depth;
  std::int32_t extra_stores;  // host stores beyond the first
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PipelineFuzz, AlwaysMatchesSequentialOracle) {
  const FuzzCase& c = GetParam();
  const index_t rows = 32, dim = 3;
  Prng gen(c.seed);
  const index_t num_batches = 20 + static_cast<index_t>(gen.uniform_index(30));
  // Each store draws its own batch stream from the shared generator.
  std::vector<testutil::BatchList> batches(
      static_cast<std::size_t>(1 + c.extra_stores));
  for (auto& store_batches : batches) {
    for (index_t b = 0; b < num_batches; ++b) {
      std::vector<index_t> unique;
      for (index_t i = 0; i < rows; ++i) {
        if (gen.bernoulli(0.4)) unique.push_back(i);
      }
      if (unique.empty()) unique.push_back(static_cast<index_t>(b % rows));
      store_batches.push_back(std::move(unique));
    }
  }

  // Depends on the CURRENT parameter value and the batch id, so any
  // staleness shifts the trajectory.
  const ComputeStep compute = testutil::row_compute(
      [](float value, index_t index, index_t batch_id, float coupling) {
        return value * 0.5f +
               0.01f * static_cast<float>((batch_id + index) % 7) + coupling;
      });
  const std::vector<testutil::StoreShape> shapes(batches.size(), {rows, dim});

  auto oracle = testutil::make_stores(shapes, c.seed ^ 0x5ca1ab1e);
  testutil::run_sequential_oracle(oracle, batches, compute, 0.2f);

  auto stores = testutil::make_stores(shapes, c.seed ^ 0x5ca1ab1e);
  PipelineConfig cfg;
  cfg.queue_capacity = c.depth;
  cfg.lr = 0.2f;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  trainer.run(num_batches, testutil::list_source(batches), compute);

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_LT(Matrix::max_abs_diff(stores[s].weights(), oracle[s].weights()),
              1e-5f)
        << "seed " << c.seed << " depth " << c.depth << " store " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDepths, PipelineFuzz,
    ::testing::Values(FuzzCase{11, 1, 0}, FuzzCase{12, 2, 0},
                      FuzzCase{13, 3, 0}, FuzzCase{14, 5, 0},
                      FuzzCase{15, 8, 0}, FuzzCase{16, 13, 0},
                      FuzzCase{17, 2, 0}, FuzzCase{18, 4, 0},
                      FuzzCase{19, 7, 0}, FuzzCase{20, 6, 0},
                      FuzzCase{21, 1, 1}, FuzzCase{22, 3, 1},
                      FuzzCase{23, 8, 1}, FuzzCase{24, 13, 1}));

// ---------------------------------------------------------------------

TEST(TTSvdRoundTrip, DecomposedTableIsDropInEquivalent) {
  // Dense table -> TT-SVD at full rank -> EffTTTable: lookups agree with
  // the original to float precision, so a pretrained dense model can be
  // converted (the TT-Rec / EL-Rec warm-start path).
  Prng rng(31);
  Matrix table(60, 12);
  table.fill_normal(rng, 0.0f, 0.1f);
  const TTCores cores = tt_svd(table, {4, 4, 4}, {2, 2, 3}, 64);
  EffTTTable eff(60, cores);

  Prng idx_rng(32);
  std::vector<index_t> idx;
  for (int i = 0; i < 64; ++i) {
    idx.push_back(static_cast<index_t>(idx_rng.uniform_index(60)));
  }
  Matrix out;
  eff.forward(IndexBatch::one_per_sample(idx), out);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    for (index_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(out.at(static_cast<index_t>(i), j),
                  table.at(idx[i], j), 1e-3f);
    }
  }
}

}  // namespace
}  // namespace elrec
