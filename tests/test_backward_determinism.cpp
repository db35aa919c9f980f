// Bitwise determinism of the parallel Eff-TT backward: the unique rows of a
// batch are split into a FIXED number of contiguous shards (independent of
// the OpenMP thread count) and the shards merge in shard order, so training
// the same table on the same stream must produce byte-identical cores at any
// thread count. PR 1's crash-safe checkpoint/resume replays batches and
// compares parameters exactly — this property is what makes that valid.
// The DLRM feature interaction, split across threads by sample, is held to
// the same contract.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/eff_tt_table.hpp"
#include "dlrm/interaction.hpp"
#include "embed/index_batch.hpp"

namespace elrec {
namespace {

constexpr index_t kRows = 5000;
constexpr index_t kDim = 16;
constexpr index_t kRank = 8;

// Batches big enough that the parallel shard path (u >= 2 * shards) and the
// parallel aggregation path actually engage, with repeats so in-advance
// aggregation has multi-occurrence rows to segment-sum.
std::vector<IndexBatch> make_batches(std::uint64_t seed, int count,
                                     index_t batch_size) {
  Prng rng(seed);
  std::vector<IndexBatch> batches;
  for (int b = 0; b < count; ++b) {
    std::vector<std::vector<index_t>> bags(
        static_cast<std::size_t>(batch_size));
    for (auto& bag : bags) {
      const int len = 1 + static_cast<int>(rng.uniform_index(3));
      for (int i = 0; i < len; ++i) {
        // Skewed: half the draws land in a hot prefix of 64 rows.
        const index_t row =
            rng.uniform() < 0.5
                ? static_cast<index_t>(rng.uniform_index(64))
                : static_cast<index_t>(rng.uniform_index(kRows));
        bag.push_back(row);
      }
    }
    batches.push_back(IndexBatch::from_bags(bags));
  }
  return batches;
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// Trains a fresh identically-seeded table for `steps` on the shared stream
// under `threads` OpenMP threads and returns it.
EffTTTable train(int threads, const std::vector<IndexBatch>& batches,
                 const std::vector<Matrix>& grads, EffTTConfig config,
                 OptimizerConfig opt = {}) {
  set_threads(threads);
  Prng rng(42);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng,
                   config);
  table.set_optimizer(opt);
  Matrix out;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    table.forward(batches[i], out);
    table.backward_and_update(batches[i], grads[i], 0.05f);
  }
  set_threads(1);
  return table;
}

void expect_cores_bitwise_equal(EffTTTable& a, EffTTTable& b) {
  ASSERT_EQ(a.cores().shape().num_cores(), b.cores().shape().num_cores());
  for (int k = 0; k < a.cores().shape().num_cores(); ++k) {
    EXPECT_EQ(Matrix::max_abs_diff(a.cores().core(k), b.cores().core(k)), 0.0f)
        << "core " << k << " differs across thread counts";
  }
}

class BackwardDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batches_ = make_batches(7, 4, 256);
    Prng grad_rng(9);
    for (const IndexBatch& b : batches_) {
      Matrix g(b.batch_size(), kDim);
      g.fill_normal(grad_rng, 0.0f, 0.1f);
      grads_.push_back(std::move(g));
    }
  }

  std::vector<IndexBatch> batches_;
  std::vector<Matrix> grads_;
};

TEST_F(BackwardDeterminismTest, FusedSgdBitwiseAcrossThreadCounts) {
  EffTTTable t1 = train(1, batches_, grads_, EffTTConfig{});
  EffTTTable t4 = train(4, batches_, grads_, EffTTConfig{});
  EffTTTable t8 = train(8, batches_, grads_, EffTTConfig{});
  expect_cores_bitwise_equal(t1, t4);
  expect_cores_bitwise_equal(t1, t8);
}

TEST_F(BackwardDeterminismTest, AdagradBitwiseAcrossThreadCounts) {
  OptimizerConfig opt;
  opt.kind = OptimizerKind::kAdagrad;
  EffTTTable t1 = train(1, batches_, grads_, EffTTConfig{}, opt);
  EffTTTable t4 = train(4, batches_, grads_, EffTTConfig{}, opt);
  expect_cores_bitwise_equal(t1, t4);
}

TEST_F(BackwardDeterminismTest, AblationPathsBitwiseAcrossThreadCounts) {
  // Every ablation (aggregation off, fused update off) must hold the same
  // invariant; their backward loops run through the same sharded machinery
  // or a strictly serial path.
  for (int p = 0; p < 4; ++p) {
    EffTTConfig config{true, (p & 1) != 0, (p & 2) != 0};
    EffTTTable t1 = train(1, batches_, grads_, config);
    EffTTTable t4 = train(4, batches_, grads_, config);
    expect_cores_bitwise_equal(t1, t4);
  }
}

TEST_F(BackwardDeterminismTest, RepeatedRunsAreBitwiseReproducible) {
  // Same thread count twice — guards against any hidden nondeterminism
  // (uninitialised scratch, iteration-order dependence on reused buffers).
  EffTTTable a = train(4, batches_, grads_, EffTTConfig{});
  EffTTTable b = train(4, batches_, grads_, EffTTConfig{});
  expect_cores_bitwise_equal(a, b);
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

struct InteractionRun {
  Matrix out;
  Matrix frozen_out;
  std::vector<Matrix> grads;
};

InteractionRun run_interaction(int threads, const std::vector<Matrix>& feats,
                               const Matrix& grad_out) {
  set_threads(threads);
  std::vector<const Matrix*> ptrs;
  for (const Matrix& f : feats) ptrs.push_back(&f);
  FeatureInteraction inter(static_cast<index_t>(feats.size()), feats[0].cols());
  InteractionRun run;
  inter.forward(ptrs, run.out);
  inter.backward(grad_out, run.grads);
  Matrix stacked;
  inter.forward_frozen(ptrs, run.frozen_out, stacked);
  set_threads(1);
  return run;
}

TEST(InteractionDeterminism, ForwardAndBackwardBitwiseAt1And3Threads) {
  // Batch 512 is above the sample-parallel threshold (256).
  constexpr index_t kBatch = 512;
  constexpr index_t kFeatures = 9;
  Prng rng(17);
  std::vector<Matrix> feats(kFeatures);
  for (Matrix& f : feats) {
    f.resize(kBatch, kDim);
    f.fill_normal(rng);
  }
  FeatureInteraction shape(kFeatures, kDim);
  Matrix grad_out(kBatch, shape.output_dim());
  grad_out.fill_normal(rng);
  // Exact zeros exercise the skipped-pair path.
  for (index_t i = 0; i < grad_out.size(); i += 7) grad_out.data()[i] = 0.0f;

  const InteractionRun t1 = run_interaction(1, feats, grad_out);
  const InteractionRun t3 = run_interaction(3, feats, grad_out);
  EXPECT_TRUE(bitwise_equal(t1.out, t3.out));
  EXPECT_TRUE(bitwise_equal(t1.frozen_out, t3.frozen_out));
  EXPECT_TRUE(bitwise_equal(t1.out, t1.frozen_out));
  ASSERT_EQ(t1.grads.size(), t3.grads.size());
  for (std::size_t f = 0; f < t1.grads.size(); ++f) {
    EXPECT_TRUE(bitwise_equal(t1.grads[f], t3.grads[f])) << "feature " << f;
  }
}

}  // namespace
}  // namespace elrec
