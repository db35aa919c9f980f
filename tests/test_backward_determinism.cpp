// Bitwise determinism of the parallel Eff-TT backward: each touched
// core-gradient slice is owned by one thread, which sums its group of rows
// (a stable counting sort of the batch) in ascending row order, so training
// the same table on the same stream must produce byte-identical cores at any
// thread count. Crash-safe checkpoint/resume replays batches and compares
// parameters exactly — this property is what makes that valid.
// The DLRM feature interaction, split across threads by sample, and the MLP
// train step (k-split weight gradients, packed input gradients, row-parallel
// bias+ReLU) are held to the same contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/eff_tt_table.hpp"
#include "data/zipf.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/mlp.hpp"
#include "embed/index_batch.hpp"

namespace elrec {
namespace {

constexpr index_t kRows = 5000;
constexpr index_t kDim = 16;
constexpr index_t kRank = 8;

// Batches big enough that the parallel slice-owned chain rule and the
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
  // invariant; the per-occurrence ablation runs through the same
  // slice-owned chain rule, over occurrences instead of unique rows.
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

// A multi-hot Zipf batch whose draws land, half the time, in one slice
// `hot` of the last core: that slice's group is far larger than the others
// (its stacked product splits k), and the hottest prefixes repeat.
IndexBatch hot_slice_batch(const TTShape& shape, index_t rows, index_t hot,
                           index_t batch_size) {
  const index_t m_last = shape.row_factor(shape.num_cores() - 1);
  Prng rng(13);
  const ZipfSampler zipf(rows, 1.05, rng);
  std::vector<std::vector<index_t>> bags(static_cast<std::size_t>(batch_size));
  for (auto& bag : bags) {
    const int len = 1 + static_cast<int>(rng.uniform_index(3));
    for (int i = 0; i < len; ++i) {
      index_t row = zipf.sample(rng);
      if (rng.uniform() < 0.5) {
        row = std::min(row / m_last * m_last + hot, rows - 1);
      }
      bag.push_back(row);
    }
  }
  return IndexBatch::from_bags(bags);
}

struct SliceOwnedRun {
  std::vector<Matrix> cores;
  std::vector<std::vector<index_t>> touched;
};

// One training step of a fresh identically-seeded table under `threads`
// OpenMP threads (one step keeps the test affordable under TSan).
SliceOwnedRun train_slice_owned(int threads, const TTShape& shape,
                                index_t rows, const IndexBatch& batch,
                                EffTTConfig config) {
  set_threads(threads);
  Prng rng(42);
  EffTTTable table(rows, shape, rng, config);
  Prng grad_rng(9);
  Matrix g(batch.batch_size(), shape.dim());
  g.fill_normal(grad_rng, 0.0f, 0.1f);
  Matrix out;
  table.forward(batch, out);
  table.backward_and_update(batch, g, 0.05f);
  set_threads(1);
  SliceOwnedRun run;
  for (int k = 0; k < shape.num_cores(); ++k) {
    run.cores.push_back(table.cores().core(k));
    const auto t = table.touched_slices(k);
    run.touched.emplace_back(t.begin(), t.end());
  }
  return run;
}

TEST_F(BackwardDeterminismTest, HotSliceZipfBitwiseAt1And3And4Threads) {
  // The pipelined Eff-TT training shape (dim 16, rank 16) with and without
  // in-advance aggregation, and a 4-core shape. Few cases: under TSan every
  // multi-threaded step costs about a minute.
  constexpr index_t kZipfRows = 20000;
  constexpr index_t kHot = 3;
  struct Case {
    TTShape shape;
    bool aggregate;
  };
  const Case cases[] = {{TTShape::balanced(kZipfRows, 16, 3, 16), true},
                        {TTShape::balanced(kZipfRows, 16, 3, 16), false},
                        {TTShape::balanced(kZipfRows, 16, 4, 8), true}};
  for (const Case& c : cases) {
    const TTShape& shape = c.shape;
    const IndexBatch batch = hot_slice_batch(shape, kZipfRows, kHot, 384);
    // The hot slice's group must be big: more than 64 unique rows.
    const int last = shape.num_cores() - 1;
    std::vector<index_t> hot_rows;
    for (index_t r : batch.indices) {
      if (r % shape.row_factor(last) == kHot) hot_rows.push_back(r);
    }
    std::sort(hot_rows.begin(), hot_rows.end());
    hot_rows.erase(std::unique(hot_rows.begin(), hot_rows.end()),
                   hot_rows.end());
    ASSERT_GT(hot_rows.size(), 64u) << shape.num_cores() << " cores";

    const EffTTConfig config{true, c.aggregate, true};
    const SliceOwnedRun t1 =
        train_slice_owned(1, shape, kZipfRows, batch, config);
    for (int k = 0; k < shape.num_cores(); ++k) {
      const auto& touched = t1.touched[static_cast<std::size_t>(k)];
      ASSERT_FALSE(touched.empty()) << "core " << k;
      EXPECT_TRUE(std::adjacent_find(touched.begin(), touched.end(),
                                     std::greater_equal<index_t>()) ==
                  touched.end())
          << "core " << k << " touched list not ascending and unique";
    }
    for (const int threads : {3, 4}) {
      const SliceOwnedRun tn =
          train_slice_owned(threads, shape, kZipfRows, batch, config);
      for (int k = 0; k < shape.num_cores(); ++k) {
        const auto kk = static_cast<std::size_t>(k);
        EXPECT_TRUE(bitwise_equal(t1.cores[kk], tn.cores[kk]))
            << shape.num_cores() << " cores, core " << k << ", aggregate "
            << c.aggregate << ", " << threads << " threads";
        EXPECT_EQ(t1.touched[kk], tn.touched[kk]);
      }
    }
  }
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

struct MlpRun {
  Matrix out;
  Matrix frozen_out;
  Matrix grad_in;
  std::vector<Matrix> weights;
  std::vector<std::vector<float>> biases;
};

// Two SGD train steps of a fresh identically-seeded MLP under `threads`
// OpenMP threads, then a frozen forward of the trained weights.
MlpRun run_mlp(int threads, const std::vector<index_t>& sizes, const Matrix& in,
               const Matrix& grad_out) {
  set_threads(threads);
  Prng rng(23);
  Mlp mlp(sizes, rng);
  MlpRun run;
  for (int step = 0; step < 2; ++step) {
    mlp.forward(in, run.out);
    mlp.backward_and_update(grad_out, &run.grad_in, 0.05f);
  }
  Matrix scratch_a, scratch_b;
  mlp.forward_frozen(in, run.frozen_out, scratch_a, scratch_b);
  for (int l = 0; l < mlp.num_layers(); ++l) {
    run.weights.push_back(mlp.weight(l));
    run.biases.push_back(mlp.bias(l));
  }
  set_threads(1);
  return run;
}

TEST(MlpDeterminism, TrainStepBitwiseAt1And3And4Threads) {
  // The bottom and top MLP shapes of the pipelined Eff-TT training benchmark
  // at its batch: the weight gradients split k across threads, the input
  // gradients take the packed NT path, and the bias(+ReLU) epilogue is
  // row-parallel.
  constexpr index_t kBatch = 4096;
  const std::vector<std::vector<index_t>> shapes = {{13, 64, 32, 16},
                                                    {52, 64, 32, 1}};
  Prng rng(31);
  for (const auto& sizes : shapes) {
    Matrix in(kBatch, sizes.front()), grad_out(kBatch, sizes.back());
    in.fill_normal(rng);
    grad_out.fill_normal(rng, 0.0f, 0.01f);
    const MlpRun t1 = run_mlp(1, sizes, in, grad_out);
    for (const int threads : {3, 4}) {
      const MlpRun tn = run_mlp(threads, sizes, in, grad_out);
      EXPECT_TRUE(bitwise_equal(t1.out, tn.out)) << threads << " threads";
      EXPECT_TRUE(bitwise_equal(t1.frozen_out, tn.frozen_out))
          << threads << " threads";
      EXPECT_TRUE(bitwise_equal(t1.grad_in, tn.grad_in))
          << threads << " threads";
      for (std::size_t l = 0; l < t1.weights.size(); ++l) {
        EXPECT_TRUE(bitwise_equal(t1.weights[l], tn.weights[l]))
            << "layer " << l << " weights at " << threads << " threads";
        ASSERT_EQ(t1.biases[l].size(), tn.biases[l].size());
        EXPECT_EQ(std::memcmp(t1.biases[l].data(), tn.biases[l].data(),
                              t1.biases[l].size() * sizeof(float)),
                  0)
            << "layer " << l << " bias at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace elrec
