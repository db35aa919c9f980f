// Tests for the optimizer layer: rule correctness, region updates, the
// Eff-TT fused Adagrad vs the TT-Rec baseline's unfused pass, sparse
// inactive-safety, and MLP training with each rule.
#include <gtest/gtest.h>

#include <cmath>

#include "core/eff_tt_table.hpp"
#include "dlrm/mlp.hpp"
#include "embed/embedding_bag.hpp"
#include "tensor/optimizer.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

TEST(Optimizer, SgdStep) {
  OptimizerState opt(OptimizerConfig{}, 3);
  std::vector<float> w{1.0f, 2.0f, 3.0f};
  std::vector<float> g{1.0f, -1.0f, 0.5f};
  opt.update(w, g, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 0.9f);
  EXPECT_FLOAT_EQ(w[1], 2.1f);
  EXPECT_FLOAT_EQ(w[2], 2.95f);
}

TEST(Optimizer, MomentumAccumulatesVelocity) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.momentum = 0.5f;
  OptimizerState opt(cfg, 1);
  std::vector<float> w{0.0f};
  std::vector<float> g{1.0f};
  opt.update(w, g, 1.0f);  // v=1, w=-1
  EXPECT_FLOAT_EQ(w[0], -1.0f);
  opt.update(w, g, 1.0f);  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(w[0], -2.5f);
}

TEST(Optimizer, AdagradScalesByAccumulatedSquare) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.eps = 0.0f;
  OptimizerState opt(cfg, 1);
  std::vector<float> w{0.0f};
  std::vector<float> g{2.0f};
  opt.update(w, g, 1.0f);  // s=4, step = 2/2 = 1
  EXPECT_FLOAT_EQ(w[0], -1.0f);
  opt.update(w, g, 1.0f);  // s=8, step = 2/sqrt(8)
  EXPECT_NEAR(w[0], -1.0f - 2.0f / std::sqrt(8.0f), 1e-6f);
}

TEST(Optimizer, AdagradIsInactiveSafe) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  OptimizerState opt(cfg, 2);
  std::vector<float> w{1.0f, 1.0f};
  std::vector<float> g{0.0f, 1.0f};
  opt.update(w, g, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 1.0f);  // zero gradient -> no movement
  EXPECT_LT(w[1], 1.0f);
}

TEST(Optimizer, RegionUpdateKeepsIndependentState) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.eps = 0.0f;
  OptimizerState opt(cfg, 4);
  std::vector<float> w{0.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> g{1.0f, 1.0f};
  // Update region [2, 4) twice; region [0, 2) once.
  opt.update_region(w.data() + 2, g.data(), 2, 2, 1.0f);
  opt.update_region(w.data() + 2, g.data(), 2, 2, 1.0f);
  opt.update_region(w.data(), g.data(), 0, 2, 1.0f);
  EXPECT_FLOAT_EQ(w[0], -1.0f);                        // fresh state
  EXPECT_NEAR(w[2], -1.0f - 1.0f / std::sqrt(2.0f), 1e-6f);  // second step damped
}

TEST(EmbeddingBagOptimizer, AdagradAggregatesDuplicates) {
  // With torch-sparse semantics, a row appearing twice gets ONE update with
  // the summed gradient, not two sequential updates.
  Prng rng(1);
  EmbeddingBag bag(10, 1, rng, 0.0f);  // zero-initialized
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.eps = 0.0f;
  bag.set_optimizer(cfg);
  Matrix grad{{1.0f}, {1.0f}};
  bag.backward_and_update(IndexBatch::one_per_sample({5, 5}), grad, 1.0f);
  // Aggregated gradient 2 -> s=4, step = 2/2 = 1.
  EXPECT_FLOAT_EQ(bag.weights().at(5, 0), -1.0f);
}

TEST(TTTableOptimizer, MomentumRejected) {
  Prng rng(2);
  TTTable table(24, TTShape({2, 3, 4}, {2, 2, 2}, {1, 3, 3, 1}), rng);
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  EXPECT_THROW(table.set_optimizer(cfg), Error);
  EffTTTable eff(24, TTShape({2, 3, 4}, {2, 2, 2}, {1, 3, 3, 1}), rng);
  EXPECT_THROW(eff.set_optimizer(cfg), Error);
}

TEST(TTTableOptimizer, EffTTAdagradMatchesBaseline) {
  // The fused Adagrad in EffTT (touched slices only) must equal the
  // baseline's dense pass (untouched entries have g=0, so Adagrad leaves
  // them alone).
  Prng init_rng(3);
  TTCores cores(TTShape({3, 4, 5}, {2, 2, 3}, {1, 4, 5, 1}));
  cores.init_normal(init_rng, 0.2f);
  EffTTTable eff(55, cores);
  TTTable base(55, cores);
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  eff.set_optimizer(cfg);
  base.set_optimizer(cfg);

  Prng rng(4);
  for (int step = 0; step < 4; ++step) {
    std::vector<index_t> idx;
    for (int i = 0; i < 12; ++i) {
      idx.push_back(static_cast<index_t>(rng.uniform_index(55)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    Matrix grad(12, 12);
    grad.fill_normal(rng, 0.0f, 0.1f);
    Matrix oe, ob;
    eff.forward(batch, oe);
    base.forward(batch, ob);
    eff.backward_and_update(batch, grad, 0.1f);
    base.backward_and_update(batch, grad, 0.1f);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f);
  }
}

TEST(TTTableOptimizer, AdagradConvergesOnRowTarget) {
  Prng rng(5);
  EffTTTable table(24, TTShape({2, 3, 4}, {2, 2, 2}, {1, 4, 4, 1}), rng, {},
                   0.3f);
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  table.set_optimizer(cfg);
  const IndexBatch batch = IndexBatch::one_per_sample({13});
  auto err = [&] {
    Matrix out;
    table.forward(batch, out);
    double e = 0.0;
    for (index_t j = 0; j < 8; ++j) {
      const double d = out.at(0, j) - 0.5;
      e += d * d;
    }
    return e;
  };
  const double before = err();
  for (int step = 0; step < 100; ++step) {
    Matrix out;
    table.forward(batch, out);
    Matrix grad(1, 8);
    for (index_t j = 0; j < 8; ++j) grad.at(0, j) = out.at(0, j) - 0.5f;
    table.backward_and_update(batch, grad, 0.3f);
  }
  EXPECT_LT(err(), before * 0.1);
}

TEST(MlpOptimizer, AdagradAndMomentumTrainQuadratic) {
  // Fit y = x through a linear MLP under each optimizer; all must converge.
  for (OptimizerKind kind : {OptimizerKind::kSgd, OptimizerKind::kMomentum,
                             OptimizerKind::kAdagrad}) {
    Prng rng(6);
    Mlp mlp({2, 4, 1}, rng);
    OptimizerConfig cfg;
    cfg.kind = kind;
    mlp.set_optimizer(cfg);
    Prng data_rng(7);
    double last = 0.0;
    for (int step = 0; step < 400; ++step) {
      Matrix x(8, 2);
      x.fill_normal(data_rng);
      Matrix y;
      mlp.forward(x, y);
      Matrix grad(8, 1);
      double loss = 0.0;
      for (index_t i = 0; i < 8; ++i) {
        const float target = x.at(i, 0) - x.at(i, 1);
        const float diff = y.at(i, 0) - target;
        loss += 0.5 * diff * diff;
        grad.at(i, 0) = diff / 8.0f;
      }
      mlp.backward_and_update(grad, nullptr,
                              kind == OptimizerKind::kAdagrad ? 0.5f : 0.05f);
      last = loss / 8.0;
    }
    EXPECT_LT(last, 0.05) << "optimizer kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace elrec
