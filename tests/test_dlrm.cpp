// Tests for the DLRM substrate: MLP and interaction finite-difference
// gradient checks, BCE loss, metrics, and end-to-end model training with
// dense / Eff-TT embedding tables (the drop-in-replacement property).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/eff_tt_table.hpp"
#include "tt/tt_svd.hpp"
#include "dlrm/dlrm_model.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/metrics.hpp"
#include "embed/embedding_bag.hpp"

namespace elrec {
namespace {

TEST(Mlp, ForwardShapesAndDeterminism) {
  Prng rng(1);
  Mlp mlp({4, 8, 3}, rng);
  Matrix in(5, 4);
  in.fill_normal(rng);
  Matrix out1, out2;
  mlp.forward(in, out1);
  mlp.forward(in, out2);
  EXPECT_EQ(out1.rows(), 5);
  EXPECT_EQ(out1.cols(), 3);
  EXPECT_LT(Matrix::max_abs_diff(out1, out2), 1e-7f);
}

TEST(Mlp, InputDimMismatchThrows) {
  Prng rng(2);
  Mlp mlp({4, 3}, rng);
  Matrix in(5, 3);
  Matrix out;
  EXPECT_THROW(mlp.forward(in, out), Error);
}

// FD check of the weight gradients through L = sum(out .* W).
TEST(Mlp, WeightGradientsMatchFiniteDifferences) {
  Prng rng(3);
  const std::vector<index_t> sizes{3, 6, 4, 2};
  Mlp mlp(sizes, rng);
  Matrix in(4, 3);
  in.fill_normal(rng);
  Matrix lossw(4, 2);
  lossw.fill_normal(rng);

  auto loss = [&](Mlp& m) {
    Matrix out;
    m.forward(in, out);
    double l = 0.0;
    for (index_t i = 0; i < out.size(); ++i) {
      l += static_cast<double>(out.data()[i]) * lossw.data()[i];
    }
    return l;
  };

  Mlp updated = mlp;
  Matrix out, gin;
  updated.forward(in, out);
  updated.backward_and_update(lossw, &gin, 1.0f);  // lr=1: grad = old - new

  const float eps = 1e-3f;
  for (int l = 0; l < 3; ++l) {
    Matrix& w = mlp.weight(l);
    for (index_t e = 0; e < w.size();
         e += std::max<index_t>(1, w.size() / 5)) {
      Mlp plus = mlp;
      Mlp minus = mlp;
      plus.weight(l).data()[e] += eps;
      minus.weight(l).data()[e] -= eps;
      const double fd = (loss(plus) - loss(minus)) / (2.0 * eps);
      const double analytic = static_cast<double>(w.data()[e]) -
                              updated.weight(l).data()[e];
      EXPECT_NEAR(analytic, fd, 5e-2 * (1.0 + std::abs(fd)))
          << "layer " << l << " entry " << e;
    }
  }
}

// FD check of the input gradient.
TEST(Mlp, InputGradientMatchesFiniteDifferences) {
  Prng rng(4);
  Mlp mlp({3, 5, 2}, rng);
  Matrix in(2, 3);
  in.fill_normal(rng);
  Matrix lossw(2, 2);
  lossw.fill_normal(rng);

  Mlp work = mlp;
  Matrix out, gin;
  work.forward(in, out);
  work.backward_and_update(lossw, &gin, 0.0f);  // lr=0: params unchanged

  const float eps = 1e-3f;
  for (index_t e = 0; e < in.size(); ++e) {
    Matrix plus = in, minus = in;
    plus.data()[e] += eps;
    minus.data()[e] -= eps;
    Matrix op, om;
    Mlp m1 = mlp, m2 = mlp;
    m1.forward(plus, op);
    m2.forward(minus, om);
    double lp = 0.0, lm = 0.0;
    for (index_t i = 0; i < op.size(); ++i) {
      lp += static_cast<double>(op.data()[i]) * lossw.data()[i];
      lm += static_cast<double>(om.data()[i]) * lossw.data()[i];
    }
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(gin.data()[e], fd, 5e-2 * (1.0 + std::abs(fd)));
  }
}

TEST(Mlp, SkippingInputGradientLeavesUpdateUnchanged) {
  Prng rng(6);
  const Mlp base({13, 32, 16}, rng);
  Matrix in(64, 13);
  in.fill_normal(rng);
  Matrix grad_out(64, 16);
  grad_out.fill_normal(rng);
  auto params_after_step = [&](Matrix* grad_in) {
    Mlp mlp = base;
    Matrix out;
    mlp.forward(in, out);
    mlp.backward_and_update(grad_out, grad_in, 0.1f);
    std::vector<float> params;
    mlp.visit_parameters([&](float* p, std::size_t n) {
      params.insert(params.end(), p, p + n);
    });
    return params;
  };
  Matrix gin;
  const std::vector<float> with = params_after_step(&gin);
  const std::vector<float> without = params_after_step(nullptr);
  EXPECT_EQ(gin.rows(), 64);
  EXPECT_EQ(gin.cols(), 13);
  ASSERT_EQ(with.size(), without.size());
  EXPECT_EQ(std::memcmp(with.data(), without.data(),
                        with.size() * sizeof(float)),
            0);
}

TEST(Interaction, OutputLayoutAndValues) {
  FeatureInteraction inter(3, 2);
  Matrix f0{{1.0f, 0.0f}};
  Matrix f1{{0.0f, 2.0f}};
  Matrix f2{{3.0f, 4.0f}};
  Matrix out;
  inter.forward({&f0, &f1, &f2}, out);
  ASSERT_EQ(out.cols(), 2 + 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);  // dense passthrough
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 0.0f);  // <f0, f1>
  EXPECT_FLOAT_EQ(out.at(0, 3), 3.0f);  // <f0, f2>
  EXPECT_FLOAT_EQ(out.at(0, 4), 8.0f);  // <f1, f2>
}

TEST(Interaction, BackwardMatchesFiniteDifferences) {
  Prng rng(5);
  const index_t b = 3, d = 4, F = 3;
  std::vector<Matrix> feats(static_cast<std::size_t>(F));
  std::vector<const Matrix*> ptrs;
  for (auto& f : feats) {
    f.resize(b, d);
    f.fill_normal(rng);
    ptrs.push_back(&f);
  }
  FeatureInteraction inter(F, d);
  Matrix out;
  inter.forward(ptrs, out);
  Matrix lossw(b, inter.output_dim());
  lossw.fill_normal(rng);
  std::vector<Matrix> grads;
  inter.backward(lossw, grads);

  auto loss_at = [&](index_t f, index_t e, float delta) {
    std::vector<Matrix> copy = feats;
    copy[static_cast<std::size_t>(f)].data()[e] += delta;
    std::vector<const Matrix*> p;
    for (auto& m : copy) p.push_back(&m);
    FeatureInteraction tmp(F, d);
    Matrix o;
    tmp.forward(p, o);
    double l = 0.0;
    for (index_t i = 0; i < o.size(); ++i) {
      l += static_cast<double>(o.data()[i]) * lossw.data()[i];
    }
    return l;
  };

  const float eps = 1e-3f;
  for (index_t f = 0; f < F; ++f) {
    for (index_t e = 0; e < b * d; e += 3) {
      const double fd =
          (loss_at(f, e, eps) - loss_at(f, e, -eps)) / (2.0 * eps);
      EXPECT_NEAR(grads[static_cast<std::size_t>(f)].data()[e], fd,
                  5e-2 * (1.0 + std::abs(fd)));
    }
  }
}

TEST(Loss, BceMatchesClosedForm) {
  Matrix logits{{0.0f}, {2.0f}};
  std::vector<float> labels{1.0f, 0.0f};
  const float loss = bce_with_logits_loss(logits, labels);
  // -log(0.5) and -log(1 - sigmoid(2)).
  const double expected =
      0.5 * (-std::log(0.5) - std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0))));
  EXPECT_NEAR(loss, expected, 1e-5);
}

TEST(Loss, BceStableAtExtremeLogits) {
  Matrix logits{{100.0f}, {-100.0f}};
  std::vector<float> labels{1.0f, 0.0f};
  const float loss = bce_with_logits_loss(logits, labels);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-4f);
}

TEST(Loss, GradientMatchesFiniteDifferences) {
  Matrix logits{{0.3f}, {-1.2f}, {2.5f}};
  std::vector<float> labels{1.0f, 0.0f, 1.0f};
  Matrix grad;
  bce_with_logits_backward(logits, labels, grad);
  const float eps = 1e-3f;
  for (index_t i = 0; i < 3; ++i) {
    Matrix p = logits, m = logits;
    p.at(i, 0) += eps;
    m.at(i, 0) -= eps;
    const double fd =
        (bce_with_logits_loss(p, labels) - bce_with_logits_loss(m, labels)) /
        (2.0 * eps);
    EXPECT_NEAR(grad.at(i, 0), fd, 1e-3);
  }
}

TEST(Metrics, AccuracyAndAuc) {
  const std::vector<float> probs{0.9f, 0.2f, 0.8f, 0.3f};
  const std::vector<float> labels{1.0f, 0.0f, 1.0f, 1.0f};
  EXPECT_NEAR(binary_accuracy(probs, labels), 0.75, 1e-9);
  // Perfect ranking: AUC 1 when all positives above negatives.
  const std::vector<float> s2{0.9f, 0.8f, 0.1f};
  const std::vector<float> l2{1.0f, 1.0f, 0.0f};
  EXPECT_NEAR(roc_auc(s2, l2), 1.0, 1e-9);
  // Anti-ranking: AUC 0.
  const std::vector<float> l3{0.0f, 0.0f, 1.0f};
  EXPECT_NEAR(roc_auc(s2, l3), 0.0, 1e-9);
}

TEST(Metrics, AucHandlesTies) {
  const std::vector<float> s{0.5f, 0.5f, 0.5f, 0.5f};
  const std::vector<float> l{1.0f, 0.0f, 1.0f, 0.0f};
  EXPECT_NEAR(roc_auc(s, l), 0.5, 1e-9);
}

std::vector<std::unique_ptr<IEmbeddingTable>> dense_tables(
    const std::vector<index_t>& rows, index_t dim, Prng& rng) {
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (index_t r : rows) {
    tables.push_back(std::make_unique<EmbeddingBag>(r, dim, rng));
  }
  return tables;
}

MiniBatch toy_batch(Prng& rng, index_t b, index_t num_dense,
                    const std::vector<index_t>& rows) {
  MiniBatch batch;
  batch.dense.resize(b, num_dense);
  batch.dense.fill_normal(rng);
  for (index_t r : rows) {
    std::vector<index_t> idx;
    for (index_t s = 0; s < b; ++s) {
      idx.push_back(static_cast<index_t>(rng.uniform_index(
          static_cast<std::uint64_t>(r))));
    }
    batch.sparse.push_back(IndexBatch::one_per_sample(std::move(idx)));
  }
  batch.labels.resize(static_cast<std::size_t>(b));
  for (auto& l : batch.labels) l = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  return batch;
}

TEST(DlrmModel, ForwardShapesAndPredictRange) {
  Prng rng(6);
  DlrmConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  const std::vector<index_t> rows{30, 50};
  DlrmModel model(cfg, dense_tables(rows, 8, rng), rng);
  const MiniBatch batch = toy_batch(rng, 10, 4, rows);
  Matrix logits;
  model.forward(batch, logits);
  EXPECT_EQ(logits.rows(), 10);
  EXPECT_EQ(logits.cols(), 1);
  std::vector<float> probs;
  model.predict(batch, probs);
  for (float p : probs) {
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(DlrmModel, TableDimMismatchThrows) {
  Prng rng(7);
  DlrmConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  tables.push_back(std::make_unique<EmbeddingBag>(10, 4, rng));  // wrong dim
  EXPECT_THROW(DlrmModel(cfg, std::move(tables), rng), Error);
}

// Labels produced by a fixed linear rule over embeddings: training must
// drive the loss well below the untrained level.
TEST(DlrmModel, TrainingReducesLossOnLearnableData) {
  Prng rng(8);
  DlrmConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  const std::vector<index_t> rows{40, 60};
  DlrmModel model(cfg, dense_tables(rows, 8, rng), rng);

  Prng data_rng(123);
  auto make = [&] {
    MiniBatch b = toy_batch(data_rng, 64, 4, rows);
    for (index_t s = 0; s < 64; ++s) {
      // Deterministic teacher: each row carries a fixed preference; the
      // label sums the two tables' preferences (learnable through the
      // embeddings + top MLP).
      const index_t i0 = b.sparse[0].indices[static_cast<std::size_t>(s)];
      const index_t i1 = b.sparse[1].indices[static_cast<std::size_t>(s)];
      const int vote = (i0 % 2 != 0 ? 1 : -1) + (i1 % 3 == 0 ? 1 : -1);
      b.labels[static_cast<std::size_t>(s)] = vote > 0 ? 1.0f : 0.0f;
    }
    return b;
  };

  RunningMean head, tail;
  const int steps = 1500;
  for (int step = 0; step < steps; ++step) {
    const float loss = model.train_step(make(), 0.15f);
    if (step < 50) head.add(loss);
    if (step >= steps - 50) tail.add(loss);
  }
  // Labels are a deterministic function of the indices, so the loss should
  // drop far below its untrained level as the embeddings pick up each row's
  // preference.
  EXPECT_LT(tail.mean(), head.mean() * 0.55);
}

TEST(DlrmModel, EffTTTableIsDropInReplacement) {
  // Two models, one with dense EmbeddingBag and one with EffTTTable wrapping
  // an SVD of the SAME dense table: initial losses must agree closely, and
  // both must train (the API seam is the paper's drop-in claim).
  Prng rng(9);
  DlrmConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};

  Prng rng_dense(77);
  auto dense_table = std::make_unique<EmbeddingBag>(60, 8, rng_dense);
  const TTCores cores =
      tt_svd(dense_table->weights(), {4, 4, 4}, {2, 2, 2}, 64);
  auto tt_table = std::make_unique<EffTTTable>(60, cores);

  Prng rng_a(31), rng_b(31);  // identical MLP init
  std::vector<std::unique_ptr<IEmbeddingTable>> ta, tb;
  ta.push_back(std::move(dense_table));
  tb.push_back(std::move(tt_table));
  DlrmModel model_dense(cfg, std::move(ta), rng_a);
  DlrmModel model_tt(cfg, std::move(tb), rng_b);

  Prng data_rng(55);
  const MiniBatch batch = toy_batch(data_rng, 32, 4, {60});
  Matrix la, lb;
  model_dense.forward(batch, la);
  model_tt.forward(batch, lb);
  EXPECT_LT(Matrix::max_abs_diff(la, lb), 1e-2f);
}

TEST(DlrmModel, ParameterByteAccounting) {
  Prng rng(10);
  DlrmConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  const std::vector<index_t> rows{100};
  DlrmModel model(cfg, dense_tables(rows, 8, rng), rng);
  EXPECT_EQ(model.embedding_bytes(), 100u * 8u * sizeof(float));
  EXPECT_GT(model.parameter_bytes(), model.embedding_bytes());
}

}  // namespace
}  // namespace elrec
