// Integration tests for the full EL-Rec training system: placement policy,
// pipelined DLRM training with host-resident tables, equivalence between
// pipelined and sequential execution, and loss improvement on learnable
// synthetic data.
#include <gtest/gtest.h>

#include "pipeline/elrec_trainer.hpp"

namespace elrec {
namespace {

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.num_dense = 4;
  spec.table_rows = {2000, 64, 500};
  spec.num_samples = 100000;
  spec.zipf_s = 1.05;
  return spec;
}

ElRecTrainerConfig base_config(const DatasetSpec& spec) {
  ElRecTrainerConfig cfg;
  cfg.model.num_dense = spec.num_dense;
  cfg.model.embedding_dim = 8;
  cfg.model.bottom_hidden = {16};
  cfg.model.top_hidden = {16};
  // Largest table TT on device, mid table host-resident, small dense.
  cfg.placement = {TablePlacement::kDeviceTT, TablePlacement::kDeviceDense,
                   TablePlacement::kHost};
  cfg.tt_rank = 8;
  cfg.queue_capacity = 4;
  cfg.lr = 0.05f;
  cfg.seed = 11;
  return cfg;
}

TEST(DefaultPlacement, ThresholdsSplitTables) {
  const auto p = default_placement(tiny_spec(), 300, 1500);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], TablePlacement::kHost);         // 2000 >= 1500
  EXPECT_EQ(p[1], TablePlacement::kDeviceDense);  // 64 < 300
  EXPECT_EQ(p[2], TablePlacement::kDeviceTT);     // 300 <= 500 < 1500
}

TEST(HostTableClientTest, ForwardPoolsInstalledRows) {
  HostTableClient client(10, 2);
  const std::vector<index_t> unique{3, 7};
  const Matrix rows{{1.0f, 2.0f}, {10.0f, 20.0f}};
  Matrix grads;
  client.install(unique, rows, grads);
  Matrix out;
  client.forward(IndexBatch::from_bags({{3, 7}, {7, 7}}), out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 40.0f);
}

TEST(HostTableClientTest, MissingIndexThrows) {
  HostTableClient client(10, 2);
  const std::vector<index_t> unique{3};
  const Matrix rows{{1.0f, 2.0f}};
  Matrix grads;
  client.install(unique, rows, grads);
  Matrix out;
  EXPECT_THROW(client.forward(IndexBatch::one_per_sample({4}), out), Error);
}

TEST(HostTableClientTest, BackwardCapturesAggregatedGrads) {
  HostTableClient client(10, 2);
  const std::vector<index_t> unique{3, 7};
  const Matrix rows{{1.0f, 2.0f}, {10.0f, 20.0f}};
  Matrix grads;
  client.install(unique, rows, grads);
  Matrix out;
  const IndexBatch batch = IndexBatch::from_bags({{3, 7}, {7}});
  client.forward(batch, out);
  Matrix grad{{1.0f, 0.0f}, {2.0f, 0.0f}};
  client.backward_and_update(batch, grad, 0.5f);
  // Index 3: grad from sample 0 only; index 7: samples 0 and 1.
  EXPECT_FLOAT_EQ(grads.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(grads.at(1, 0), 3.0f);
}

TEST(ElRecTrainerTest, TrainsAndReducesLoss) {
  const DatasetSpec spec = tiny_spec();
  ElRecTrainer trainer(base_config(spec), spec);
  SyntheticDataset data(spec, 3);
  const ElRecRunStats stats = trainer.train(data, 150, 128);
  EXPECT_EQ(stats.batches, 150);
  ASSERT_EQ(stats.loss_curve.size(), 150u);
  // Average of first 20 vs last 20 batches.
  double head = 0.0, tail = 0.0;
  for (int i = 0; i < 20; ++i) {
    head += stats.loss_curve[static_cast<std::size_t>(i)];
    tail += stats.loss_curve[stats.loss_curve.size() - 1 - i];
  }
  EXPECT_LT(tail, head * 0.97);
}

TEST(ElRecTrainerTest, PipelinedMatchesSequentialExactly) {
  // Same seed, same data stream: queue depth must not change the math —
  // this is the §V-B claim (the cache removes the RAW conflict entirely).
  const DatasetSpec spec = tiny_spec();

  ElRecTrainerConfig seq_cfg = base_config(spec);
  seq_cfg.queue_capacity = 1;
  ElRecTrainerConfig pipe_cfg = base_config(spec);
  pipe_cfg.queue_capacity = 6;

  ElRecTrainer seq(seq_cfg, spec);
  ElRecTrainer pipe(pipe_cfg, spec);
  SyntheticDataset data_a(spec, 7);
  SyntheticDataset data_b(spec, 7);

  const ElRecRunStats s1 = seq.train(data_a, 60, 64);
  const ElRecRunStats s2 = pipe.train(data_b, 60, 64);
  ASSERT_EQ(s1.loss_curve.size(), s2.loss_curve.size());
  for (std::size_t i = 0; i < s1.loss_curve.size(); ++i) {
    EXPECT_NEAR(s1.loss_curve[i], s2.loss_curve[i], 1e-5f) << "batch " << i;
  }
  // Host stores end identical.
  EXPECT_LT(Matrix::max_abs_diff(seq.host_store(0).weights(),
                                 pipe.host_store(0).weights()),
            1e-4f);
}

TEST(ElRecTrainerTest, DisablingCacheChangesResultUnderDeepQueues) {
  const DatasetSpec spec = tiny_spec();
  ElRecTrainerConfig with_cfg = base_config(spec);
  with_cfg.queue_capacity = 6;
  ElRecTrainerConfig without_cfg = with_cfg;
  without_cfg.use_embedding_cache = false;

  ElRecTrainer with_cache(with_cfg, spec);
  ElRecTrainer without_cache(without_cfg, spec);
  SyntheticDataset data_a(spec, 7);
  SyntheticDataset data_b(spec, 7);
  with_cache.train(data_a, 60, 64);
  without_cache.train(data_b, 60, 64);
  // Stale reads must have changed the host table (RAW bug visible).
  EXPECT_GT(Matrix::max_abs_diff(with_cache.host_store(0).weights(),
                                 without_cache.host_store(0).weights()),
            1e-5f);
}

TEST(ElRecTrainerTest, DeviceFootprintIsCompressed) {
  const DatasetSpec spec = tiny_spec();
  ElRecTrainer trainer(base_config(spec), spec);
  // Device embedding bytes: TT table (compressed 2000x8) + dense 64x8;
  // must be far below the dense total of (2000 + 500) * 8 floats.
  const std::size_t dense_total = (2000 + 64 + 500) * 8 * sizeof(float);
  EXPECT_LT(trainer.device_embedding_bytes(), dense_total / 2);
}

TEST(ElRecTrainerTest, CacheBoundedByLifecycle) {
  const DatasetSpec spec = tiny_spec();
  ElRecTrainerConfig cfg = base_config(spec);
  cfg.queue_capacity = 4;
  ElRecTrainer trainer(cfg, spec);
  SyntheticDataset data(spec, 5);
  const ElRecRunStats stats = trainer.train(data, 80, 128);
  // The host table has 500 rows; with ~128 draws/batch and 5 live batches
  // the cache must stay well under the full table size.
  EXPECT_GT(stats.cache_peak, 0u);
  EXPECT_LT(stats.cache_peak, 500u);
}

}  // namespace
}  // namespace elrec
