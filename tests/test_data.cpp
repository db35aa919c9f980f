// Tests for the synthetic data substrate: Zipf skew (Fig. 4a property),
// dataset specs (Table II numbers), batch generation, label structure, and
// the unique-indices-per-batch gap (Fig. 4b property).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/dataset_spec.hpp"
#include "data/stats.hpp"
#include "data/synthetic.hpp"
#include "data/zipf.hpp"

namespace elrec {
namespace {

TEST(Zipf, SamplesInRange) {
  Prng rng(1);
  ZipfSampler z(100, 1.1, rng);
  Prng draw(2);
  for (int i = 0; i < 1000; ++i) {
    const index_t idx = z.sample(draw);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 100);
  }
}

TEST(Zipf, TopRanksDominate) {
  Prng rng(3);
  ZipfSampler z(100000, 1.1, rng);
  // Analytic mass of the top 1% must be large (power law).
  EXPECT_GT(z.top_rank_mass(1000), 0.5);
  // Empirical draws agree with the analytic mass.
  Prng draw(4);
  int hot_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (z.rank_of(z.sample(draw)) < 1000) ++hot_hits;
  }
  EXPECT_NEAR(static_cast<double>(hot_hits) / n, z.top_rank_mass(1000), 0.03);
}

TEST(Zipf, PermutationDetachesPopularityFromIndexOrder) {
  Prng rng(5);
  ZipfSampler z(1000, 1.1, rng);
  // rank_of / index_at_rank are inverse bijections.
  std::set<index_t> seen;
  for (index_t r = 0; r < 1000; ++r) {
    const index_t idx = z.index_at_rank(r);
    EXPECT_EQ(z.rank_of(idx), r);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 1000u);
  // The hottest item should (almost surely) not be item 0.
  int identity_hits = 0;
  for (index_t r = 0; r < 20; ++r) {
    if (z.index_at_rank(r) == r) ++identity_hits;
  }
  EXPECT_LT(identity_hits, 5);
}

TEST(Zipf, HigherExponentIsMoreSkewed) {
  Prng rng(6);
  ZipfSampler flat(10000, 0.5, rng);
  ZipfSampler steep(10000, 1.5, rng);
  EXPECT_GT(steep.top_rank_mass(100), flat.top_rank_mass(100));
}

TEST(DatasetSpec, PaperSpecsHaveExpectedShape) {
  const DatasetSpec kaggle = criteo_kaggle_spec();
  EXPECT_EQ(kaggle.num_tables(), 26);
  EXPECT_EQ(kaggle.num_dense, 13);
  const DatasetSpec tb = criteo_terabyte_spec();
  EXPECT_EQ(tb.num_tables(), 26);
  // Terabyte is the largest public DLRM dataset; its dense-embedding
  // footprint must exceed a 16 GB GPU at dim 64 (paper Table II: ~59 GB at
  // the paper's configuration).
  EXPECT_GT(tb.embedding_bytes(64), 16ULL << 30);
  const DatasetSpec avazu = avazu_spec();
  EXPECT_EQ(avazu.num_tables(), 20);
  EXPECT_EQ(avazu.num_dense, 1);
}

TEST(DatasetSpec, ScalingShrinksTables) {
  const DatasetSpec spec = criteo_kaggle_spec().scaled(1000);
  EXPECT_EQ(spec.num_tables(), 26);
  for (std::size_t t = 0; t < spec.table_rows.size(); ++t) {
    EXPECT_LE(spec.table_rows[t],
              std::max<index_t>(8, criteo_kaggle_spec().table_rows[t] / 1000));
  }
}

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.num_dense = 3;
  spec.table_rows = {500, 200, 1000};
  spec.num_samples = 10000;
  spec.zipf_s = 1.1;
  return spec;
}

TEST(SyntheticDataset, BatchShapesAreConsistent) {
  SyntheticDataset data(tiny_spec(), 42);
  const MiniBatch batch = data.next_batch(64);
  EXPECT_EQ(batch.batch_size(), 64);
  EXPECT_EQ(batch.dense.cols(), 3);
  ASSERT_EQ(batch.sparse.size(), 3u);
  EXPECT_EQ(batch.labels.size(), 64u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(batch.sparse[t].batch_size(), 64);
    EXPECT_NO_THROW(batch.sparse[t].validate(tiny_spec().table_rows[t]));
  }
}

TEST(SyntheticDataset, DeterministicFromSeed) {
  SyntheticDataset a(tiny_spec(), 42), b(tiny_spec(), 42);
  const MiniBatch ba = a.next_batch(32);
  const MiniBatch bb = b.next_batch(32);
  EXPECT_EQ(ba.sparse[0].indices, bb.sparse[0].indices);
  EXPECT_EQ(ba.labels, bb.labels);
  EXPECT_LT(Matrix::max_abs_diff(ba.dense, bb.dense), 1e-9f);
}

TEST(SyntheticDataset, EvalBatchIsStable) {
  SyntheticDataset data(tiny_spec(), 42);
  data.next_batch(32);  // advance training stream
  const MiniBatch e1 = data.eval_batch(16, 7);
  const MiniBatch e2 = data.eval_batch(16, 7);
  EXPECT_EQ(e1.sparse[1].indices, e2.sparse[1].indices);
  const MiniBatch e3 = data.eval_batch(16, 8);
  EXPECT_NE(e1.sparse[1].indices, e3.sparse[1].indices);
}

TEST(SyntheticDataset, LabelRateNearSpec) {
  DatasetSpec spec = tiny_spec();
  spec.label_positive_rate = 0.25;
  SyntheticDataset data(spec, 1);
  double pos = 0.0;
  const int n = 4096;
  const MiniBatch batch = data.next_batch(n);
  for (float l : batch.labels) pos += l;
  EXPECT_NEAR(pos / n, 0.25, 0.08);
}

TEST(SyntheticDataset, LabelsCorrelateWithTeacherScores) {
  SyntheticDataset data(tiny_spec(), 9);
  const MiniBatch batch = data.next_batch(8192);
  // Average teacher score of positive samples must exceed negatives.
  double pos_score = 0.0, neg_score = 0.0;
  int pos_n = 0, neg_n = 0;
  for (index_t s = 0; s < 8192; ++s) {
    double score = 0.0;
    for (index_t t = 0; t < 3; ++t) {
      score += data.teacher_score(
          t, batch.sparse[static_cast<std::size_t>(t)]
                 .indices[static_cast<std::size_t>(s)]);
    }
    if (batch.labels[static_cast<std::size_t>(s)] > 0.5f) {
      pos_score += score;
      ++pos_n;
    } else {
      neg_score += score;
      ++neg_n;
    }
  }
  ASSERT_GT(pos_n, 0);
  ASSERT_GT(neg_n, 0);
  EXPECT_GT(pos_score / pos_n, neg_score / neg_n + 0.05);
}

TEST(SyntheticDataset, UniqueIndicesPerBatchGap) {
  // Fig. 4b: unique indices per batch is well below the batch size.
  SyntheticDataset data(tiny_spec(), 11);
  const double uniq = avg_unique_indices_per_batch(data, 0, 1024, 8);
  EXPECT_LT(uniq, 1024 * 0.6);
  EXPECT_GT(uniq, 8.0);
}

TEST(SyntheticDataset, CumulativeAccessShareIsSkewed) {
  // Fig. 4a: top 1% of rows receive a dominant share of accesses.
  SyntheticDataset data(tiny_spec(), 13);
  const auto shares =
      cumulative_access_share(data, 2, {0.01, 0.1, 1.0}, 50000, 1024);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_GT(shares[0], 0.25);
  EXPECT_GT(shares[1], shares[0]);
  EXPECT_NEAR(shares[2], 1.0, 1e-9);
}

TEST(SyntheticDataset, SessionLocalityRaisesCooccurrence) {
  // With locality on, two consecutive batches share more cold indices than
  // two far-apart batches.
  DatasetSpec spec = tiny_spec();
  spec.locality_fraction = 0.7;
  spec.locality_groups = 32;
  SyntheticDataset data(spec, 17);
  auto unique_set = [&](const MiniBatch& b) {
    std::set<index_t> s(b.sparse[2].indices.begin(), b.sparse[2].indices.end());
    return s;
  };
  const auto b0 = unique_set(data.next_batch(256));
  const auto b1 = unique_set(data.next_batch(256));
  // Skip ahead many sessions.
  for (int i = 0; i < 40; ++i) data.next_batch(64);
  const auto b2 = unique_set(data.next_batch(256));
  auto overlap = [](const std::set<index_t>& a, const std::set<index_t>& b) {
    int n = 0;
    for (index_t v : a) n += b.count(v);
    return n;
  };
  EXPECT_GT(overlap(b0, b1), overlap(b0, b2));
}

// FNV-1a over every byte a batch carries: indices, offsets, dense values
// and labels, table by table.
std::uint64_t batch_checksum(const MiniBatch& b, std::uint64_t h) {
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  for (const IndexBatch& ib : b.sparse) {
    mix(ib.indices.data(), ib.indices.size() * sizeof(index_t));
    mix(ib.offsets.data(), ib.offsets.size() * sizeof(index_t));
  }
  mix(b.dense.data(), static_cast<std::size_t>(b.dense.size()) * sizeof(float));
  mix(b.labels.data(), b.labels.size() * sizeof(float));
  return h;
}

TEST(SyntheticDataset, FirstBatchesMatchPinnedChecksum) {
  // Pins the generated stream byte for byte (one-hot and multi-hot bags, a
  // rotated table, the session rotation over 6 batches and an eval batch),
  // so a rewrite of the generator must keep its RNG call order.
  DatasetSpec spec = tiny_spec();
  spec.multi_hot_max = 4;
  SyntheticDataset multi(spec, 23);
  multi.set_rank_offset(1, 37);
  SyntheticDataset one_hot(tiny_spec(), 29);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 6; ++i) {
    h = batch_checksum(multi.next_batch(128), h);
    h = batch_checksum(one_hot.next_batch(96), h);
  }
  h = batch_checksum(multi.eval_batch(64, 5), h);
  EXPECT_EQ(h, 0xac4e0af8e438f045ULL);
}

}  // namespace
}  // namespace elrec
