#include "data/synthetic.hpp"

#include <cmath>

#include "common/error.hpp"

namespace elrec {
namespace {

std::uint64_t mix_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x += c;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Hash -> uniform in (-1, 1).
float hash_to_signed_unit(std::uint64_t h) {
  return static_cast<float>(static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 -
                            1.0);
}

}  // namespace

SyntheticDataset::SyntheticDataset(DatasetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  ELREC_CHECK(spec_.num_tables() > 0, "dataset needs at least one table");
  teacher_seed_ = mix_hash(seed, 0xe1c0ffeeULL, 0x7ea8c8e5ULL);

  Prng sampler_rng(mix_hash(seed, 0x5a3f19ULL, 2));
  samplers_.reserve(static_cast<std::size_t>(spec_.num_tables()));
  for (index_t t = 0; t < spec_.num_tables(); ++t) {
    samplers_.emplace_back(spec_.table_rows[static_cast<std::size_t>(t)],
                           spec_.zipf_s, sampler_rng);
  }
  rank_offset_.assign(static_cast<std::size_t>(spec_.num_tables()), 0);

  Prng teacher_rng(teacher_seed_);
  dense_teacher_.resize(static_cast<std::size_t>(spec_.num_dense));
  for (auto& w : dense_teacher_) {
    w = static_cast<float>(teacher_rng.normal(0.0, 0.2));
  }
  // Bias shifts the base rate toward the spec's positive rate. The logit is
  // bias + noise with variance sigma2 (dense term + sparse term); by the
  // probit approximation E[sigmoid(b + sZ)] ~ sigmoid(b / sqrt(1 + pi s^2/8)),
  // so the bias is inflated by that factor to hit the target rate.
  const double sigma2 =
      static_cast<double>(spec_.num_dense) * 0.2 * 0.2 +
      3.0 * 3.0 / 3.0;  // uniform(-1,1)*3/sqrt(T) across T tables
  teacher_bias_ = static_cast<float>(
      std::log(spec_.label_positive_rate / (1.0 - spec_.label_positive_rate)) *
      std::sqrt(1.0 + M_PI * sigma2 / 8.0));
}

float SyntheticDataset::teacher_score(index_t table, index_t row) const {
  const std::uint64_t h = mix_hash(teacher_seed_,
                                   static_cast<std::uint64_t>(table) + 17,
                                   static_cast<std::uint64_t>(row));
  // Scale by 1/sqrt(T) so the total sparse contribution has O(1) variance;
  // the sparse term dominates the dense one so embedding quality is what
  // the model must learn (as in real CTR data).
  return hash_to_signed_unit(h) *
         3.0f / std::sqrt(static_cast<float>(spec_.num_tables()));
}

float SyntheticDataset::label_logit(const float* dense,
                                    const std::vector<index_t>& idx) const {
  float z = teacher_bias_;
  for (index_t j = 0; j < spec_.num_dense; ++j) {
    z += dense_teacher_[static_cast<std::size_t>(j)] * dense[j];
  }
  for (index_t t = 0; t < spec_.num_tables(); ++t) {
    z += teacher_score(t, idx[static_cast<std::size_t>(t)]);
  }
  return z;
}

void SyntheticDataset::set_rank_offset(index_t table, index_t offset) {
  ELREC_CHECK(table >= 0 && table < spec_.num_tables(),
              "rank offset table out of range");
  const index_t n = samplers_[static_cast<std::size_t>(table)].num_items();
  ELREC_CHECK(offset >= 0, "rank offset must be non-negative");
  rank_offset_[static_cast<std::size_t>(table)] = offset % n;
}

index_t SyntheticDataset::draw_index(index_t table, Prng& rng,
                                     index_t session) const {
  const ZipfSampler& sampler = samplers_[static_cast<std::size_t>(table)];
  const index_t n = sampler.num_items();
  const index_t offset = rank_offset_[static_cast<std::size_t>(table)];
  const auto hot = static_cast<index_t>(
      std::max(1.0, spec_.hot_ratio * static_cast<double>(n)));
  // Session draw: uniform over the session's chunk of the cold rank region.
  index_t rank = -1;
  if (spec_.locality_groups > 1 && n > hot + spec_.locality_groups &&
      rng.uniform() < spec_.locality_fraction) {
    const index_t cold = n - hot;
    const index_t group = session % spec_.locality_groups;
    const index_t group_size = cold / spec_.locality_groups;
    if (group_size > 0) {
      rank = hot + group * group_size +
             static_cast<index_t>(rng.uniform_index(
                 static_cast<std::uint64_t>(group_size)));
    }
  }
  if (rank < 0) {
    const index_t idx = sampler.sample(rng);
    if (offset == 0) return idx;  // stationary fast path, bit-identical
    rank = sampler.rank_of(idx);
  }
  return sampler.index_at_rank((rank + offset) % n);
}

MiniBatch SyntheticDataset::make_batch(index_t batch_size, Prng& rng,
                                       index_t session) const {
  MiniBatch batch;
  batch.dense.resize(batch_size, spec_.num_dense);
  batch.dense.fill_normal(rng, 0.0f, 1.0f);
  batch.labels.resize(static_cast<std::size_t>(batch_size));
  batch.sparse.resize(static_cast<std::size_t>(spec_.num_tables()));
  // Each bag is appended straight into its table's IndexBatch.
  for (IndexBatch& ib : batch.sparse) {
    ib.indices.reserve(static_cast<std::size_t>(batch_size));
    ib.offsets.reserve(static_cast<std::size_t>(batch_size) + 1);
    ib.offsets.push_back(0);
  }

  std::vector<index_t> sample_idx(static_cast<std::size_t>(spec_.num_tables()));
  for (index_t s = 0; s < batch_size; ++s) {
    for (index_t t = 0; t < spec_.num_tables(); ++t) {
      IndexBatch& ib = batch.sparse[static_cast<std::size_t>(t)];
      const index_t bag_size =
          spec_.multi_hot_max <= 1
              ? 1
              : 1 + static_cast<index_t>(rng.uniform_index(
                        static_cast<std::uint64_t>(spec_.multi_hot_max)));
      // The teacher scores the first index of the bag (its "primary" item).
      sample_idx[static_cast<std::size_t>(t)] = draw_index(t, rng, session);
      ib.indices.push_back(sample_idx[static_cast<std::size_t>(t)]);
      for (index_t i = 1; i < bag_size; ++i) {
        ib.indices.push_back(draw_index(t, rng, session));
      }
      ib.offsets.push_back(ib.num_indices());
    }
    const float z = label_logit(batch.dense.row(s), sample_idx);
    const float p = 1.0f / (1.0f + std::exp(-z));
    batch.labels[static_cast<std::size_t>(s)] = rng.bernoulli(p) ? 1.0f : 0.0f;
  }
  return batch;
}

MiniBatch SyntheticDataset::next_batch(index_t batch_size) {
  // Sessions rotate slowly: several consecutive batches share a group,
  // giving batches the intra-batch/temporal locality §IV exploits.
  const index_t session = batches_served_ / 4;
  ++batches_served_;
  return make_batch(batch_size, rng_, session);
}

void SyntheticDataset::skip_batches(index_t n, index_t batch_size) {
  // Generating and discarding keeps rng_/batches_served_ bit-exact with a
  // stream that actually consumed these batches.
  for (index_t i = 0; i < n; ++i) next_batch(batch_size);
}

MiniBatch SyntheticDataset::eval_batch(index_t batch_size,
                                       std::uint64_t salt) const {
  Prng rng(mix_hash(teacher_seed_, 0xeba1ULL, salt));
  return make_batch(batch_size, rng, static_cast<index_t>(salt % 997));
}

}  // namespace elrec
