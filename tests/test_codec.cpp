// Tests for the error-bounded gradient/parameter codec (src/codec) and its
// integration points: wire-format round trips and edge cases, the decoded
// error staying within the header's advertised bound, corruption detection,
// thread-count determinism of encode, checkpoint codec provenance, and the
// codec-aware embedding cache.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "codec/grad_codec.hpp"
#include "common/prng.hpp"
#include "pipeline/elrec_trainer.hpp"
#include "pipeline/embedding_cache.hpp"
#include "pipeline/pipeline_checkpoint.hpp"

namespace elrec {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

CodecConfig dual_config(int bits, float rel_bound = 0.05f) {
  CodecConfig cfg;
  cfg.id = CodecId::kDualLevel;
  cfg.bits = bits;
  cfg.rel_bound = rel_bound;
  return cfg;
}

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed,
                     float scale = 1.0f) {
  Prng rng(seed);
  Matrix m(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      m.at(r, c) = scale * static_cast<float>(rng.normal());
    }
  }
  return m;
}

// ---------------------------------------------------------------------
// Wire-format round trips and edge cases.
// ---------------------------------------------------------------------

TEST(CodecRoundTrip, NullCodecIsBitwiseIdentity) {
  const Matrix m = random_matrix(17, 9, 1);
  auto codec = make_codec(CodecConfig{});
  EncodedBlob blob;
  codec->encode(m, blob);

  const CodecWireHeader h = peek_blob_header(blob);
  EXPECT_EQ(h.codec_id, static_cast<std::uint32_t>(CodecId::kNull));
  EXPECT_EQ(h.payload_kind, kCodecPayloadRawF32);
  EXPECT_EQ(h.bits, 32u);
  EXPECT_EQ(h.kept_rows, h.rows);

  Matrix out;
  decode_blob(blob, out);
  ASSERT_EQ(out.rows(), m.rows());
  ASSERT_EQ(out.cols(), m.cols());
  EXPECT_EQ(std::memcmp(out.data(), m.data(), m.size() * sizeof(float)), 0);
}

TEST(CodecRoundTrip, BoundZeroDualCodecIsBitwiseIdentity) {
  // rel_bound 0 + min_abs_bound 0 MUST degrade to a lossless raw payload.
  CodecConfig cfg = dual_config(8, /*rel_bound=*/0.0f);
  ASSERT_TRUE(cfg.lossless());
  const Matrix m = random_matrix(8, 5, 2);
  auto codec = make_codec(cfg);
  EncodedBlob blob;
  codec->encode(m, blob);
  EXPECT_EQ(peek_blob_header(blob).payload_kind, kCodecPayloadRawF32);
  Matrix out;
  decode_blob(blob, out);
  EXPECT_EQ(std::memcmp(out.data(), m.data(), m.size() * sizeof(float)), 0);
}

TEST(CodecRoundTrip, EmptyTensor) {
  for (const CodecConfig& cfg : {CodecConfig{}, dual_config(8)}) {
    auto codec = make_codec(cfg);
    EncodedBlob blob;
    codec->encode(nullptr, 0, 7, blob);
    Matrix out(3, 3);  // wrong shape on purpose; decode must resize
    decode_blob(blob, out);
    EXPECT_EQ(out.rows(), 0);
    EXPECT_EQ(out.cols(), 7);
  }
}

TEST(CodecRoundTrip, SingleElement) {
  Matrix m(1, 1);
  m.at(0, 0) = 3.25f;
  for (const int bits : {8, 4}) {
    auto codec = make_codec(dual_config(bits));
    EncodedBlob blob;
    codec->encode(m, blob);
    const CodecWireHeader h = peek_blob_header(blob);
    Matrix out;
    decode_blob(blob, out);
    ASSERT_EQ(out.rows(), 1);
    ASSERT_EQ(out.cols(), 1);
    EXPECT_LE(std::fabs(out.at(0, 0) - 3.25f), h.bound * 1.0001f)
        << "bits=" << bits;
  }
}

TEST(CodecRoundTrip, AllZeroTensorDropsEveryRow) {
  Matrix m(16, 8);  // Matrix zero-initializes
  auto codec = make_codec(dual_config(8));
  EncodedBlob blob;
  codec->encode(m, blob);
  const CodecWireHeader h = peek_blob_header(blob);
  EXPECT_EQ(h.payload_kind, kCodecPayloadQuantized);
  EXPECT_EQ(h.kept_rows, 0);
  EXPECT_EQ(blob.size(), sizeof(CodecWireHeader));
  Matrix out;
  decode_blob(blob, out);
  for (index_t r = 0; r < 16; ++r) {
    for (index_t c = 0; c < 8; ++c) EXPECT_EQ(out.at(r, c), 0.0f);
  }
}

TEST(CodecRoundTrip, NonFiniteValuesDecodeFinite) {
  Matrix m = random_matrix(6, 4, 3);
  m.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  m.at(1, 1) = std::numeric_limits<float>::infinity();
  m.at(2, 2) = -std::numeric_limits<float>::infinity();
  m.at(3, 3) = std::numeric_limits<float>::denorm_min();
  for (const int bits : {8, 4}) {
    auto codec = make_codec(dual_config(bits));
    EncodedBlob blob;
    codec->encode(m, blob);
    const CodecWireHeader h = peek_blob_header(blob);
    Matrix out;
    decode_blob(blob, out);
    for (index_t r = 0; r < m.rows(); ++r) {
      for (index_t c = 0; c < m.cols(); ++c) {
        EXPECT_TRUE(std::isfinite(out.at(r, c)))
            << "bits=" << bits << " at (" << r << "," << c << ")";
      }
    }
    EXPECT_EQ(out.at(0, 0), 0.0f);                     // NaN -> 0
    EXPECT_GT(out.at(1, 1), 0.0f);                     // +inf saturates
    EXPECT_LT(out.at(2, 2), 0.0f);                     // -inf saturates
    EXPECT_LE(std::fabs(out.at(3, 3)), h.bound * 1.0001f);  // denormal
  }
}

TEST(CodecRoundTrip, ErrorStaysWithinHeaderBound) {
  for (const int bits : {8, 4}) {
    auto codec = make_codec(dual_config(bits, 0.1f));
    // Several tensors so the running-RMS EMA actually moves.
    for (std::uint64_t seed = 10; seed < 14; ++seed) {
      const Matrix m = random_matrix(64, 16, seed, 0.5f + 0.2f * seed);
      EncodedBlob blob;
      codec->encode(m, blob);
      const CodecWireHeader h = peek_blob_header(blob);
      ASSERT_GT(h.bound, 0.0f);
      Matrix out;
      decode_blob(blob, out);
      float max_err = 0.0f;
      for (index_t i = 0; i < static_cast<index_t>(m.size()); ++i) {
        max_err = std::max(max_err, std::fabs(out.data()[i] - m.data()[i]));
      }
      EXPECT_LE(max_err, h.bound * 1.0001f) << "bits=" << bits
                                            << " seed=" << seed;
    }
  }
}

TEST(CodecRoundTrip, QuantizedPayloadIsSmaller) {
  const Matrix m = random_matrix(256, 64, 21);
  const double raw = static_cast<double>(m.size()) * sizeof(float);
  EncodedBlob blob8, blob4;
  make_codec(dual_config(8))->encode(m, blob8);
  make_codec(dual_config(4))->encode(m, blob4);
  EXPECT_LT(static_cast<double>(blob8.size()), raw / 2.0);
  EXPECT_LT(static_cast<double>(blob4.size()), raw / 4.0);
  EXPECT_LT(blob4.size(), blob8.size());
}

// ---------------------------------------------------------------------
// Corruption detection.
// ---------------------------------------------------------------------

TEST(CodecCorruption, FlippedPayloadByteThrows) {
  const Matrix m = random_matrix(8, 8, 40);
  EncodedBlob blob;
  make_codec(dual_config(8))->encode(m, blob);
  ASSERT_GT(blob.size(), sizeof(CodecWireHeader));
  blob[sizeof(CodecWireHeader) + 3] ^= 0x40;
  Matrix out;
  EXPECT_THROW(decode_blob(blob, out), Error);
}

TEST(CodecCorruption, TruncatedBlobThrows) {
  const Matrix m = random_matrix(8, 8, 41);
  EncodedBlob blob;
  make_codec(CodecConfig{})->encode(m, blob);
  EncodedBlob tiny(blob.begin(), blob.begin() + 10);
  EXPECT_THROW(peek_blob_header(tiny), Error);
  blob.resize(blob.size() - 1);
  EXPECT_THROW(peek_blob_header(blob), Error);
}

TEST(CodecCorruption, BadMagicThrows) {
  const Matrix m = random_matrix(4, 4, 42);
  EncodedBlob blob;
  make_codec(CodecConfig{})->encode(m, blob);
  blob[0] = 'X';
  EXPECT_THROW(peek_blob_header(blob), Error);
}

// ---------------------------------------------------------------------
// Thread-count determinism: the encoder only uses `omp simd` (no parallel
// reductions), so blobs must be bitwise-identical under any thread count.
// ---------------------------------------------------------------------

TEST(CodecDeterminism, EncodeIsBitwiseIdenticalAcrossThreadCounts) {
  std::vector<Matrix> stream;
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    stream.push_back(random_matrix(128, 32, seed));
  }
  for (const int bits : {8, 4}) {
    std::vector<EncodedBlob> at1, at8;
    omp_set_num_threads(1);
    {
      auto codec = make_codec(dual_config(bits));
      for (const Matrix& m : stream) {
        EncodedBlob b;
        codec->encode(m, b);
        at1.push_back(b);
      }
    }
    omp_set_num_threads(8);
    {
      auto codec = make_codec(dual_config(bits));
      for (const Matrix& m : stream) {
        EncodedBlob b;
        codec->encode(m, b);
        at8.push_back(b);
      }
    }
    omp_set_num_threads(1);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(at1[i], at8[i]) << "bits=" << bits << " tensor " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Trainer integration: bytes accounting and lossy-vs-null behaviour.
// ---------------------------------------------------------------------

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "codec-tiny";
  spec.num_dense = 4;
  spec.table_rows = {2000, 64, 500};
  spec.num_samples = 100000;
  spec.zipf_s = 1.05;
  return spec;
}

ElRecTrainerConfig trainer_config(const DatasetSpec& spec,
                                  const CodecConfig& codec) {
  ElRecTrainerConfig cfg;
  cfg.model.num_dense = spec.num_dense;
  cfg.model.embedding_dim = 8;
  cfg.model.bottom_hidden = {16};
  cfg.model.top_hidden = {16};
  cfg.placement = {TablePlacement::kDeviceTT, TablePlacement::kDeviceDense,
                   TablePlacement::kHost};
  cfg.tt_rank = 8;
  cfg.queue_capacity = 4;
  cfg.lr = 0.05f;
  cfg.seed = 11;
  cfg.codec = codec;
  return cfg;
}

TEST(CodecTrainer, LossyRunCutsQueueBytesAndStillLearns) {
  const DatasetSpec spec = tiny_spec();
  ElRecTrainer null_t(trainer_config(spec, CodecConfig{}), spec);
  ElRecTrainer lossy_t(trainer_config(spec, dual_config(8)), spec);
  SyntheticDataset data_a(spec, 5), data_b(spec, 5);
  const ElRecRunStats base = null_t.train(data_a, 30, 64);
  const ElRecRunStats lossy = lossy_t.train(data_b, 30, 64);

  // Null codec: header-only overhead, encoded ~= raw.
  ASSERT_GT(base.encoded_queue_bytes, 0u);
  const double null_ratio = static_cast<double>(base.raw_queue_bytes) /
                            static_cast<double>(base.encoded_queue_bytes);
  EXPECT_GT(null_ratio, 0.8);
  EXPECT_LT(null_ratio, 1.05);

  // Lossy codec: real reduction, and the loss stays close to the null run.
  const double lossy_ratio = static_cast<double>(lossy.raw_queue_bytes) /
                             static_cast<double>(lossy.encoded_queue_bytes);
  EXPECT_GT(lossy_ratio, 1.5);
  EXPECT_NEAR(lossy.final_loss, base.final_loss, 0.05);
}

TEST(CodecTrainer, LossyRunReproducesWithinBoundAcrossThreadCounts) {
  // Under a lossy codec the pipelined run is reproducible to within the
  // error bound, NOT bitwise: the cache's RAW-repair coverage is timing
  // dependent, and a patched row (the exact host value) differs from an
  // unpatched pulled row (which crossed the lossy host-pull encoder) by up
  // to the bound. Bitwise determinism is guaranteed for the encoder itself
  // (CodecDeterminism above) and for null-codec runs (test_elrec_trainer's
  // PipelinedMatchesSequentialExactly).
  const DatasetSpec spec = tiny_spec();
  auto run = [&](int threads) {
    omp_set_num_threads(threads);
    ElRecTrainer t(trainer_config(spec, dual_config(4)), spec);
    SyntheticDataset data(spec, 5);
    return t.train(data, 10, 32);
  };
  const ElRecRunStats a = run(1);
  const ElRecRunStats b = run(8);
  omp_set_num_threads(1);
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    ASSERT_NEAR(a.loss_curve[i], b.loss_curve[i], 1e-3f) << "batch " << i;
  }
  // Blob sizes may shift by a few kept rows, not by orders of magnitude.
  const double ratio = static_cast<double>(a.encoded_queue_bytes) /
                       static_cast<double>(b.encoded_queue_bytes);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
}

// ---------------------------------------------------------------------
// Checkpoint codec provenance.
// ---------------------------------------------------------------------

std::string checkpoint_tag(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string tag(4, '\0');
  in.read(tag.data(), 4);
  return tag;
}

TEST(CodecCheckpoint, PipelineRefusesCrossCodecResume) {
  const std::string path = temp_path("elrec_codec_pipe_ckpt.bin");
  std::remove(path.c_str());
  Prng rng(6);
  HostEmbeddingStore store(16, 2, rng);
  save_pipeline_checkpoint(path, 7, CodecId::kDualLevel, {}, {&store});
  EXPECT_EQ(checkpoint_tag(path), "ELC2");

  Prng rng2(7);
  HostEmbeddingStore loaded(16, 2, rng2);
  EXPECT_THROW(load_pipeline_checkpoint(path, CodecId::kNull, {}, {&loaded}),
               PipelineError);
  // Same codec: loads and restores the weights exactly.
  EXPECT_EQ(load_pipeline_checkpoint(path, CodecId::kDualLevel, {}, {&loaded}),
            7);
  EXPECT_EQ(Matrix::max_abs_diff(loaded.weights(), store.weights()), 0.0f);
  std::remove(path.c_str());
}

TEST(CodecCheckpoint, NullCodecWritesLegacyFormat) {
  // A null-codec checkpoint keeps the pre-codec 'ELC1' bytes (no codec id)
  // and round-trips exactly.
  const std::string path = temp_path("elrec_codec_legacy_ckpt.bin");
  std::remove(path.c_str());
  Prng rng(8);
  HostEmbeddingStore store(12, 3, rng);
  save_pipeline_checkpoint(path, 4, CodecId::kNull, {}, {&store});
  EXPECT_EQ(checkpoint_tag(path), "ELC1");
  Prng rng2(9);
  HostEmbeddingStore loaded(12, 3, rng2);
  EXPECT_EQ(load_pipeline_checkpoint(path, CodecId::kNull, {}, {&loaded}), 4);
  EXPECT_EQ(Matrix::max_abs_diff(loaded.weights(), store.weights()), 0.0f);
  std::remove(path.c_str());
}

TEST(CodecCheckpoint, ElrecTrainerRefusesCrossCodecResume) {
  const std::string path = temp_path("elrec_codec_trainer_ckpt.bin");
  std::remove(path.c_str());
  const DatasetSpec spec = tiny_spec();

  ElRecTrainerConfig lossy_cfg = trainer_config(spec, dual_config(8));
  lossy_cfg.checkpoint_every_n = 4;
  lossy_cfg.checkpoint_path = path;
  ElRecTrainer writer(lossy_cfg, spec);
  SyntheticDataset data(spec, 5);
  const ElRecRunStats stats = writer.train(data, 8, 32);
  ASSERT_GT(stats.checkpoints_written, 0);

  ElRecTrainer null_reader(trainer_config(spec, CodecConfig{}), spec);
  EXPECT_THROW(null_reader.resume(path), PipelineError);

  ElRecTrainer lossy_reader(trainer_config(spec, dual_config(8)), spec);
  EXPECT_EQ(lossy_reader.resume(path), 8);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Codec-aware embedding cache.
// ---------------------------------------------------------------------

TEST(CodecCache, LossyCacheHoldsRowsAtCodecPrecision) {
  EmbeddingCache cache(4, 3, dual_config(8));
  Matrix values{{0.5f, -0.25f, 0.125f, 1.0f}, {2.0f, -1.5f, 0.75f, -0.375f}};
  cache.insert({3, 9}, values, 0);

  Matrix pulled(2, 4);  // zeros; sync patches from the cache
  EXPECT_EQ(cache.sync({3, 9}, pulled), 2);
  // What the cache returns is the codec round trip of what was inserted:
  // close to, but in general not bitwise-equal to, the raw values.
  float max_err = 0.0f;
  for (index_t i = 0; i < static_cast<index_t>(values.size()); ++i) {
    max_err =
        std::max(max_err, std::fabs(pulled.data()[i] - values.data()[i]));
  }
  EXPECT_GT(max_err, 0.0f);  // lossy: the round trip must have happened
  EXPECT_LT(max_err, 0.2f);  // ...within the codec's error scale
}

TEST(CodecCache, NullCodecCachesVerbatim) {
  EmbeddingCache cache(4, 3);  // default: no codec round trip
  Matrix values{{0.5f, -0.25f, 0.125f, 1.0f}};
  cache.insert({5}, values, 0);
  Matrix pulled(1, 4);
  EXPECT_EQ(cache.sync({5}, pulled), 1);
  EXPECT_EQ(std::memcmp(pulled.data(), values.data(), 4 * sizeof(float)), 0);
}

}  // namespace
}  // namespace elrec
