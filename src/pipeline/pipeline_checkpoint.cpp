#include "pipeline/pipeline_checkpoint.hpp"

#include <cstring>

#include "common/serialize.hpp"

namespace elrec {

namespace {

constexpr char kTagV1[4] = {'E', 'L', 'C', '1'};  // null codec
constexpr char kTagV2[4] = {'E', 'L', 'C', '2'};  // + u32 codec id

std::uint64_t count_buffers(const ParameterWalk& worker_params) {
  std::uint64_t count = 0;
  if (worker_params) worker_params([&](float*, std::size_t) { ++count; });
  return count;
}

}  // namespace

void save_pipeline_checkpoint(const std::string& path, index_t next_batch,
                              CodecId codec, const ParameterWalk& worker_params,
                              const std::vector<HostEmbeddingStore*>& stores) {
  // store->weights() is the quiescent-only lock-free view (see its
  // annotation): the runtime calls this only after every gradient up to
  // `next_batch - 1` has been applied and no pull is in flight.
  write_checkpoint_atomic(path, [&](BinaryWriter& w) {
    if (codec == CodecId::kNull) {
      w.write_tag(kTagV1);  // legacy byte-identical format
    } else {
      w.write_tag(kTagV2);
      w.write_pod(static_cast<std::uint32_t>(codec));
    }
    w.write_i64(next_batch);
    w.write_u64(count_buffers(worker_params));
    if (worker_params) {
      worker_params([&](float* p, std::size_t n) { w.write_array(p, n); });
    }
    w.write_u64(stores.size());
    for (const HostEmbeddingStore* store : stores) {
      w.write_i64(store->num_rows());
      w.write_i64(store->dim());
      w.write_array(store->weights().data(),
                    static_cast<std::size_t>(store->weights().size()));
    }
  });
}

index_t load_pipeline_checkpoint(
    const std::string& path, CodecId codec, const ParameterWalk& worker_params,
    const std::vector<HostEmbeddingStore*>& stores) {
  BinaryReader r(path);
  char tag[4];
  for (char& c : tag) c = r.read_pod<char>();
  CodecId saved = CodecId::kNull;
  if (std::memcmp(tag, kTagV2, 4) == 0) {
    saved = static_cast<CodecId>(r.read_pod<std::uint32_t>());
  } else {
    ELREC_CHECK(std::memcmp(tag, kTagV1, 4) == 0,
                "unrecognized trainer checkpoint tag");
  }
  if (saved != codec) {
    throw PipelineError(
        "resume", -1,
        "checkpoint '" + path + "' was written under codec '" +
            codec_name(saved) + "' but this trainer uses '" +
            codec_name(codec) + "' — refusing to resume across codecs");
  }
  const index_t next_batch = r.read_i64();
  const std::uint64_t stored = r.read_u64();
  ELREC_CHECK(stored == count_buffers(worker_params),
              "checkpoint buffer count mismatch — different trainer config");
  if (worker_params) {
    worker_params([&](float* p, std::size_t n) {
      const auto values = r.read_vector<float>();
      ELREC_CHECK(values.size() == n, "checkpoint buffer size mismatch");
      std::copy(values.begin(), values.end(), p);
    });
  }
  const std::uint64_t num_host = r.read_u64();
  ELREC_CHECK(num_host == stores.size(),
              "checkpoint host-store count mismatch");
  for (HostEmbeddingStore* store : stores) {
    const index_t rows = r.read_i64();
    const index_t dim = r.read_i64();
    ELREC_CHECK(rows == store->num_rows() && dim == store->dim(),
                "checkpoint host-store shape mismatch");
    const auto values = r.read_vector<float>();
    ELREC_CHECK(static_cast<index_t>(values.size()) == rows * dim,
                "checkpoint host-store payload size mismatch");
    Matrix weights(rows, dim);
    std::copy(values.begin(), values.end(), weights.data());
    store->load_weights(weights);
  }
  r.expect_footer();
  return next_batch;
}

}  // namespace elrec
