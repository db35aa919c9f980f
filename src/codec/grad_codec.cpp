#include "codec/grad_codec.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/serialize.hpp"  // detail::fnv1a
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elrec {

namespace {

// Process-wide codec traffic accounting, shared by every instance: raw
// bytes offered to encode(), encoded bytes produced, and the per-call
// encode/decode latency split. bench_codec and the check.sh --codec gate
// read the reduction ratio straight off these counters.
struct CodecCounters {
  obs::Counter& raw_bytes;
  obs::Counter& encoded_bytes;
  obs::Histogram& encode_us;
  obs::Histogram& decode_us;
};

CodecCounters& codec_counters() {
  auto& reg = obs::MetricsRegistry::global();
  static CodecCounters c{reg.counter("codec.raw_bytes"),
                         reg.counter("codec.encoded_bytes"),
                         reg.histogram("codec.encode_us"),
                         reg.histogram("codec.decode_us")};
  return c;
}

constexpr char kMagic[4] = {'E', 'G', 'C', '1'};

void write_header_and_count(const CodecWireHeader& h, EncodedBlob& out) {
  std::memcpy(out.data(), &h, sizeof(h));
  codec_counters().raw_bytes.add(
      static_cast<std::uint64_t>(h.rows * h.cols) * sizeof(float));
  codec_counters().encoded_bytes.add(out.size());
}

CodecWireHeader make_header(CodecId id, index_t rows, index_t cols) {
  CodecWireHeader h{};
  std::memcpy(h.magic, kMagic, 4);
  h.codec_id = static_cast<std::uint32_t>(id);
  h.rows = rows;
  h.cols = cols;
  return h;
}

std::uint64_t payload_checksum(const EncodedBlob& blob) {
  return detail::fnv1a(
      detail::kFnvOffset,
      reinterpret_cast<const char*>(blob.data()) + sizeof(CodecWireHeader),
      blob.size() - sizeof(CodecWireHeader));
}

// Raw fp32 payload: memcpy both ways, bitwise identity (NaN payloads and
// denormals survive untouched). Shared by NullCodec and the bound == 0
// degradation of the dual-level codec.
void encode_raw(CodecId id, const float* data, index_t rows, index_t cols,
                EncodedBlob& out) {
  const std::size_t payload =
      static_cast<std::size_t>(rows * cols) * sizeof(float);
  out.resize(sizeof(CodecWireHeader) + payload);
  if (payload > 0) {
    std::memcpy(out.data() + sizeof(CodecWireHeader), data, payload);
  }
  CodecWireHeader h = make_header(id, rows, cols);
  h.payload_kind = kCodecPayloadRawF32;
  h.bits = 32;
  h.kept_rows = rows;
  h.payload_bytes = payload;
  h.checksum = payload_checksum(out);
  write_header_and_count(h, out);
}

class NullCodec final : public IGradCodec {
 public:
  CodecId id() const override { return CodecId::kNull; }
  std::string name() const override { return "null"; }

  void encode(const float* data, index_t rows, index_t cols,
              EncodedBlob& out) override {
    TRACE_SPAN("codec.encode");
    Stopwatch sw;
    encode_raw(CodecId::kNull, data, rows, cols, out);
    codec_counters().encode_us.record(sw.microseconds());
  }
};

class DualLevelCodec final : public IGradCodec {
 public:
  explicit DualLevelCodec(const CodecConfig& config) : config_(config) {
    ELREC_CHECK(config.bits == 8 || config.bits == 4,
                "dual-level codec supports int8 or int4 payloads");
    ELREC_CHECK(config.rel_bound >= 0.0f && config.min_abs_bound >= 0.0f,
                "error bounds must be non-negative");
    ELREC_CHECK(config.ema > 0.0f && config.ema <= 1.0f,
                "running-stats EMA weight must be in (0, 1]");
  }

  CodecId id() const override { return CodecId::kDualLevel; }
  std::string name() const override {
    return config_.bits == 4 ? "dual-level-int4" : "dual-level-int8";
  }

  void encode(const float* data, index_t rows, index_t cols,
              EncodedBlob& out) override {
    TRACE_SPAN("codec.encode");
    Stopwatch sw;
    if (config_.lossless()) {
      // bound == 0 MUST mean bitwise identity (checkpoint/resume parity).
      encode_raw(CodecId::kDualLevel, data, rows, cols, out);
      codec_counters().encode_us.record(sw.microseconds());
      return;
    }
    encode_quantized(data, rows, cols, out);
    codec_counters().encode_us.record(sw.microseconds());
  }

 private:
  // Tensor scan: max |v| and RMS over the finite values only, so one stray
  // inf cannot blow the step out to infinity. Single-threaded on purpose —
  // encode is deterministic at any OMP thread count because it never forks.
  static void scan(const float* data, std::size_t n, float& amax_out,
                   double& rms_out) {
    float amax = 0.0f;
    double sumsq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float a = std::fabs(data[i]);
      if (!std::isfinite(a)) continue;
      if (a > amax) amax = a;
      sumsq += static_cast<double>(a) * a;
    }
    amax_out = amax;
    rms_out = n > 0 ? std::sqrt(sumsq / static_cast<double>(n)) : 0.0;
  }

  void encode_quantized(const float* data, index_t rows, index_t cols,
                        EncodedBlob& out) {
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    float amax = 0.0f;
    double rms = 0.0;
    scan(data, n, amax, rms);

    // Adaptive bound: EMA of per-tensor RMS tracks the gradient scale of
    // THIS stream (pooled gradients shrink as training converges; the bound
    // shrinks with them). Seeded with the first tensor's RMS.
    if (n > 0) {
      running_rms_ = seeded_
                         ? config_.ema * rms + (1.0 - config_.ema) * running_rms_
                         : rms;
      seeded_ = true;
    }
    const float bound =
        std::max(config_.min_abs_bound,
                 config_.rel_bound * static_cast<float>(running_rms_));

    // Linear quantization: q = round(v / step), v' = q * step, so the error
    // is step/2 — unless amax does not fit the code range, in which case
    // the step widens to amax/qmax and the effective bound widens with it
    // (recorded in the header; never silently exceeded).
    const float qmax = config_.bits == 4 ? 7.0f : 127.0f;
    float step = 2.0f * bound;
    if (amax > qmax * step) step = amax / qmax;
    if (step <= 0.0f) step = 1.0f;  // all-zero tensor: any step encodes it
    const float dead_zone = 0.5f * step;

    // Level 1 — row sparsification: a row whose finite max |v| sits inside
    // the dead zone would quantize to all-zero codes; drop it entirely and
    // let decode restore zeros. Pooled embedding gradients concentrate
    // magnitude on hot rows, so cold rows vanish from the wire.
    kept_.clear();
    kept_.reserve(static_cast<std::size_t>(rows));
    for (index_t r = 0; r < rows; ++r) {
      const float* src = data + static_cast<std::size_t>(r) * cols;
      float row_amax = 0.0f;
      for (index_t j = 0; j < cols; ++j) {
        const float a = std::fabs(src[j]);
        if (std::isfinite(a) && a > row_amax) row_amax = a;
        // Non-finite values force the row onto the wire so clamping applies.
        if (!std::isfinite(src[j])) row_amax = qmax * step;
      }
      if (row_amax > dead_zone) kept_.push_back(static_cast<std::uint32_t>(r));
    }

    const std::size_t kept = kept_.size();
    const std::size_t row_bytes =
        config_.bits == 4 ? (static_cast<std::size_t>(cols) + 1) / 2
                          : static_cast<std::size_t>(cols);
    const std::size_t payload = kept * sizeof(std::uint32_t) + kept * row_bytes;
    out.resize(sizeof(CodecWireHeader) + payload);
    std::uint8_t* p = out.data() + sizeof(CodecWireHeader);
    if (kept > 0) {
      std::memcpy(p, kept_.data(), kept * sizeof(std::uint32_t));
    }
    p += kept * sizeof(std::uint32_t);

    // Level 2 — vectorizable pack of the kept rows. codes_ is per-instance
    // scratch (grow-only, no per-row allocation).
    const float inv_step = 1.0f / step;
    codes_.resize(static_cast<std::size_t>(cols));
    for (std::size_t k = 0; k < kept; ++k) {
      const float* src = data + static_cast<std::size_t>(kept_[k]) * cols;
      std::int8_t* codes = codes_.data();
#pragma omp simd
      for (index_t j = 0; j < cols; ++j) {
        float v = src[j];
        // Clamp policy: NaN encodes as 0, ±inf saturates to ±qmax*step;
        // denormals fall in the dead zone and flush to 0. isnan/isinf are
        // branchless enough for simd and keep UBSan happy (no f2i of inf).
        v = std::isnan(v) ? 0.0f : v;
        float q = v * inv_step;
        q = q > qmax ? qmax : (q < -qmax ? -qmax : q);
        codes[j] = static_cast<std::int8_t>(std::nearbyintf(q));
      }
      if (config_.bits == 8) {
        std::memcpy(p, codes, static_cast<std::size_t>(cols));
      } else {
        // Two int4 codes per byte (low nibble = even column), row-padded.
        for (index_t j = 0; j < cols; j += 2) {
          const std::uint8_t lo = static_cast<std::uint8_t>(codes[j]) & 0x0f;
          const std::uint8_t hi =
              j + 1 < cols ? (static_cast<std::uint8_t>(codes[j + 1]) & 0x0f)
                           : 0;
          p[static_cast<std::size_t>(j) / 2] =
              static_cast<std::uint8_t>(lo | (hi << 4));
        }
      }
      p += row_bytes;
    }

    CodecWireHeader h = make_header(CodecId::kDualLevel, rows, cols);
    h.payload_kind = kCodecPayloadQuantized;
    h.bits = static_cast<std::uint32_t>(config_.bits);
    h.kept_rows = static_cast<index_t>(kept);
    h.step = step;
    // The guarantee actually delivered on finite inputs: quantization error
    // step/2, and a dropped row's values were all below the dead zone.
    h.bound = dead_zone;
    h.payload_bytes = payload;
    h.checksum = payload_checksum(out);
    write_header_and_count(h, out);
  }

  CodecConfig config_;
  double running_rms_ = 0.0;
  bool seeded_ = false;
  std::vector<std::uint32_t> kept_;  // per-call scratch, grow-only
  std::vector<std::int8_t> codes_;
};

// Sign-extends one int4 nibble.
inline std::int8_t nibble_to_i8(std::uint8_t nib) {
  return static_cast<std::int8_t>(static_cast<std::int8_t>(nib << 4) >> 4);
}

void decode_into(const CodecWireHeader& h, const std::uint8_t* payload,
                 float* out, std::size_t n) {
  if (h.payload_kind == kCodecPayloadRawF32) {
    if (n > 0) std::memcpy(out, payload, n * sizeof(float));
    return;
  }
  ELREC_CHECK(h.payload_kind == kCodecPayloadQuantized,
              "unknown codec payload kind");
  if (n == 0) return;
  std::memset(out, 0, n * sizeof(float));  // dropped rows decode to zero
  const std::size_t kept = static_cast<std::size_t>(h.kept_rows);
  const std::size_t row_bytes =
      h.bits == 4 ? (static_cast<std::size_t>(h.cols) + 1) / 2
                  : static_cast<std::size_t>(h.cols);
  const std::uint8_t* codes = payload + kept * sizeof(std::uint32_t);
  const float step = h.step;
  for (std::size_t k = 0; k < kept; ++k) {
    std::uint32_t row;
    std::memcpy(&row, payload + k * sizeof(std::uint32_t), sizeof(row));
    ELREC_CHECK(row < static_cast<std::uint64_t>(h.rows),
                "encoded row id out of range");
    float* dst = out + static_cast<std::size_t>(row) * h.cols;
    const std::uint8_t* src = codes + k * row_bytes;
    if (h.bits == 8) {
#pragma omp simd
      for (index_t j = 0; j < h.cols; ++j) {
        dst[j] = static_cast<float>(static_cast<std::int8_t>(src[j])) * step;
      }
    } else {
      for (index_t j = 0; j < h.cols; ++j) {
        const std::uint8_t byte = src[static_cast<std::size_t>(j) / 2];
        const std::uint8_t nib = (j % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
        dst[j] = static_cast<float>(nibble_to_i8(nib)) * step;
      }
    }
  }
}

}  // namespace

std::string codec_name(CodecId id) {
  switch (id) {
    case CodecId::kNull:
      return "null";
    case CodecId::kDualLevel:
      return "dual-level";
  }
  return "unknown(" + std::to_string(static_cast<std::uint32_t>(id)) + ")";
}

std::unique_ptr<IGradCodec> make_codec(const CodecConfig& config) {
  switch (config.id) {
    case CodecId::kNull:
      return std::make_unique<NullCodec>();
    case CodecId::kDualLevel:
      return std::make_unique<DualLevelCodec>(config);
  }
  throw Error("unknown codec id " +
              std::to_string(static_cast<std::uint32_t>(config.id)));
}

CodecWireHeader peek_blob_header(const EncodedBlob& blob) {
  ELREC_CHECK(blob.size() >= sizeof(CodecWireHeader),
              "encoded blob shorter than its header — truncated");
  CodecWireHeader h;
  std::memcpy(&h, blob.data(), sizeof(h));
  ELREC_CHECK(std::memcmp(h.magic, kMagic, 4) == 0,
              "encoded blob magic mismatch — not a codec blob");
  ELREC_CHECK(h.rows >= 0 && h.cols >= 0 && h.kept_rows <= h.rows,
              "encoded blob header is implausible");
  ELREC_CHECK(blob.size() == sizeof(CodecWireHeader) + h.payload_bytes,
              "encoded blob payload length mismatch — truncated");
  ELREC_CHECK(h.checksum == payload_checksum(blob),
              "encoded blob checksum mismatch — corrupt payload");
  return h;
}

void decode_blob(const EncodedBlob& blob, Matrix& out) {
  TRACE_SPAN("codec.decode");
  Stopwatch sw;
  const CodecWireHeader h = peek_blob_header(blob);
  out.resize(h.rows, h.cols);
  decode_into(h, blob.data() + sizeof(CodecWireHeader), out.data(),
              static_cast<std::size_t>(out.size()));
  codec_counters().decode_us.record(sw.microseconds());
}

}  // namespace elrec
