// Error-bounded compression of the pipeline's hot byte streams (§V traffic).
//
// The prefetch/gradient queues between the worker and the host embedding
// store move pooled embedding gradients and parameter rows — the
// bytes-on-queue bottleneck the simulator charges framework cost for. An IGradCodec turns each Matrix crossing a queue into
// a self-describing EncodedBlob:
//
//   * NullCodec     — bitwise identity (raw fp32 payload). The default; a
//                     run under the null codec is byte-for-byte identical to
//                     one with no codec at all, including checkpoints.
//   * DualLevelCodec — two stacked lossy levels, after "Dual-Level Adaptive
//                     Lossy Compression for DLRM training":
//                       L1: row sparsification — rows whose max |g| falls
//                           below the quantization dead-zone are dropped
//                           entirely (pooled gradients of cold rows);
//                       L2: per-tensor linear quantization of the kept rows
//                           into int8 or packed int4 codes with one fp32
//                           step, the step adapted from a running RMS of
//                           the stream so the absolute error stays under a
//                           bound proportional to typical gradient scale.
//
// Wire format (all little-endian, header then payload):
//   CodecWireHeader { magic 'EGC1', codec id, payload kind, bits,
//                     rows, cols, kept_rows, step, bound, payload bytes,
//                     FNV-1a payload checksum }
//   raw payload:       rows*cols fp32 (NullCodec, or bound == 0)
//   quantized payload: kept_rows u32 row ids, then per kept row cols int8
//                      codes (or ceil(cols/2) bytes of packed int4)
//
// Decoding needs no codec instance: decode_blob() dispatches on the header,
// so a blob can cross a thread boundary and be opened by whoever pops it.
// encode() is stateful (running stats, scratch) and must be called by one
// thread at a time; the trainers keep one codec instance per stream per
// producing thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace elrec {

/// Stable on-wire codec identifiers (recorded in checkpoints; never reuse).
enum class CodecId : std::uint32_t {
  kNull = 0,       // bitwise identity
  kDualLevel = 1,  // sparsification + adaptive linear quantization
};

/// Human-readable codec name ("null", "dual-level") for diagnostics.
std::string codec_name(CodecId id);

/// One encoded tensor: CodecWireHeader followed by its payload bytes.
using EncodedBlob = std::vector<std::uint8_t>;

/// Self-describing blob header. POD, memcpy'd to/from the blob.
struct CodecWireHeader {
  char magic[4];               // 'E','G','C','1'
  std::uint32_t codec_id;      // CodecId
  std::uint32_t payload_kind;  // 0 = raw fp32, 1 = quantized
  std::uint32_t bits;          // code width: 32 raw, 8 or 4 quantized
  std::int64_t rows = 0;       // decoded tensor shape
  std::int64_t cols = 0;
  std::int64_t kept_rows = 0;  // rows present in a quantized payload
  float step = 0.0f;           // quantization step (fp32 scale; offset is 0)
  float bound = 0.0f;          // max |decoded - encoded-input| guarantee
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;  // FNV-1a over the payload bytes
};
static_assert(sizeof(CodecWireHeader) == 64, "wire header layout drifted");

constexpr std::uint32_t kCodecPayloadRawF32 = 0;
constexpr std::uint32_t kCodecPayloadQuantized = 1;

struct CodecConfig {
  CodecId id = CodecId::kNull;

  // --- DualLevelCodec knobs (ignored by the null codec) ---
  // Code width of the quantized payload: 8 (one byte per element) or 4
  // (two elements per byte). int4 halves the bytes at 16x coarser steps.
  int bits = 8;
  // Target absolute error bound as a fraction of the running gradient RMS.
  // 0 (with min_abs_bound 0) degrades the codec to a lossless raw payload:
  // bound 0 MUST mean bitwise identity.
  float rel_bound = 0.05f;
  // Floor for the adapted bound (absolute units). Keeps the step from
  // collapsing on near-zero tensors early in training.
  float min_abs_bound = 0.0f;
  // Weight of the newest tensor in the running-RMS EMA (0 < ema <= 1).
  float ema = 0.25f;

  bool lossless() const {
    return id == CodecId::kNull || (rel_bound == 0.0f && min_abs_bound == 0.0f);
  }
};

/// Encoder side of one stream. Stateful: running gradient statistics adapt
/// the error bound, and scratch buffers are reused across calls, so each
/// instance must be driven by a single thread (the trainers create one
/// instance per stream per producing thread). Decoding is the stateless
/// free function decode_blob().
class IGradCodec {
 public:
  virtual ~IGradCodec() = default;

  virtual CodecId id() const = 0;
  virtual std::string name() const = 0;

  /// Encodes rows x cols values at `data` (row-major, contiguous) into
  /// `out` (header + payload). `out` is overwritten and reused.
  virtual void encode(const float* data, index_t rows, index_t cols,
                      EncodedBlob& out) = 0;

  void encode(const Matrix& m, EncodedBlob& out) {
    encode(m.data(), m.rows(), m.cols(), out);
  }
};

/// Builds the codec the config names.
std::unique_ptr<IGradCodec> make_codec(const CodecConfig& config);

/// Validates and returns the blob's header (magic, size and checksum are
/// checked; throws Error on a truncated or corrupt blob).
CodecWireHeader peek_blob_header(const EncodedBlob& blob);

/// Decodes a blob produced by any codec into `out` (resized to the encoded
/// shape). Null / raw payloads decode bitwise-identically to the input.
void decode_blob(const EncodedBlob& blob, Matrix& out);

}  // namespace elrec
