// Error-bounded gradient/parameter codec benchmark.
//
// Three parts:
//  1. MICRO: encode/decode throughput (GB/s of raw tensor processed) and
//     bytes reduction for the null, dual-level int8 and dual-level int4
//     codecs on pooled-gradient-shaped tensors.
//  2. END-TO-END: the real ElRecTrainer pipeline (Fig. 16 workload) run
//     under each codec — batches/s, bytes-on-queue reduction, and the
//     final-loss delta against the null-codec run.
//  3. GATES (--quick): the dual-level codec must cut bytes-on-queue by
//     >= 4x while keeping the final-loss delta within the configured
//     budget; the null codec must add zero loss delta. Violations exit
//     non-zero so the perf harness catches codec regressions.
#include <cstdlib>

#include "bench_util.hpp"
#include "codec/grad_codec.hpp"
#include "common/prng.hpp"
#include "pipeline/elrec_trainer.hpp"
#include "sim_inputs.hpp"

using namespace elrec;
using namespace elrec::benchutil;

namespace {

// Loss-delta budget for the end-to-end gate: the dual-level codec bounds
// per-tensor error at rel_bound * RMS, which over the short gate run must
// not move the final loss by more than this (absolute).
constexpr double kLossDeltaGate = 0.02;
constexpr double kBytesReductionGate = 4.0;

CodecConfig codec_arm(const std::string& name) {
  CodecConfig cfg;
  if (name == "null") {
    cfg.id = CodecId::kNull;
  } else {
    cfg.id = CodecId::kDualLevel;
    cfg.bits = name == "dual-int4" ? 4 : 8;
    cfg.rel_bound = 0.05f;
  }
  return cfg;
}

/// Pooled-gradient-shaped tensor: Zipf-skewed row magnitudes.
Matrix gradient_tensor(index_t rows, index_t cols, std::uint64_t seed) {
  Prng rng(seed);
  Matrix g(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    // Mild Zipf decay: hot rows pool many sample gradients, but most rows
    // stay above the codec's dead zone (matches the pipeline measurement).
    const double scale = 1.0 / std::pow(static_cast<double>(r) + 1.0, 0.25);
    float* row = g.row(r);
    for (index_t j = 0; j < cols; ++j) {
      row[j] = static_cast<float>(scale * rng.normal());
    }
  }
  return g;
}

void micro(JsonBenchReport* report, int reps) {
  header("Codec micro: encode/decode throughput, 4096 x 64 pooled grads");
  const index_t rows = 4096, cols = 64;
  const Matrix g = gradient_tensor(rows, cols, 11);
  const double raw_bytes = static_cast<double>(g.size()) * sizeof(float);

  std::vector<std::vector<std::string>> table;
  table.push_back({"Codec", "encode GB/s", "MAD", "decode GB/s", "MAD",
                   "reduction"});
  for (const std::string name : {"null", "dual-int8", "dual-int4"}) {
    auto codec = make_codec(codec_arm(name));
    EncodedBlob blob;
    codec->encode(g, blob);  // warm scratch + seed running stats
    const MedianMad enc_s =
        time_median_seconds([&] { codec->encode(g, blob); }, reps);
    Matrix out;
    const MedianMad dec_s =
        time_median_seconds([&] { decode_blob(blob, out); }, reps);
    const double enc_gbps = raw_bytes / enc_s.median / 1e9;
    const double dec_gbps = raw_bytes / dec_s.median / 1e9;
    const double reduction = raw_bytes / static_cast<double>(blob.size());
    table.push_back({name, fmt(enc_gbps, 2), fmt(enc_s.mad_pct(), 1) + "%",
                     fmt(dec_gbps, 2), fmt(dec_s.mad_pct(), 1) + "%",
                     fmt(reduction, 2) + "x"});
    if (report != nullptr) {
      report->add("micro_" + name, {{"encode_GB/s", enc_gbps},
                                    {"encode_mad_pct", enc_s.mad_pct()},
                                    {"decode_GB/s", dec_gbps},
                                    {"decode_mad_pct", dec_s.mad_pct()},
                                    {"bytes_reduction", reduction}});
    }
  }
  print_table(table);
}

struct E2eResult {
  double batches_per_s = 0.0;
  double final_loss = 0.0;
  double reduction = 1.0;
};

E2eResult run_pipeline(const CodecConfig& codec, index_t num_batches) {
  // Fig. 16 real-pipeline workload with one host table.
  DatasetSpec spec;
  spec.name = "codec-demo";
  spec.num_dense = 4;
  spec.table_rows = {20000, 4000, 256};
  spec.num_samples = 1 << 20;
  spec.zipf_s = 1.15;

  ElRecTrainerConfig cfg;
  cfg.model.num_dense = spec.num_dense;
  cfg.model.embedding_dim = 16;
  cfg.model.bottom_hidden = {32};
  cfg.model.top_hidden = {32};
  cfg.placement = {TablePlacement::kDeviceTT, TablePlacement::kHost,
                   TablePlacement::kDeviceDense};
  cfg.tt_rank = 8;
  cfg.lr = 0.05f;
  cfg.seed = 3;
  cfg.queue_capacity = 4;
  cfg.codec = codec;

  ElRecTrainer trainer(cfg, spec);
  SyntheticDataset data(spec, 17);
  const ElRecRunStats stats = trainer.train(data, num_batches, 256);
  E2eResult r;
  r.batches_per_s = static_cast<double>(stats.batches) / stats.wall_seconds;
  r.final_loss = stats.final_loss;
  r.reduction = stats.encoded_queue_bytes > 0
                    ? static_cast<double>(stats.raw_queue_bytes) /
                          static_cast<double>(stats.encoded_queue_bytes)
                    : 1.0;
  return r;
}

int end_to_end(JsonBenchReport* report, index_t num_batches, bool gate) {
  header("Codec end-to-end: ElRecTrainer pipeline, codec off vs on");
  int failures = 0;
  std::vector<std::vector<std::string>> table;
  table.push_back(
      {"Codec", "batches/s", "final loss", "loss delta", "bytes reduction"});
  double null_loss = 0.0;
  for (const std::string name : {"null", "dual-int8", "dual-int4"}) {
    const E2eResult r = run_pipeline(codec_arm(name), num_batches);
    if (name == "null") null_loss = r.final_loss;
    const double delta = std::abs(r.final_loss - null_loss);
    table.push_back({name, fmt(r.batches_per_s, 1), fmt(r.final_loss, 4),
                     fmt(delta, 5), fmt(r.reduction, 2) + "x"});
    if (report != nullptr) {
      report->add("e2e_" + name, {{"batches/s", r.batches_per_s},
                                  {"final_loss", r.final_loss},
                                  {"loss_delta", delta},
                                  {"bytes_reduction", r.reduction}});
    }
    if (gate && name != "null") {
      if (delta > kLossDeltaGate) {
        note("GATE FAIL: " + name + " loss delta " + fmt(delta, 5) +
             " exceeds budget " + fmt(kLossDeltaGate, 5));
        ++failures;
      }
      if (name == "dual-int4" && r.reduction < kBytesReductionGate) {
        note("GATE FAIL: " + name + " bytes reduction " + fmt(r.reduction, 2) +
             "x below required " + fmt(kBytesReductionGate, 1) + "x");
        ++failures;
      }
    }
  }
  print_table(table);
  if (gate && failures == 0) {
    note("gates passed: reduction >= " + fmt(kBytesReductionGate, 1) +
         "x (int4) and loss delta <= " + fmt(kLossDeltaGate, 3));
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = has_flag(argc, argv, "--quick");
  if (quick) {
    JsonBenchReport report("codec");
    micro(&report, 5);
    const int failures = end_to_end(&report, 60, /*gate=*/true);
    report.write();
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
  }
  micro(nullptr, 20);
  end_to_end(nullptr, 200, /*gate=*/false);
  return EXIT_SUCCESS;
}
