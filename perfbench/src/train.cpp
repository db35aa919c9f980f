// train_tt and train_ps: ElRecTrainer::train, pipelined, on seeded
// synthetic data.
//
// A run trains in fixed chunks of `chunk_batches` batches (one train() call
// each, continuing the same data stream and model). Chunk 0 is warm-up.
// train_loss is the mean batch loss of the chunk that ends at the workload's
// fixed sample count, reported as normalized entropy; training then
// continues in chunks until the time budget is spent. Throughput and step
// time are medians over the timed chunks.
#include <omp.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/elrec_trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace elrec;

namespace {

struct TrainWorkload {
  DatasetSpec spec;
  std::vector<TablePlacement> placement;
  index_t batch_size = 0;
  index_t chunk_batches = 0;
  int loss_chunk = 0;  // train_loss = mean loss of this chunk (0-based)
  int setup_reps = 0;  // set-ups per run; setup_s is their median
  CodecConfig codec;
  index_t tt_table = 0;  // table the core/tt call benchmarks use
};

constexpr index_t kDim = 16;
constexpr index_t kRank = 16;
// Largest per-batch loss difference allowed between two runs of a lossy
// codec configuration.
constexpr double kLossyLossTolerance = 5e-3;

DlrmConfig model_config(index_t num_dense) {
  DlrmConfig cfg;
  cfg.num_dense = num_dense;
  cfg.embedding_dim = kDim;
  cfg.bottom_hidden = {64, 32};
  cfg.top_hidden = {64, 32};
  return cfg;
}

// Every large table compressed to Eff-TT, the small ones dense; no host
// tables, null codec, large batch, moderate skew.
TrainWorkload train_tt_workload() {
  TrainWorkload w;
  w.spec.name = "train_tt";
  w.spec.table_rows = {400000, 200000, 100000, 50000, 1000, 200, 50, 10};
  w.spec.num_samples = 1 << 24;
  w.spec.zipf_s = 1.05;
  for (index_t rows : w.spec.table_rows) {
    w.placement.push_back(rows >= 10000 ? TablePlacement::kDeviceTT
                                        : TablePlacement::kDeviceDense);
  }
  w.batch_size = 4096;
  w.chunk_batches = 4;
  w.loss_chunk = 19;
  w.setup_reps = 5;
  w.tt_table = 0;
  return w;
}

// Large tables on the host behind the pipelined parameter server, one small
// Eff-TT table; small batch, high skew, dual-level int4 codec on the queues.
TrainWorkload train_ps_workload() {
  TrainWorkload w;
  w.spec.name = "train_ps";
  w.spec.table_rows = {600000, 300000, 100000, 20000, 500, 100, 20};
  w.spec.num_samples = 1 << 24;
  w.spec.zipf_s = 1.2;
  w.spec.multi_hot_max = 4;
  w.placement = {TablePlacement::kHost,        TablePlacement::kHost,
                 TablePlacement::kHost,        TablePlacement::kDeviceTT,
                 TablePlacement::kDeviceDense, TablePlacement::kDeviceDense,
                 TablePlacement::kDeviceDense};
  w.batch_size = 256;
  w.chunk_batches = 24;
  w.loss_chunk = 39;
  w.setup_reps = 3;
  w.codec.id = CodecId::kDualLevel;
  w.codec.bits = 4;
  w.tt_table = 3;
  return w;
}

ElRecTrainerConfig trainer_config(const TrainWorkload& w, std::uint64_t seed) {
  ElRecTrainerConfig cfg;
  cfg.model = model_config(w.spec.num_dense);
  cfg.placement = w.placement;
  cfg.tt_rank = kRank;
  cfg.queue_capacity = 4;
  cfg.seed = seed;
  cfg.codec = w.codec;
  return cfg;
}

struct TrainRun {
  Samples setup_s;
  Samples samples_per_s;  // per timed chunk
  Samples batch_ms;       // per timed chunk: wall / batches
  double loss = 0.0;
  std::vector<float> loss_curve;  // every batch, in order
  index_t batches = 0;
  index_t failed_batches = 0;
  std::uint64_t rows_patched = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t raw_bytes = 0;
};

// Sets up (repeatedly, for the setup_s median) and trains for `seconds`,
// and at least through the loss chunk.
TrainRun run_training(const TrainWorkload& w, std::uint64_t seed,
                      double seconds, int setup_reps) {
  TrainRun run;
  std::unique_ptr<SyntheticDataset> data;
  std::unique_ptr<ElRecTrainer> trainer;
  for (int r = 0; r < setup_reps; ++r) {
    trainer.reset();
    data.reset();
    const auto t0 = Clock::now();
    data = std::make_unique<SyntheticDataset>(w.spec, seed);
    trainer = std::make_unique<ElRecTrainer>(trainer_config(w, seed), w.spec);
    run.setup_s.add(seconds_since(t0));
  }

  const auto t_start = Clock::now();
  index_t b = 0;
  for (int c = 0; c <= w.loss_chunk || seconds_since(t_start) < seconds; ++c) {
    const auto t0 = Clock::now();
    ElRecRunStats st;
    try {
      st = trainer->train(*data, b + w.chunk_batches, w.batch_size, b);
    } catch (const PipelineError& e) {
      std::printf("  chunk %d failed: %s\n", c, e.what());
      run.failed_batches += w.chunk_batches;
      run.batches += w.chunk_batches;
      break;
    }
    const double dt = seconds_since(t0);
    b += w.chunk_batches;
    run.batches += w.chunk_batches;
    if (c > 0) {
      run.samples_per_s.add(
          static_cast<double>(w.chunk_batches * w.batch_size) / dt);
      run.batch_ms.add(dt * 1e3 / static_cast<double>(w.chunk_batches));
    }
    run.loss_curve.insert(run.loss_curve.end(), st.loss_curve.begin(),
                          st.loss_curve.end());
    if (c == w.loss_chunk) {
      run.loss = std::accumulate(st.loss_curve.begin(), st.loss_curve.end(),
                                 0.0) /
                 static_cast<double>(st.loss_curve.size());
    }
    run.rows_patched += static_cast<std::uint64_t>(st.rows_patched);
    run.encoded_bytes += st.encoded_queue_bytes;
    run.raw_bytes += st.raw_queue_bytes;
  }
  return run;
}

// Entropy of the labels of the batches train_loss averages over, regenerated
// from the same seeded stream. Dividing by it makes train_loss a normalized
// entropy, comparable across seeds whose label rates differ.
double loss_chunk_label_entropy(const TrainWorkload& w, std::uint64_t seed) {
  SyntheticDataset data(w.spec, seed);
  data.skip_batches(w.loss_chunk * w.chunk_batches, w.batch_size);
  double positives = 0.0, total = 0.0;
  for (index_t b = 0; b < w.chunk_batches; ++b) {
    for (float y : data.next_batch(w.batch_size).labels) {
      positives += y > 0.5f ? 1.0 : 0.0;
      total += 1.0;
    }
  }
  return label_entropy(positives / total);
}

}  // namespace

void report_idle_training_layers(Report& report) {
  report.layer("pipeline.rows_patched_per_batch", 0.0, "count");
  report.layer("pipeline.queue_bytes_per_sample", 0.0, "B");
  report.layer("codec.bytes_reduction", 0.0, "x");
}

void run_train(const Args& args, bool parameter_server, Report& report) {
  const TrainWorkload w =
      parameter_server ? train_ps_workload() : train_tt_workload();
  const int nproc = hardware_threads();
  // The calling thread is the trainer's worker (it drives the OpenMP team);
  // the trainer adds one server thread, so the team gets nproc - 1.
  const int omp_threads = std::max(1, nproc - 1);
  omp_set_num_threads(omp_threads);
  report.meta("threads.omp", std::to_string(omp_threads));
  report.meta("threads.trainer_server", "1");
  report.meta("threads.runnable_max", std::to_string(omp_threads + 1));
  report.meta("workload.batch_size", std::to_string(w.batch_size));
  report.meta("workload.chunk_batches", std::to_string(w.chunk_batches));
  report.meta("workload.loss_samples",
              std::to_string((w.loss_chunk + 1) * w.chunk_batches * w.batch_size));

  obs::set_trace_enabled(false);
  if (!args.trace) {
    const TrainRun run = run_training(w, args.seed, args.seconds, w.setup_reps);
    report.count_ops(static_cast<std::uint64_t>(run.batches),
                     static_cast<std::uint64_t>(run.failed_batches));
    const auto tail = run.batch_ms.tail();
    report.e2e("throughput_per_s", run.samples_per_s.median(), "1/s",
               "train_samples_per_s: median of " +
                   std::to_string(run.samples_per_s.count()) + " chunks");
    report.raw("step_p50_ms", run.batch_ms.median());
    report.raw("step_p" + fmt(tail.pct, 0) + "_ms", tail.value);
    const double ne = run.loss / loss_chunk_label_entropy(w, args.seed);
    report.e2e("loss", ne, "ne",
               "train_loss after the fixed sample count as normalized "
               "entropy (BCE " + fmt(run.loss, 6) + ")");
    report.e2e("setup_s", run.setup_s.median(), "s",
               "median of " + std::to_string(w.setup_reps) + " set-ups");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.check("train_loss_finite", std::isfinite(run.loss),
                 "loss=" + fmt(run.loss, 6));
    report.check("no_failed_batches", run.failed_batches == 0,
                 std::to_string(run.failed_batches) + " failed");
    return;
  }

  // Traced run: the same training twice, untraced then traced, each on half
  // the budget. Their loss curves must match bitwise (traced == untraced).
  const TrainRun plain = run_training(w, args.seed, args.seconds / 2, 1);
  // This thread (the trainer's worker) keeps a large ring for the whole
  // traced run; each chunk's short-lived server thread gets a small one.
  obs::set_trace_capacity(1 << 19);
  obs::set_trace_enabled(true);
  { obs::TraceSpan register_ring("bench.train"); }
  obs::set_trace_enabled(false);
  obs::set_trace_capacity(1 << 13);
  obs::clear_trace();
  const CounterDelta counters(kernel_counters());
  obs::set_trace_enabled(true);
  const TrainRun traced = run_training(w, args.seed, args.seconds / 2, 1);
  obs::set_trace_enabled(false);
  report.count_ops(static_cast<std::uint64_t>(plain.batches + traced.batches),
                   static_cast<std::uint64_t>(plain.failed_batches +
                                              traced.failed_batches));
  const std::string trace_path =
      args.out_dir + "/trace-" + args.workload + ".json";
  report.check("trace_written", obs::write_chrome_trace(trace_path), trace_path);
  report.meta("trace.path", trace_path);
  flag_dropped_spans(report);

  // traced == untraced. The null codec makes a run bitwise reproducible; a
  // lossy codec only to within its error bound, because the cache's RAW
  // repair coverage depends on timing (DESIGN.md, traffic compression).
  const std::size_t common =
      std::min(plain.loss_curve.size(), traced.loss_curve.size());
  std::size_t differ = 0;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < common; ++i) {
    const float a = plain.loss_curve[i], b = traced.loss_curve[i];
    if (float_bits(a) != float_bits(b)) ++differ;
    max_diff = std::max(max_diff, static_cast<double>(std::fabs(a - b)));
  }
  const bool lossless = w.codec.lossless();
  report.check(lossless ? "traced_eq_untraced" : "traced_near_untraced",
               common > 0 && (lossless ? differ == 0
                                       : max_diff <= kLossyLossTolerance),
               std::to_string(common) + " batch losses, " +
                   std::to_string(differ) + " differ bitwise, max |diff| " +
                   fmt(max_diff, 7));
  report.check("train_loss_finite", std::isfinite(traced.loss),
               "loss=" + fmt(traced.loss, 6));
  report.check("no_failed_batches",
               plain.failed_batches + traced.failed_batches == 0, "");

  const double samples =
      static_cast<double>(traced.batches * w.batch_size);
  const double batches = static_cast<double>(traced.batches);
  report.raw("batches", batches);
  report.raw("samples", samples);
  report.raw("untraced_headline", plain.samples_per_s.median());
  report.raw("traced_headline", traced.samples_per_s.median());
  report.raw("headline_higher_is_better", 1.0);

  report_kernel_layers(report, counters, samples);
  report.layer("pipeline.rows_patched_per_batch",
               static_cast<double>(traced.rows_patched) / batches, "count");
  report.layer("pipeline.queue_bytes_per_sample",
               static_cast<double>(traced.encoded_bytes) / samples, "B");
  report.layer("codec.bytes_reduction",
               traced.encoded_bytes > 0
                   ? static_cast<double>(traced.raw_bytes) /
                         static_cast<double>(traced.encoded_bytes)
                   : 0.0,
               "x");
  report_idle_serving_layers(report);

  measure_data_layer(report, w.spec, w.batch_size, args.seed);
  measure_tt_layers(report, w.spec, w.tt_table, kRank, kDim, w.batch_size,
                    args.seed, nproc);
}

}  // namespace perfbench
