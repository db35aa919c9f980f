// Per-request latency tracking for the serving engine.
//
// Each served request records its queue wait (submit → micro-batch pickup)
// and compute time (its micro-batch's forward pass) separately, so tail
// latency can be attributed to scheduling vs. model cost.
//
// Percentiles come from obs::Histogram (log-bucketed, lock-free): bucket
// estimates within ~6% relative error, well within what latency attribution
// needs. count/mean/max are exact.
//
// The recorder owns standalone histograms rather than registry entries so
// each RequestScheduler instance keeps its own counts; the scheduler mirrors
// samples into the global registry ("serve.queue_us" / "serve.compute_us")
// for the BENCH_*.json metrics block.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"

namespace elrec {

/// Unit note: serving summaries are in microseconds (count/mean/max/p50/...).
using LatencySummary = obs::HistogramSummary;

/// Thread-safe recorder; record() is called by every scheduler worker, the
/// summaries by the driver after (or during) the run.
class LatencyRecorder {
 public:
  void record(double queue_us, double compute_us) {
    queue_us_.record(queue_us);
    compute_us_.record(compute_us);
    total_us_.record(queue_us + compute_us);
  }

  std::size_t count() const { return total_us_.count(); }

  LatencySummary queue_summary() const { return queue_us_.summary(); }
  LatencySummary compute_summary() const { return compute_us_.summary(); }
  LatencySummary total_summary() const { return total_us_.summary(); }

 private:
  obs::Histogram queue_us_;
  obs::Histogram compute_us_;
  obs::Histogram total_us_;
};

}  // namespace elrec
