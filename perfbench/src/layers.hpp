// Per-layer measurements the benchmark makes by calling a module's public
// functions directly and timing them itself (traced runs only).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "data/dataset_spec.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// data.next_batch_ms and data.unique_ratio: SyntheticDataset::next_batch
/// on the workload spec at the workload's batch size.
void measure_data_layer(Report& report, const elrec::DatasetSpec& spec,
                        elrec::index_t batch_size, std::uint64_t seed);

/// Eff-TT (core) against TT-Rec (tt) on the workload's own batches of table
/// `table`: forward and backward times per batch for both, their ratios,
/// and the Eff-TT forward at 1 thread over `threads` threads.
void measure_tt_layers(Report& report, const elrec::DatasetSpec& spec,
                       elrec::index_t table, elrec::index_t rank,
                       elrec::index_t dim, elrec::index_t batch_size,
                       std::uint64_t seed, int threads);

/// Registry counters read at construction; operator() gives the increase.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names) {
    auto& reg = elrec::obs::MetricsRegistry::global();
    for (auto& n : names) start_.emplace_back(n, reg.counter(n).value());
  }
  double operator()(const std::string& name) const {
    for (const auto& [n, v] : start_) {
      if (n == name) {
        return static_cast<double>(
            elrec::obs::MetricsRegistry::global().counter(n).value() - v);
      }
    }
    return 0.0;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> start_;
};

/// Registry counters behind the tensor/core layer metrics.
inline const std::vector<std::string>& kernel_counters() {
  static const std::vector<std::string> names = {
      "tensor.batched_gemm.products", "tensor.batched_gemm.skipped",
      "tensor.batched_gemm.flops",    "efftt.reuse.hits",
      "efftt.reuse.misses"};
  return names;
}

/// Flags a traced window whose span rings overflowed: its per-batch span
/// figures would undercount.
void flag_dropped_spans(Report& report);

/// tensor.bgemm_* and core.reuse_hit_ratio from counter increases over a
/// window that processed `samples` samples.
void report_kernel_layers(Report& report, const CounterDelta& counters,
                          double samples);

}  // namespace perfbench
