// Iteration-time cost models of every framework the paper compares
// (Figs. 11, 12, 13, 16). Each model decomposes one training iteration into
// named roofline components so benches can print the breakdown next to the
// bottom-line number.
#pragma once

#include <map>
#include <string>

#include "sim/device_model.hpp"
#include "sim/workload.hpp"

namespace elrec {

struct IterationCost {
  std::string framework;
  // Component name -> seconds. Components tagged "cpu:" / "gpu:" overlap
  // under pipelining; "serial:" components always add.
  std::map<std::string, double> components;

  double total_sequential() const;  // sum of all components
  /// Pipeline steady state: max(cpu stages, gpu stages) + serial stages.
  double total_pipelined() const;

  /// Throughput in samples/s given the workload batch size.
  double throughput(index_t batch_size, bool pipelined = false) const;
};

/// Facebook DLRM (PS baseline): embeddings live in host memory, CPU does
/// lookup + update, GPU trains the MLPs; strictly sequential per iteration.
IterationCost model_dlrm_ps(const DlrmWorkload& w, const DeviceSpec& dev,
                            const HostSpec& host, int num_gpus = 1);

/// FAE: hot embeddings cached in HBM; `hot_batch_fraction` of batches train
/// fully on-GPU, the rest fall back to the PS path.
IterationCost model_fae(const DlrmWorkload& w, const DeviceSpec& dev,
                        const HostSpec& host);

/// TT-Rec: TT tables on the GPU, but no intermediate-result reuse, per-
/// occurrence backward, unfused update.
IterationCost model_ttrec(const DlrmWorkload& w, const DeviceSpec& dev);

/// EL-Rec on a single GPU, everything device-resident (Fig. 11 config).
IterationCost model_elrec(const DlrmWorkload& w, const DeviceSpec& dev);

/// Bytes a ring all-reduce (2(W-1) steps of chunked reduce-scatter +
/// all-gather) moves per worker for a payload of n bytes: 2 * (W-1)/W * n.
double ring_bytes_per_worker(double payload_bytes, int num_workers);

/// EL-Rec / DLRM with `num_gpus` data-parallel workers (Fig. 12): TT tables
/// replicated, MLP + TT gradients all-reduced; DLRM shards tables
/// model-parallel instead (all-to-all).
IterationCost model_elrec_multi(const DlrmWorkload& w, const DeviceSpec& dev,
                                int num_gpus);
IterationCost model_dlrm_multi(const DlrmWorkload& w, const DeviceSpec& dev,
                               int num_gpus);

/// Fig. 16 configurations: largest table TT-on-device, the rest host-
/// resident behind the prefetch/gradient queues.
IterationCost model_elrec_hybrid(const DlrmWorkload& w, const DeviceSpec& dev,
                                 const HostSpec& host, bool pipelined);

/// Fig. 13 (single 40M x 128 table): HugeCTR row-sharded model parallel,
/// TorchRec column-sharded, EL-Rec TT data parallel.
IterationCost model_hugectr_large_table(const DlrmWorkload& w,
                                        const DeviceSpec& dev, int num_gpus);
IterationCost model_torchrec_large_table(const DlrmWorkload& w,
                                         const DeviceSpec& dev, int num_gpus);
IterationCost model_elrec_large_table(const DlrmWorkload& w,
                                      const DeviceSpec& dev, int num_gpus);

}  // namespace elrec
