// The four workloads and the helpers they share.
#pragma once

#include "common.hpp"

namespace perfbench {

/// train_tt (parameter_server = false) and train_ps (true).
void run_train(const Args& args, bool parameter_server, Report& report);

/// serve_local (sharded = false) and serve_sharded (true).
void run_serve(const Args& args, bool sharded, Report& report);

/// Per-layer metrics of the layers a workload leaves idle, reported as 0 so
/// every traced run carries the full metric set. Each is defined beside the
/// code that reports the real values.
void report_idle_serving_layers(Report& report);
void report_idle_training_layers(Report& report);

}  // namespace perfbench
