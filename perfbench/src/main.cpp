// The benchmark binary: runs one workload and prints its metrics.
//
//   perfbench --workload train_tt|train_ps|serve_local|serve_sharded
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 is the
// separate traced run: per-layer metrics from the benchmark's own timings of
// public calls and the metrics registry, plus a chrome trace of the spans
// compiled into the library, written to DIR for perfbench/run.py to reduce.
// The last stdout line is one JSON document; exit status 1 when a
// correctness check failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_tt|train_ps|serve_local|serve_sharded --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  report.meta("workload", args.workload);
  report.meta("seed", std::to_string(args.seed));
  report.meta("seconds", std::to_string(args.seconds));
  report.meta("trace", args.trace ? "1" : "0");
  report.meta("cpu", cpu_model());
  report.meta("nproc", std::to_string(hardware_threads()));
  report.meta("build", build_flags());

  try {
    if (args.workload == "train_tt" || args.workload == "train_ps") {
      run_train(args, args.workload == "train_ps", report);
    } else if (args.workload == "serve_local" ||
               args.workload == "serve_sharded") {
      run_serve(args, args.workload == "serve_sharded", report);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
