// Shared pieces of the benchmark binary: command-line arguments, exact
// percentiles over raw samples, the result report (human table + one JSON
// document for perfbench/run.py), and process/run metadata.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Exact order statistics over raw samples (nearest-rank, no bucketing).
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// The highest of {99, 90, 75, 50} that has at least `beyond`
  /// samples above it; {0, max} when there are too few samples for p50.
  struct Tail {
    double pct = 0.0;
    double value = 0.0;
  };
  Tail tail(std::size_t beyond = 10) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
  void sort() const;
};

/// Collects every metric, check and metadata item of one run.
class Report {
 public:
  /// End-to-end metric. `detail` is printed next to it (percentile used,
  /// sample count, the workload-level name it stands for).
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  /// Per-layer metric.
  void layer(const std::string& name, double value, const std::string& unit);
  /// Raw number handed to run.py (span-derived layer metrics need it).
  void raw(const std::string& name, double value);
  void meta(const std::string& key, const std::string& value);
  /// Correctness check; any failure makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Flag that does not fail the run but must not go unnoticed.
  void flag(const std::string& what);
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;
  /// Prints the human-readable summary, then the JSON document as the last
  /// line of stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, double>> raw_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Check> checks_;
  std::vector<std::string> flags_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// CPU brand string from CPUID (no file reads); "unknown" elsewhere.
std::string cpu_model();
/// Build type, flags and compiler the benchmark and libraries were built with.
const char* build_flags();
/// CPUs this process may run on (what `nproc` prints).
int hardware_threads();

/// Entropy (nats) of a Bernoulli label with positive rate `p`: the loss of
/// always predicting the base rate. Normalized entropy = BCE / this.
double label_entropy(double p);

/// Fixed-point text with `decimals` digits after the point.
std::string fmt(double v, int decimals);

/// Bit pattern of a float as hex, for bitwise comparisons in reports.
std::string float_bits(float v);

}  // namespace perfbench
