// Shared formatting helpers for the benchmark executables, plus the
// machine-readable BENCH_*.json emitter used by the --quick perf harness so
// the perf trajectory can be tracked across PRs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"

namespace elrec::benchutil {

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Prints a simple fixed-width table: first row is the header.
inline void print_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return;
  std::vector<std::size_t> width(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("  ");
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), rows[r][c].c_str());
    }
    std::printf("\n");
    if (r == 0) {
      std::printf("  ");
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        std::printf("%s  ", std::string(width[c], '-').c_str());
      }
      std::printf("\n");
    }
  }
}

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string fmt_bytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// True when `flag` (e.g. "--quick") appears in argv.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Median and median absolute deviation (MAD) of a set of timed runs.
struct MedianMad {
  double median = 0.0;
  double mad = 0.0;

  /// MAD as a percentage of the median: the spread of a rate derived from
  /// these times (GFLOP/s, batches/s), to first order.
  double mad_pct() const { return median > 0.0 ? 100.0 * mad / median : 0.0; }
};

/// Median-of-`reps` wall time of fn() in seconds, with its MAD. The median
/// reports a typical rep and MAD says how far reps strayed from it; one
/// outlier rep (a descheduled run) moves neither. `untimed`, when given,
/// runs before every rep outside the timed region (e.g. the forward pass a
/// timed backward consumes).
template <typename Fn>
MedianMad time_median_seconds(Fn&& fn, int reps = 5,
                              const std::function<void()>& untimed = {}) {
  std::vector<double> secs(static_cast<std::size_t>(reps));
  for (double& s : secs) {
    if (untimed) untimed();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  MedianMad out;
  out.median = median(secs);
  for (double& s : secs) s = std::abs(s - out.median);
  out.mad = median(secs);
  return out;
}

/// Number of compute threads the benchmark will actually use (OpenMP's cap
/// when built with it, hardware concurrency otherwise).
inline int compute_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return static_cast<int>(std::thread::hardware_concurrency());
#endif
}

/// Sets the OpenMP team size for the following parallel regions (no-op
/// without OpenMP).
inline void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Compile-time build-flag string baked in by bench/CMakeLists.txt so two
/// BENCH_*.json files are only compared when their builds match.
inline const char* build_flags() {
#ifdef ELREC_BUILD_FLAGS
  return ELREC_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

/// Collects named metric rows and writes them as BENCH_<bench>.json:
///   {"bench": "...", "schema": "elrec-bench-v1",
///    "meta": {"threads": "8", "build": "..."},
///    "results": [{"name": "...", "metrics": {"GFLOP/s": 12.3, ...}}, ...],
///    "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}
/// The trailing "metrics" block is a MetricsRegistry snapshot taken at
/// write() time — the process-wide observability counters (batched-GEMM
/// launches, reuse hits, cache traffic, latency histograms) accumulated over
/// the whole run.
/// Metric keys are free-form; the conventions used across the repo are
/// "GFLOP/s" (kernel throughput), "ns/lookup" (per-index forward latency)
/// and "batches/s" (training-step throughput). Every report carries the
/// thread count and build flags so numbers are comparable across runs.
class JsonBenchReport {
 public:
  explicit JsonBenchReport(std::string bench) : bench_(std::move(bench)) {
    set_meta("threads", std::to_string(compute_threads()));
    set_meta("build", build_flags());
  }

  void add(const std::string& name,
           std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back({name, std::move(metrics)});
  }

  /// Adds/overwrites one environment key recorded in the "meta" object.
  void set_meta(const std::string& key, const std::string& value) {
    for (auto& kv : meta_) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    meta_.emplace_back(key, value);
  }

  std::string path() const { return "BENCH_" + bench_ + ".json"; }

  /// Writes the JSON file and prints its location; returns false (with a
  /// note) if the file cannot be opened.
  bool write() const {
    std::ofstream out(path());
    if (!out) {
      note("could not open " + path() + " for writing");
      return false;
    }
    out << "{\n  \"bench\": \"" << escaped(bench_)
        << "\",\n  \"schema\": \"elrec-bench-v1\",\n  \"meta\": {";
    for (std::size_t m = 0; m < meta_.size(); ++m) {
      out << "\"" << escaped(meta_[m].first) << "\": \""
          << escaped(meta_[m].second) << "\"";
      if (m + 1 < meta_.size()) out << ", ";
    }
    out << "},\n  \"results\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "    {\"name\": \"" << escaped(rows_[r].name)
          << "\", \"metrics\": {";
      for (std::size_t m = 0; m < rows_[r].metrics.size(); ++m) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", rows_[r].metrics[m].second);
        out << "\"" << escaped(rows_[r].metrics[m].first) << "\": " << buf;
        if (m + 1 < rows_[r].metrics.size()) out << ", ";
      }
      out << "}}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"metrics\": "
        << obs::MetricsRegistry::global().snapshot().to_json() << "\n}\n";
    note("wrote " + path());
    return out.good();
  }

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Row> rows_;
};

}  // namespace elrec::benchutil
