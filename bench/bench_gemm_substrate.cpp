// Substrate sanity bench: GEMM and pointer-list batched GEMM throughput for
// the shapes the Eff-TT kernels actually launch. Not a paper figure, but
// the baseline every TT measurement stands on.
// `--quick` skips google-benchmark and runs a fixed shape set in a few
// seconds, writing BENCH_gemm_substrate.json for the perf-regression harness.
// It also records the per-call cost of a tiny gemm (ns/call) at 1 thread and
// at all cores, at top level and from inside a parallel region.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "tensor/batched_gemm.hpp"
#include "tensor/gemm.hpp"

namespace elrec {
namespace {

void BM_Gemm_Square(benchmark::State& state) {
  const index_t n = state.range(0);
  Prng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  a.fill_normal(rng);
  b.fill_normal(rng);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(), n,
         0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm_Square)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.05);

// The Eff-TT stage-1 shape: (n1 x R1) * (R1 x n2 R2), thousands of products.
void BM_BatchedGemm_TTPrefix(benchmark::State& state) {
  const index_t products = state.range(0);
  const index_t n1 = 4, r1 = 16, n2r2 = 4 * 16;
  Prng rng(2);
  Matrix a(products * n1, r1), b(products * r1, n2r2), c(products * n1, n2r2);
  a.fill_normal(rng);
  b.fill_normal(rng);
  std::vector<const float*> pa, pb;
  std::vector<float*> pc;
  for (index_t i = 0; i < products; ++i) {
    pa.push_back(a.row(i * n1));
    pb.push_back(b.row(i * r1));
    pc.push_back(c.row(i * n1));
  }
  BatchedGemmShape shape{n1, n2r2, r1, r1, n2r2, n2r2,
                         1.0f, 0.0f, Trans::kNo, Trans::kNo};
  for (auto _ : state) {
    batched_gemm(shape, pa, pb, pc);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n1 * n2r2 * r1 * products *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedGemm_TTPrefix)->Arg(256)->Arg(1024)->Arg(4096)->MinTime(0.05);

void BM_Gemm_TallSkinny(benchmark::State& state) {
  // MLP-like: (B x 64) * (64 x 256).
  const index_t b = state.range(0);
  Prng rng(3);
  Matrix x(b, 64), w(64, 256), y(b, 256);
  x.fill_normal(rng);
  w.fill_normal(rng);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, b, 256, 64, 1.0f, x.data(), 64, w.data(),
         256, 0.0f, y.data(), 256);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * b * 256 * 64 * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm_TallSkinny)->Arg(512)->Arg(4096)->MinTime(0.05);

// Best-of-5 ns per call of a tiny (4 x 16) * (16 x 32) gemm, the size of one
// TT-core product. `nested` makes the calls from inside a parallel region
// (every thread calls on its own C, as batched_gemm does), so the figure is
// thread time per call there. A kernel that enters the OpenMP runtime for
// work it then runs serially shows up here as hundreds of ns per call.
double tiny_gemm_ns_per_call(bool nested) {
  constexpr index_t m = 4, k = 16, n = 32;
  constexpr int kCalls = 20000;
  Prng rng(4);
  Matrix a(m, k), b(k, n);
  a.fill_normal(rng);
  b.fill_normal(rng);
  std::vector<Matrix> c(static_cast<std::size_t>(benchutil::compute_threads()),
                        Matrix(m, n));
  const auto calls = [&](Matrix& out) {
    for (int i = 0; i < kCalls; ++i) {
      gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, out.data(), n);
    }
  };
  const auto run = [&] {
    if (!nested) {
      calls(c[0]);
      return;
    }
#pragma omp parallel
    {
#ifdef _OPENMP
      calls(c[static_cast<std::size_t>(omp_get_thread_num())]);
#else
      calls(c[0]);
#endif
    }
  };
  run();
  return benchutil::time_best_seconds(run, 5) / kCalls * 1e9;
}

// Best-of-5 GFLOP/s of `fn`, which must perform `flops` float operations.
template <typename Fn>
double quick_gflops(double flops, Fn&& fn) {
  fn();  // warm up caches and the page tables
  const double secs = benchutil::time_best_seconds(fn, 5);
  return flops / secs / 1e9;
}

}  // namespace

int run_quick() {
  benchutil::header("GEMM substrate (--quick)");
  benchutil::JsonBenchReport report("gemm_substrate");
  std::vector<std::vector<std::string>> table{{"kernel", "GFLOP/s"}};
  const auto record = [&](const std::string& name, double gf) {
    report.add(name, {{"GFLOP/s", gf}});
    table.push_back({name, benchutil::fmt(gf)});
  };
  Prng rng(1);

  {
    // Blocked NN path, cache-resident square shape.
    const index_t n = 256;
    Matrix a(n, n), b(n, n), c(n, n);
    a.fill_normal(rng);
    b.fill_normal(rng);
    const double gf = quick_gflops(2.0 * n * n * n, [&] {
      gemm(Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(), n,
           0.0f, c.data(), n);
    });
    record("gemm_nn_256", gf);
  }
  {
    // MLP-like tall-skinny NN shape.
    const index_t m = 2048;
    Matrix x(m, 64), w(64, 256), y(m, 256);
    x.fill_normal(rng);
    w.fill_normal(rng);
    const double gf = quick_gflops(2.0 * m * 256 * 64, [&] {
      gemm(Trans::kNo, Trans::kNo, m, 256, 64, 1.0f, x.data(), 64, w.data(),
           256, 0.0f, y.data(), 256);
    });
    record("gemm_nn_tallskinny_2048x256x64", gf);
  }
  {
    // The Eff-TT stage-1 pointer-list shape: (4 x 16) * (16 x 64) x 1024.
    const index_t products = 1024, n1 = 4, r1 = 16, n2r2 = 64;
    Matrix a(products * n1, r1), b(products * r1, n2r2), c(products * n1, n2r2);
    a.fill_normal(rng);
    b.fill_normal(rng);
    std::vector<const float*> pa, pb;
    std::vector<float*> pc;
    for (index_t i = 0; i < products; ++i) {
      pa.push_back(a.row(i * n1));
      pb.push_back(b.row(i * r1));
      pc.push_back(c.row(i * n1));
    }
    BatchedGemmShape shape{n1,   n2r2, r1,        r1,        n2r2, n2r2,
                           1.0f, 0.0f, Trans::kNo, Trans::kNo};
    const double gf = quick_gflops(2.0 * n1 * n2r2 * r1 * products,
                                   [&] { batched_gemm(shape, pa, pb, pc); });
    record("batched_gemm_ttprefix_1024", gf);
  }
  {
    // gemv, both orientations.
    const index_t m = 2048, n = 2048;
    Matrix a(m, n);
    a.fill_normal(rng);
    std::vector<float> x(static_cast<std::size_t>(n), 0.5f);
    std::vector<float> xt(static_cast<std::size_t>(m), 0.5f);
    std::vector<float> y(static_cast<std::size_t>(m));
    std::vector<float> yt(static_cast<std::size_t>(n));
    const double gf_n = quick_gflops(2.0 * m * n, [&] {
      gemv(Trans::kNo, m, n, 1.0f, a.data(), n, x.data(), 0.0f, y.data());
    });
    const double gf_t = quick_gflops(2.0 * m * n, [&] {
      gemv(Trans::kYes, m, n, 1.0f, a.data(), n, xt.data(), 0.0f, yt.data());
    });
    record("gemv_n_2048", gf_n);
    record("gemv_t_2048", gf_t);
  }
  {
    // Per-call overhead arm: at 1 thread and at all cores, top level and
    // nested. Rows are named t1/tall; "threads" records the count.
    const int all = benchutil::compute_threads();
    for (const int threads : {1, all}) {
      benchutil::set_threads(threads);
      for (const bool nested : {false, true}) {
        const std::string name = std::string("gemm_tiny_4x16x32_") +
                                 (nested ? "nested" : "top") +
                                 (threads == 1 ? "_t1" : "_tall");
        const double ns = tiny_gemm_ns_per_call(nested);
        report.add(name, {{"ns/call", ns}, {"threads", threads}});
        table.push_back({name, benchutil::fmt(ns) + " ns/call"});
      }
    }
    benchutil::set_threads(all);
  }

  benchutil::print_table(table);
  return report.write() ? 0 : 1;
}

}  // namespace elrec

int main(int argc, char** argv) {
  if (elrec::benchutil::has_flag(argc, argv, "--quick")) {
    return elrec::run_quick();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
