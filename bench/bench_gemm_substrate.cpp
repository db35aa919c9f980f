// Substrate sanity bench: GEMM and pointer-list batched GEMM throughput for
// the shapes the Eff-TT kernels actually launch. Not a paper figure, but
// the baseline every TT measurement stands on.
// `--quick` skips google-benchmark and runs a fixed shape set in a few
// seconds, writing BENCH_gemm_substrate.json for the perf-regression harness.
// It also records the per-call cost of a tiny gemm (ns/call) at 1 thread and
// at all cores, at top level and from inside a parallel region, and the DLRM
// backward shapes (weight and input gradient) and the Eff-TT forward's
// batched prefix/expand launches at dims 16 and 32, at 1 thread and at all
// cores.
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

// Median-of-5 ns per call (with its MAD) of a tiny (4 x 16) * (16 x 32)
// gemm, the size of one TT-core product. `nested` makes the calls from
// inside a parallel region (every thread calls on its own C, as batched_gemm
// does), so the figure is thread time per call there. A kernel that enters
// the OpenMP runtime for work it then runs serially shows up here as
// hundreds of ns per call.
benchutil::MedianMad tiny_gemm_ns_per_call(bool nested) {
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
  const benchutil::MedianMad secs = benchutil::time_median_seconds(run, 5);
  return {secs.median / kCalls * 1e9, secs.mad / kCalls * 1e9};
}

// GFLOP/s at the median of 5 timed runs of `fn`, which must perform `flops`
// float operations, and the runs' MAD as a percentage of their median.
struct Gflops {
  double gflops = 0.0;
  double mad_pct = 0.0;
};

template <typename Fn>
Gflops quick_gflops(double flops, Fn&& fn) {
  fn();  // warm up caches and the page tables
  const benchutil::MedianMad secs = benchutil::time_median_seconds(fn, 5);
  return {flops / secs.median / 1e9, secs.mad_pct()};
}

}  // namespace

int run_quick() {
  benchutil::header("GEMM substrate (--quick)");
  benchutil::JsonBenchReport report("gemm_substrate");
  std::vector<std::vector<std::string>> table{
      {"kernel", "median of 5", "MAD"}};
  const auto record = [&](const std::string& name, const Gflops& gf,
                          int threads = 0) {
    std::vector<std::pair<std::string, double>> metrics{
        {"GFLOP/s", gf.gflops}, {"mad_pct", gf.mad_pct}};
    if (threads > 0) metrics.emplace_back("threads", threads);
    report.add(name, std::move(metrics));
    table.push_back({name, benchutil::fmt(gf.gflops) + " GFLOP/s",
                     benchutil::fmt(gf.mad_pct) + "%"});
  };
  Prng rng(1);

  {
    // Blocked NN path, cache-resident square shape.
    const index_t n = 256;
    Matrix a(n, n), b(n, n), c(n, n);
    a.fill_normal(rng);
    b.fill_normal(rng);
    const Gflops gf = quick_gflops(2.0 * n * n * n, [&] {
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
    const Gflops gf = quick_gflops(2.0 * m * 256 * 64, [&] {
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
    const Gflops gf = quick_gflops(2.0 * n1 * n2r2 * r1 * products,
                                   [&] { batched_gemm(shape, pa, pb, pc); });
    record("batched_gemm_ttprefix_1024", gf);
  }
  {
    // The Eff-TT forward launches of a 3-core balanced table at rank 16, at
    // 1 thread and at all cores: prefix (n1 x R) * (R x n2 R) and expand
    // (n1 n2 x R) * (R x n3), with column factors 2x2x4 (dim 16) and 4x2x4
    // (dim 32). 2048 products, each with its own operands.
    struct Launch {
      std::string name;
      index_t m, n, k;
    };
    constexpr index_t kR = 16, kProducts = 2048;
    const Launch launches[] = {{"prefix_d16_2x32x16", 2, 2 * kR, kR},
                               {"expand_d16_4x4x16", 4, 4, kR},
                               {"prefix_d32_4x32x16", 4, 2 * kR, kR},
                               {"expand_d32_8x4x16", 8, 4, kR}};
    const int all = benchutil::compute_threads();
    for (const Launch& l : launches) {
      Matrix a(kProducts * l.m, l.k), b(kProducts * l.k, l.n),
          c(kProducts * l.m, l.n);
      a.fill_normal(rng);
      b.fill_normal(rng);
      std::vector<const float*> pa, pb;
      std::vector<float*> pc;
      for (index_t i = 0; i < kProducts; ++i) {
        pa.push_back(a.row(i * l.m));
        pb.push_back(b.row(i * l.k));
        pc.push_back(c.row(i * l.m));
      }
      const BatchedGemmShape shape{l.m,  l.n,  l.k,        l.k,       l.n,
                                   l.n,  1.0f, 0.0f, Trans::kNo, Trans::kNo};
      for (const int threads : {1, all}) {
        benchutil::set_threads(threads);
        const Gflops gf =
            quick_gflops(2.0 * l.m * l.n * l.k * kProducts,
                         [&] { batched_gemm(shape, pa, pb, pc); });
        record("batched_gemm_" + l.name + (threads == 1 ? "_t1" : "_tall"),
               gf, threads);
      }
    }
    benchutil::set_threads(all);
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
    const Gflops gf_n = quick_gflops(2.0 * m * n, [&] {
      gemv(Trans::kNo, m, n, 1.0f, a.data(), n, x.data(), 0.0f, y.data());
    });
    const Gflops gf_t = quick_gflops(2.0 * m * n, [&] {
      gemv(Trans::kYes, m, n, 1.0f, a.data(), n, xt.data(), 0.0f, yt.data());
    });
    record("gemv_n_2048", gf_n);
    record("gemv_t_2048", gf_t);
  }
  {
    // The DLRM backward shapes at batch 4096, at 1 thread and at all cores:
    // the weight gradient dW = x^T * grad (TN, one 64-row block, so threads
    // split k), the input gradient dX = grad * W^T (NT with m = batch, the
    // packed path), and the top MLP's last-layer weight gradient, a column
    // (TN 32 x 1, the n == 1 path).
    const index_t batch = 4096, fan_in = 64, fan_out = 32;
    Matrix x(batch, fan_in), g(batch, fan_out), w(fan_in, fan_out);
    Matrix dw(fan_in, fan_out), dx(batch, fan_in);
    Matrix g_col(batch, 1), dw_col(fan_out, 1);
    x.fill_normal(rng);
    g.fill_normal(rng);
    w.fill_normal(rng);
    g_col.fill_normal(rng);
    const double flops = 2.0 * batch * fan_in * fan_out;
    const int all = benchutil::compute_threads();
    for (const int threads : {1, all}) {
      benchutil::set_threads(threads);
      const std::string suffix = threads == 1 ? "_t1" : "_tall";
      const Gflops gf_dw = quick_gflops(flops, [&] {
        gemm(Trans::kYes, Trans::kNo, fan_in, fan_out, batch, 1.0f, x.data(),
             fan_in, g.data(), fan_out, 0.0f, dw.data(), fan_out);
      });
      const Gflops gf_dx = quick_gflops(flops, [&] {
        gemm(Trans::kNo, Trans::kYes, batch, fan_in, fan_out, 1.0f, g.data(),
             fan_out, w.data(), fan_out, 0.0f, dx.data(), fan_in);
      });
      // g (batch x 32) stands in for the last layer's input activations.
      const Gflops gf_col = quick_gflops(2.0 * batch * fan_out, [&] {
        gemm(Trans::kYes, Trans::kNo, fan_out, 1, batch, 1.0f, g.data(),
             fan_out, g_col.data(), 1, 0.0f, dw_col.data(), 1);
      });
      record("gemm_tn_dw_64x32_k4096" + suffix, gf_dw, threads);
      record("gemm_nt_dx_4096x64_k32" + suffix, gf_dx, threads);
      record("gemm_tn_dw_32x1_k4096" + suffix, gf_col, threads);
    }
    benchutil::set_threads(all);
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
        const benchutil::MedianMad ns = tiny_gemm_ns_per_call(nested);
        report.add(name, {{"ns/call", ns.median},
                          {"mad_ns", ns.mad},
                          {"threads", threads}});
        table.push_back({name, benchutil::fmt(ns.median) + " ns/call",
                         benchutil::fmt(ns.mad) + " ns"});
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
