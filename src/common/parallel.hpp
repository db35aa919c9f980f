// Size-guarded OpenMP loops.
//
// `#pragma omp parallel for if (cond)` is not free when `cond` is false:
// libgomp still enters the runtime and builds a team of one. A standalone
// microbenchmark (GCC 12, 3 threads) measured ~390 ns per call at top level
// and ~2 us of thread time per call inside another parallel region, against
// 17 ns for a plain branch. Kernels called once per TT-core product pay that
// per product, so the decision is made here with a plain branch and the
// runtime is entered only when a team of more than one thread will run.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace elrec {

/// True when a loop should fork an OpenMP team: the caller's size threshold
/// holds, more than one thread is available, and no parallel region is
/// active on this thread (a nested region would get one thread anyway).
inline bool fork_omp_team(bool big_enough) {
#ifdef _OPENMP
  return big_enough && !omp_in_parallel() && omp_get_max_threads() > 1;
#else
  (void)big_enough;
  return false;
#endif
}

/// Runs body(i) for i in [begin, end): statically scheduled across an OpenMP
/// team when fork_omp_team(big_enough), else in order on the calling thread.
/// Every iteration does the same arithmetic either way, so a body whose
/// iterations write disjoint outputs gives bitwise-identical results.
template <typename Index, typename Body>
void parallel_for(Index begin, Index end, bool big_enough, Body&& body) {
  if (fork_omp_team(big_enough)) {
#pragma omp parallel for schedule(static)
    for (Index i = begin; i < end; ++i) body(i);
  } else {
    for (Index i = begin; i < end; ++i) body(i);
  }
}

}  // namespace elrec
