#include "obs/trace.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_annotations.hpp"

namespace elrec::obs {

namespace {

bool env_trace_enabled() {
  const char* v = std::getenv("ELREC_TRACING");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "OFF") == 0 || std::strcmp(v, "false") == 0);
}

// Owns every thread's ring so retained events survive thread exit (the
// exporter runs after workers are joined). Buffers are handed out once per
// thread and cached in a thread_local raw pointer.
struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> buffers ELREC_GUARDED_BY(mu);
  std::size_t capacity = 8192;

  static TraceRegistry& get() {
    static TraceRegistry* registry = new TraceRegistry();  // never destroyed:
    // worker threads may outlive static destruction order otherwise.
    return *registry;
  }

  ThreadTraceBuffer* register_thread() {
    std::lock_guard lock(mu);
    buffers.push_back(std::make_unique<ThreadTraceBuffer>(
        static_cast<std::uint32_t>(buffers.size()), capacity));
    return buffers.back().get();
  }
};

thread_local ThreadTraceBuffer* t_buffer = nullptr;

#if defined(__x86_64__)
// A trace-clock reading and the steady_clock time it was taken at. The tick
// rate is the ratio of two such pairs' differences.
struct ClockPair {
  std::uint64_t ticks = 0;
  std::int64_t ns = 0;
};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Brackets the tick read between two steady_clock reads and keeps the
// tightest of a few tries, so a preemption mid-read cannot skew the pair.
ClockPair read_clock_pair() {
  ClockPair best;
  std::int64_t best_width = INT64_MAX;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::int64_t before = steady_ns();
    const std::uint64_t ticks = detail::trace_now_ticks();
    const std::int64_t after = steady_ns();
    if (after - before < best_width) {
      best_width = after - before;
      best = {ticks, before + (after - before) / 2};
    }
  }
  return best;
}

const ClockPair& startup_clock_pair() {
  static const ClockPair pair = read_clock_pair();
  return pair;
}

// Taken during static initialisation, so an export normally measures the
// tick rate over the whole run; one within kMinCalibrationNs of it waits.
[[maybe_unused]] const ClockPair& g_startup_pair = startup_clock_pair();
constexpr std::int64_t kMinCalibrationNs = 1000000;
#endif

}  // namespace

namespace detail {

std::atomic<bool> g_trace_enabled{env_trace_enabled()};

double trace_ns_per_tick() {
#if defined(__x86_64__)
  const ClockPair& start = startup_clock_pair();
  ClockPair now = read_clock_pair();
  if (now.ns - start.ns < kMinCalibrationNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kMinCalibrationNs));
    now = read_clock_pair();
  }
  return static_cast<double>(now.ns - start.ns) /
         static_cast<double>(now.ticks - start.ticks);
#else
  return 1.0;
#endif
}

void record_span(const char* name, std::uint64_t start_ticks,
                 std::uint64_t dur_ticks) {
  ThreadTraceBuffer* buf = t_buffer;
  if (buf == nullptr) {
    buf = TraceRegistry::get().register_thread();
    t_buffer = buf;
  }
  buf->push(name, start_ticks, dur_ticks);
}

std::vector<const ThreadTraceBuffer*> all_buffers() {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  std::vector<const ThreadTraceBuffer*> out;
  out.reserve(reg.buffers.size());
  for (const auto& b : reg.buffers) out.push_back(b.get());
  return out;
}

}  // namespace detail

void set_trace_enabled(bool enabled) {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t events) {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  reg.capacity = events > 0 ? events : 1;
}

void clear_trace() {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  for (auto& b : reg.buffers) b->clear();
}

TraceStats trace_stats() {
  TraceStats s;
  for (const ThreadTraceBuffer* b : detail::all_buffers()) {
    ++s.threads;
    s.events_retained += b->size();
    s.events_dropped += b->dropped();
  }
  return s;
}

}  // namespace elrec::obs
