// Low-overhead span tracing with per-thread ring buffers.
//
// TRACE_SPAN("subsys.stage") opens an RAII span: the constructor reads the
// runtime enable flag and a trace-clock timestamp, the destructor pushes
// one fixed-size event into the calling thread's private ring buffer — no
// locks, no allocation, no shared cache line on the hot path (the enable
// flag is read-mostly). A full ring overwrites its oldest event and counts
// the drop, so tracing a long run keeps the most recent window instead of
// growing without bound.
//
// Two switches:
//  * compile time — the ELREC_TRACING cmake option (default ON) defines
//    ELREC_TRACING_ENABLED; when OFF, TRACE_SPAN expands to a no-op
//    statement and zero tracing code is emitted;
//  * runtime — set_trace_enabled(false) (or env ELREC_TRACING=0/off before
//    first use) turns recording off; spans then cost one relaxed load.
//
// Invariance contract: spans never touch model or optimizer state, so a
// traced training run is bitwise identical to an untraced one
// (tests/test_obs_invariance.cpp holds this at 1 and 8 threads).
//
// Trace clock: on x86-64 a span reads the raw time-stamp counter (`rdtsc`,
// about half the cost of a steady_clock read), and the export converts ticks
// to ns with the rate measured between a (ticks, steady_clock) pair taken at
// startup and another taken at export. Other architectures record
// steady_clock nanoseconds directly.
//
// Export: export_chrome_trace_json() merges every thread's retained events
// into chrome://tracing "traceEvents" JSON (trace_export.cpp); load it via
// chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace elrec::obs {

/// One completed span. `name` must be a string with static storage duration
/// (TRACE_SPAN passes literals); times are trace-clock ticks
/// (detail::trace_now_ticks), converted to ns only at export.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ticks = 0;
  std::uint64_t dur_ticks = 0;
};

/// Fixed-capacity ring of TraceEvents owned by one thread. push() is
/// single-producer (the owning thread); size()/dropped()/for_each() are for
/// the merger and must only run while the producer is quiescent.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), ring_(capacity) {}

  void push(const char* name, std::uint64_t start_ticks,
            std::uint64_t dur_ticks) {
    const std::uint64_t n = pushes_.load(std::memory_order_relaxed);
    TraceEvent& slot = ring_[static_cast<std::size_t>(n % ring_.size())];
    slot.name = name;
    slot.start_ticks = start_ticks;
    slot.dur_ticks = dur_ticks;
    pushes_.store(n + 1, std::memory_order_relaxed);
  }

  std::uint32_t tid() const { return tid_; }
  std::size_t capacity() const { return ring_.size(); }

  /// Events currently retained (min(total pushes, capacity)).
  std::size_t size() const {
    const std::uint64_t n = pushes_.load(std::memory_order_relaxed);
    return n < ring_.size() ? static_cast<std::size_t>(n) : ring_.size();
  }

  /// Events overwritten after the ring wrapped.
  std::uint64_t dropped() const {
    const std::uint64_t n = pushes_.load(std::memory_order_relaxed);
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  /// Visits retained events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t n = pushes_.load(std::memory_order_relaxed);
    const std::uint64_t first = n > ring_.size() ? n - ring_.size() : 0;
    for (std::uint64_t i = first; i < n; ++i) {
      fn(ring_[static_cast<std::size_t>(i % ring_.size())]);
    }
  }

  void clear() { pushes_.store(0, std::memory_order_relaxed); }

 private:
  std::uint32_t tid_;
  std::vector<TraceEvent> ring_;
  std::atomic<std::uint64_t> pushes_{0};
};

/// Runtime switch. Reads are one relaxed atomic load. The initial value
/// honors the ELREC_TRACING environment variable ("0"/"off"/"false" →
/// disabled; anything else, or unset → enabled).
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Ring capacity (events per thread) for buffers created AFTER the call;
/// existing threads keep their rings. Default 8192.
void set_trace_capacity(std::size_t events);

/// Discards every thread's retained events and drop counts. Callers must
/// ensure no thread is mid-push (join workers first).
void clear_trace();

struct TraceStats {
  std::size_t threads = 0;
  std::size_t events_retained = 0;
  std::uint64_t events_dropped = 0;
};
TraceStats trace_stats();

namespace detail {
extern std::atomic<bool> g_trace_enabled;

/// The trace clock: time-stamp counter ticks on x86-64, steady-clock ns
/// elsewhere.
inline std::uint64_t trace_now_ticks() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Nanoseconds per trace-clock tick, measured from startup to this call
/// (exactly 1 where the trace clock is steady_clock).
double trace_ns_per_tick();

void record_span(const char* name, std::uint64_t start_ticks,
                 std::uint64_t dur_ticks);
/// Snapshot of every registered thread buffer (stable pointers; buffers are
/// never destroyed before process exit). For the exporter and tests.
std::vector<const ThreadTraceBuffer*> all_buffers();
}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// RAII span: times its scope and records one TraceEvent on destruction.
/// Prefer the TRACE_SPAN macro, which compiles out with the cmake option.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(trace_enabled() ? name : nullptr),
        start_ticks_(name_ != nullptr ? detail::trace_now_ticks() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::record_span(name_, start_ticks_,
                          detail::trace_now_ticks() - start_ticks_);
    }
  }

 private:
  const char* name_;
  std::uint64_t start_ticks_;
};

// ---- chrome://tracing export (trace_export.cpp) -------------------------

/// Merges every thread's retained events (sorted by start time) into a
/// chrome://tracing JSON document: {"traceEvents": [...], ...}. Call only
/// while producer threads are quiescent.
std::string export_chrome_trace_json();

/// export_chrome_trace_json() to a file; returns false if it can't write.
bool write_chrome_trace(const std::string& path);

/// Structural + schema validation of a chrome-trace JSON document: full
/// JSON syntax check, then "traceEvents" must be an array of objects each
/// carrying name/ph (strings), ts/pid/tid (numbers) and, for "X" events,
/// dur. Returns "" when valid, else a description of the first problem.
std::string validate_chrome_trace(const std::string& json);

}  // namespace elrec::obs

// Span instrumentation macro. When the ELREC_TRACING cmake option is OFF no
// code is emitted — the expansion is a bare no-op statement.
#if defined(ELREC_TRACING_ENABLED)
#define ELREC_OBS_CONCAT2(a, b) a##b
#define ELREC_OBS_CONCAT(a, b) ELREC_OBS_CONCAT2(a, b)
#define TRACE_SPAN(name) \
  ::elrec::obs::TraceSpan ELREC_OBS_CONCAT(elrec_trace_span_, __LINE__)(name)
#else
#define TRACE_SPAN(name) static_cast<void>(0)
#endif
