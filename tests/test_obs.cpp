// Observability-layer tests: metric primitive semantics, registry naming and
// snapshot isolation, per-thread trace rings (wraparound + drop counting),
// chrome://tracing export well-formedness, cross-thread exactness under an
// 8x10k stress, and the TRACE_SPAN overhead budget. Registered with the
// "sanitize" ctest label so the TSan build exercises the concurrent paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elrec::obs {
namespace {

// ---- metric primitives --------------------------------------------------

TEST(Counter, AddIncValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.load(), 42u);  // atomic-style alias
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, CountMeanMaxAreExact) {
  Histogram h;
  EXPECT_EQ(h.summary().count, 0u);
  h.record(2.0);
  h.record(4.0);
  h.record(12.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 6.0);
  EXPECT_DOUBLE_EQ(s.max, 12.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, PercentilesTrackUniformSamples) {
  // Uniform 1..1000: bucketed estimates must land within the log-bucket
  // error envelope (~1/kSubBuckets relative), and never exceed the max.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GT(s.p50, 400.0);
  EXPECT_LT(s.p50, 620.0);
  EXPECT_GT(s.p95, 850.0);
  EXPECT_LE(s.p95, 1000.0);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_GE(s.max, s.p99);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Histogram, ExtremeSamplesStayFinite) {
  Histogram h;
  h.record(0.0);     // floor bucket
  h.record(-3.0);    // negative collapses into the floor bucket
  h.record(1e300);   // far above the top octave
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max, 1e300);
  EXPECT_LE(s.p50, s.max);
}

// ---- registry -----------------------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSameInstance) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.obs.same_name");
  Counter& b = reg.counter("test.obs.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& ha = reg.histogram("test.obs.same_hist");
  Histogram& hb = reg.histogram("test.obs.same_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.obs.kind_clash");
  EXPECT_THROW(reg.gauge("test.obs.kind_clash"), Error);
  EXPECT_THROW(reg.histogram("test.obs.kind_clash"), Error);
}

TEST(MetricsRegistry, SnapshotIsIsolatedFromLaterUpdates) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.obs.snapshot_iso");
  c.reset();
  c.add(5);
  const MetricsSnapshot snap = reg.snapshot();
  c.add(100);  // must not alter the snapshot already taken
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.obs.snapshot_iso") {
      found = true;
      EXPECT_EQ(value, 5u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, SnapshotJsonParsesAndCarriesEveryKind) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.obs.json_counter").add(7);
  reg.gauge("test.obs.json_gauge").set(-3);
  reg.histogram("test.obs.json_hist").record(1.5);
  const std::string json = reg.snapshot().to_json();

  JsonValue doc;
  const std::string err = parse_json(json, doc);
  ASSERT_EQ(err, "") << json;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->find("test.obs.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 7.0);
  const JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* g = gauges->find("test.obs.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number, -3.0);
  const JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->find("test.obs.json_hist");
  ASSERT_NE(h, nullptr);
  const JsonValue* count = h->find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_GE(count->number, 1.0);
}

// ---- trace ring ---------------------------------------------------------

TEST(ThreadTraceBuffer, WrapsOverwritingOldestAndCountsDrops) {
  ThreadTraceBuffer buf(7, /*capacity=*/4);
  static const char* kNames[6] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (std::uint64_t i = 0; i < 6; ++i) {
    buf.push(kNames[i], /*start_ticks=*/100 + i, /*dur_ticks=*/i);
  }
  EXPECT_EQ(buf.tid(), 7u);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.size(), 4u);     // ring holds the newest window
  EXPECT_EQ(buf.dropped(), 2u);  // e0, e1 overwritten

  std::vector<std::string> seen;
  buf.for_each([&](const TraceEvent& e) { seen.emplace_back(e.name); });
  EXPECT_EQ(seen, (std::vector<std::string>{"e2", "e3", "e4", "e5"}));

  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(Trace, DisabledRecordsNothing) {
  set_trace_enabled(true);
  { TRACE_SPAN("test.obs.warm"); }  // ensure this thread's ring exists
  const TraceStats before = trace_stats();

  set_trace_enabled(false);
  EXPECT_FALSE(trace_enabled());
  for (int i = 0; i < 100; ++i) {
    TRACE_SPAN("test.obs.disabled");
  }
  const TraceStats after = trace_stats();
  EXPECT_EQ(after.events_retained, before.events_retained);
  EXPECT_EQ(after.events_dropped, before.events_dropped);
  set_trace_enabled(true);
}

TEST(Trace, ChromeExportValidatesAndIsSorted) {
#ifndef ELREC_TRACING_ENABLED
  GTEST_SKIP() << "built with -DELREC_TRACING=OFF (TRACE_SPAN compiled out)";
#endif
  set_trace_enabled(true);
  {
    TRACE_SPAN("test.obs.outer");
    TRACE_SPAN("test.obs.inner");
  }
  const std::string json = export_chrome_trace_json();
  EXPECT_EQ(validate_chrome_trace(json), "") << json.substr(0, 400);

  JsonValue doc;
  ASSERT_EQ(parse_json(json, doc), "");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->array.size(), 2u);
  double prev_ts = -1.0;
  bool found_span = false;
  for (const JsonValue& e : events->array) {
    const double ts = e.find("ts")->number;
    EXPECT_GE(ts, prev_ts) << "export must be sorted by start time";
    prev_ts = ts;
    if (e.find("name")->str.rfind("test.obs.", 0) == 0) found_span = true;
  }
  EXPECT_TRUE(found_span);
  EXPECT_GE(events->array[0].find("ts")->number, 0.0);  // normalized to t0
}

// The export converts trace-clock ticks to ns; its ts/dur must agree with
// steady_clock brackets around the spans to within 1%. A preemption between
// a bracket read and its span widens only that bracket, so one of a few
// attempts agreeing is enough; a wrong tick rate fails every attempt.
TEST(Trace, ExportedTimesMatchSteadyClock) {
#ifndef ELREC_TRACING_ENABLED
  GTEST_SKIP() << "built with -DELREC_TRACING=OFF (TRACE_SPAN compiled out)";
#endif
  using Clock = std::chrono::steady_clock;
  const auto us_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  set_trace_enabled(true);
  { TRACE_SPAN("test.obs.warmup"); }  // ring allocation outside the brackets
  bool agreed = false;
  for (int attempt = 0; attempt < 5 && !agreed; ++attempt) {
    clear_trace();
    const Clock::time_point s0 = Clock::now();
    {
      TRACE_SPAN("test.obs.clock_a");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const Clock::time_point s1 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const Clock::time_point s2 = Clock::now();
    { TRACE_SPAN("test.obs.clock_b"); }

    JsonValue doc;
    ASSERT_EQ(parse_json(export_chrome_trace_json(), doc), "");
    const JsonValue* a = nullptr;
    const JsonValue* b = nullptr;
    for (const JsonValue& e : doc.find("traceEvents")->array) {
      if (e.find("name")->str == "test.obs.clock_a") a = &e;
      if (e.find("name")->str == "test.obs.clock_b") b = &e;
    }
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    const double dur = a->find("dur")->number;
    const double gap = b->find("ts")->number - a->find("ts")->number;
    const double want_dur = us_between(s0, s1);
    const double want_gap = us_between(s0, s2);
    std::printf("[ MEASURED ] dur %.1f us (steady %.1f), gap %.1f us "
                "(steady %.1f)\n",
                dur, want_dur, gap, want_gap);
    agreed = std::fabs(dur - want_dur) <= 0.01 * want_dur &&
             std::fabs(gap - want_gap) <= 0.01 * want_gap;
  }
  EXPECT_TRUE(agreed);
}

TEST(Trace, ValidatorRejectsMalformedDocuments) {
  EXPECT_NE(validate_chrome_trace("not json"), "");
  EXPECT_NE(validate_chrome_trace("{}"), "");
  EXPECT_NE(validate_chrome_trace("{\"traceEvents\": 3}"), "");
  EXPECT_NE(validate_chrome_trace(
                "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 0, \"pid\": 0, "
                "\"tid\": 0, \"dur\": 1}]}"),  // missing name
            "");
  EXPECT_NE(validate_chrome_trace(
                "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": "
                "0, \"pid\": 0, \"tid\": 0, \"dur\": -1}]}"),  // negative dur
            "");
  EXPECT_EQ(validate_chrome_trace(
                "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": "
                "0, \"pid\": 0, \"tid\": 0, \"dur\": 1}]}"),
            "");
}

// ---- concurrency stress -------------------------------------------------

TEST(ObsStress, EightThreadsTenThousandEventsEach) {
  constexpr int kThreads = 8;
  constexpr int kEvents = 10000;

  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.obs.stress_counter");
  Histogram& h = reg.histogram("test.obs.stress_hist");
  c.reset();
  h.reset();
  set_trace_enabled(true);
  const TraceStats before = trace_stats();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kEvents; ++i) {
        TRACE_SPAN("test.obs.stress");
        c.inc();
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();

  // Counter and histogram totals are exact (relaxed atomics lose no counts).
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(h.count(), static_cast<std::size_t>(kThreads) * kEvents);

#ifdef ELREC_TRACING_ENABLED
  // Every span was either retained in some ring or counted as dropped.
  const TraceStats after = trace_stats();
  const std::uint64_t accounted =
      (after.events_retained + after.events_dropped) -
      (before.events_retained + before.events_dropped);
  EXPECT_EQ(accounted, static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_GE(after.threads, static_cast<std::size_t>(kThreads));
#else
  static_cast<void>(before);  // spans compiled out; metric totals still exact
#endif
}

// ---- overhead budget ----------------------------------------------------

#if defined(ELREC_UNDER_SANITIZER) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_ADDRESS__)
// ELREC_UNDER_SANITIZER comes from -DELREC_SANITIZE=... (any mode): GCC
// has no UBSan predefine, so the build system is the only reliable signal.
#define ELREC_OBS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ELREC_OBS_UNDER_SANITIZER 1
#endif
#endif

TEST(Trace, SpanOverheadWithinBudget) {
#if !defined(ELREC_TRACING_ENABLED)
  GTEST_SKIP() << "built with -DELREC_TRACING=OFF (TRACE_SPAN compiled out)";
#elif defined(ELREC_OBS_UNDER_SANITIZER)
  GTEST_SKIP() << "overhead budget not meaningful under a sanitizer";
#else
  set_trace_enabled(true);
  { TRACE_SPAN("test.obs.warmup"); }  // thread ring registration outside loop

  constexpr int kSpans = 200000;
  double best_ns = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpans; ++i) {
      TRACE_SPAN("test.obs.overhead");
    }
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()) /
        kSpans;
    best_ns = std::min(best_ns, ns);
  }
  // DESIGN.md §8 budget: <= 100 ns per enabled span (two trace-clock reads
  // plus one ring push). Loose bound — shared CI machines, not a microbench.
  std::printf("[ MEASURED ] TRACE_SPAN enabled cost: %.1f ns/span\n", best_ns);
  EXPECT_LE(best_ns, 100.0) << "TRACE_SPAN cost " << best_ns << " ns/span";
#endif
}

}  // namespace
}  // namespace elrec::obs
