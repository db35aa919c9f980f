// Merges the per-thread span rings into chrome://tracing JSON, and
// validates such documents (used by tests and tools/trace_check).
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace elrec::obs {

namespace {

struct MergedEvent {
  TraceEvent event;
  std::uint32_t tid = 0;
};

std::string escaped(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

}  // namespace

std::string export_chrome_trace_json() {
  std::vector<MergedEvent> merged;
  std::uint64_t dropped = 0;
  for (const ThreadTraceBuffer* buf : detail::all_buffers()) {
    dropped += buf->dropped();
    buf->for_each([&](const TraceEvent& e) {
      merged.push_back({e, buf->tid()});
    });
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.event.start_ticks < b.event.start_ticks;
                   });
  // Timestamps are reported relative to the earliest span so the viewer
  // opens at t=0 instead of hours of clock uptime.
  const std::uint64_t t0 =
      merged.empty() ? 0 : merged.front().event.start_ticks;
  const double us_per_tick = detail::trace_ns_per_tick() / 1e3;

  std::string out = "{\"displayTimeUnit\": \"ms\", \"droppedEventCount\": " +
                    std::to_string(dropped) + ",\n\"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const MergedEvent& m = merged[i];
    // Complete ("X") events: one record per span, microsecond floats.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"elrec\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u}",
                  escaped(m.event.name).c_str(),
                  static_cast<double>(m.event.start_ticks - t0) * us_per_tick,
                  static_cast<double>(m.event.dur_ticks) * us_per_tick, m.tid);
    out += buf;
    out += (i + 1 < merged.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << export_chrome_trace_json();
  return out.good();
}

std::string validate_chrome_trace(const std::string& json) {
  JsonValue doc;
  const std::string err = parse_json(json, doc);
  if (!err.empty()) return "JSON syntax: " + err;
  if (!doc.is_object()) return "top-level value must be an object";
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return "missing \"traceEvents\"";
  if (!events->is_array()) return "\"traceEvents\" must be an array";
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) return at + " is not an object";
    const JsonValue* name = e.find("name");
    if (name == nullptr || !name->is_string() || name->str.empty()) {
      return at + " needs a non-empty string \"name\"";
    }
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str.empty()) {
      return at + " needs a string \"ph\"";
    }
    for (const char* key : {"ts", "pid", "tid"}) {
      const JsonValue* v = e.find(key);
      if (v == nullptr || !v->is_number()) {
        return at + " needs a numeric \"" + key + "\"";
      }
    }
    if (ph->str == "X") {
      const JsonValue* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0) {
        return at + " (\"X\" span) needs a non-negative numeric \"dur\"";
      }
    }
  }
  return "";
}

}  // namespace elrec::obs
