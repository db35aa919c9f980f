#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

void Samples::sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  sort();
  const auto n = static_cast<double>(v_.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v_[std::min(v_.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Samples::Tail Samples::tail(std::size_t beyond) const {
  for (double p : {99.0, 90.0, 75.0, 50.0}) {
    const double above = static_cast<double>(v_.size()) * (1.0 - p / 100.0);
    if (above >= static_cast<double>(beyond)) return {p, percentile(p)};
  }
  return {0.0, v_.empty() ? 0.0 : percentile(100.0)};
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& detail) {
  e2e_.push_back({name, value, unit, detail});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit, ""});
}

void Report::raw(const std::string& name, double value) {
  raw_.emplace_back(name, value);
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::flag(const std::string& what) { flags_.push_back(what); }

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<std::string>& names,
                         const std::vector<double>& values,
                         const std::vector<std::string>& units) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(names[i]) + "\": {\"value\": " +
           json_number(values[i]) + ", \"unit\": \"" + json_escape(units[i]) +
           "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::print() const {
  std::printf("\n== end-to-end ==\n");
  for (const Metric& m : e2e_) {
    std::printf("  %-24s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  if (!layer_.empty()) {
    std::printf("== per-layer (benchmark-timed calls + registry) ==\n");
    for (const Metric& m : layer_) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("== checks ==\n");
  for (const Check& c : checks_) {
    std::printf("  [%s] %-28s %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }
  for (const std::string& f : flags_) std::printf("  [FLAG] %s\n", f.c_str());
  std::fflush(stdout);

  auto section = [](const std::vector<Metric>& ms) {
    std::vector<std::string> names, units;
    std::vector<double> values;
    for (const Metric& m : ms) {
      names.push_back(m.name);
      values.push_back(m.value);
      units.push_back(m.unit);
    }
    return metrics_json(names, values, units);
  };
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"end_to_end\": " + section(e2e_) +
         ", \"per_layer\": " + section(layer_) + ", \"raw\": {";
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(raw_[i].first) +
           "\": " + json_number(raw_[i].second);
  }
  out += "}, \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(meta_[i].first) + "\": \"" +
           json_escape(meta_[i].second) + "\"";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + json_escape(checks_[i].name) + "\", \"ok\": " +
           (checks_[i].ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(checks_[i].detail) + "\"}";
  }
  out += "], \"flags\": [";
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(flags_[i]) + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

const char* build_flags() {
#ifdef PERFBENCH_BUILD_FLAGS
  return PERFBENCH_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

int hardware_threads() {
  static const int n = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      return std::max(1, CPU_COUNT(&set));
    }
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }();
  return n;
}

double label_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -(p * std::log(p) + (1.0 - p) * std::log(1.0 - p));
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string float_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", bits);
  return buf;
}

}  // namespace perfbench
