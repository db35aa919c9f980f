// The shipped cross-TU rules. Each reads only the finalized ProjectIndex:
//
//   lock-order-graph     — the static lock-acquisition graph must be
//                          acyclic; any cycle is a potential deadlock and
//                          is reported with the full witness path (file,
//                          line, call chain per edge).
//   blocking-under-lock  — no blocking primitive (deadline queue ops,
//                          condvar waits, sleeps) may be reachable —
//                          directly or through calls, e.g. a blocking
//                          RequestScheduler::submit_blocking — while a
//                          RAII guard scope is open.
//                          Exemptions (DESIGN.md §9): a condvar wait that
//                          names the open guard releases it; try_push_for/
//                          try_pop_for with a literal-zero timeout is a
//                          non-blocking probe.
//   layering-dag         — include edges must respect the subsystem order
//                          common → tensor/obs/analyze → tt/embed/data/
//                          reorder → core/dlrm/codec → pipeline/serve →
//                          sim/shard → online; a backward edge fails.
//   fault-site-coverage  — every ELREC_FAULT_POINT site and every dotted
//                          site armed in tests must appear in
//                          tools/fault_sites.manifest, and every manifest
//                          entry must still match a live site (the same
//                          loud drift contract trace-span-coverage has).
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "analyze/index.hpp"
#include "analyze/rule.hpp"

namespace elrec::analyze {

namespace {

class LockOrderGraphRule final : public ProjectRule {
 public:
  std::string_view name() const override { return "lock-order-graph"; }
  std::string_view description() const override {
    return "the cross-TU lock-acquisition graph must be acyclic; a cycle "
           "is a potential deadlock";
  }
  void check(const ProjectIndex& index, const LintContext&,
             std::vector<Finding>& out) const override {
    for (const auto& cycle : index.cycles()) {
      if (cycle.empty()) continue;
      std::ostringstream msg;
      msg << "lock-order cycle: ";
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        if (i > 0) msg << " -> ";
        msg << cycle[i].from;
      }
      msg << " -> " << cycle.front().from << "; witness:";
      for (const LockEdge& e : cycle) msg << " [" << e.witness << "]";
      out.push_back(make_project_finding(index, name(),
                                         cycle.front().witness_file,
                                         cycle.front().witness_line, 1,
                                         msg.str()));
    }
  }
};

class BlockingUnderLockRule final : public ProjectRule {
 public:
  std::string_view name() const override { return "blocking-under-lock"; }
  std::string_view description() const override {
    return "no blocking call may be reachable while a lock_guard/"
           "unique_lock scope is open (p99 cliff / deadlock fuel)";
  }
  void check(const ProjectIndex& index, const LintContext&,
             std::vector<Finding>& out) const override {
    for (const BlockingUnderLock& b : index.blocking_under_lock()) {
      std::ostringstream msg;
      msg << b.what << " reachable in " << b.function << " while holding ";
      for (std::size_t i = 0; i < b.held.size(); ++i) {
        if (i > 0) msg << ", ";
        msg << b.held[i];
      }
      if (!b.chain.empty()) msg << " (call chain: " << b.chain << ")";
      msg << "; move the blocking call outside the guard scope";
      out.push_back(make_project_finding(index, name(), b.file, b.line,
                                         b.col, msg.str()));
    }
  }
};

// Subsystem ranks. Same-rank edges are allowed (e.g. data -> embed);
// an include whose target ranks *higher* than the including subsystem
// points backwards through the layering and fails.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},
      {"tensor", 1}, {"obs", 1}, {"analyze", 1},
      {"tt", 2}, {"embed", 2}, {"data", 2}, {"reorder", 2},
      {"core", 3}, {"dlrm", 3}, {"codec", 3},
      {"pipeline", 4}, {"serve", 4},
      {"sim", 5}, {"shard", 5},
      {"online", 6},
  };
  return kRanks;
}

// "src/shard/shard_router.cpp" -> "shard"; "" when not under src/.
std::string subsystem_of_path(std::string_view path) {
  const std::size_t src = path.rfind("src/");
  if (src == std::string_view::npos) return {};
  if (src != 0 && path[src - 1] != '/') return {};
  std::string_view rest = path.substr(src + 4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(rest.substr(0, slash));
}

// "shard/shard_router.hpp" -> "shard" (project headers are included
// relative to src/); "" for flat includes.
std::string subsystem_of_header(std::string_view header) {
  const std::size_t slash = header.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(header.substr(0, slash));
}

class LayeringDagRule final : public ProjectRule {
 public:
  std::string_view name() const override { return "layering-dag"; }
  std::string_view description() const override {
    return "subsystem includes must follow common -> tensor/obs -> "
           "tt/embed/data -> dlrm/codec -> pipeline/serve -> shard -> "
           "online";
  }
  void check(const ProjectIndex& index, const LintContext&,
             std::vector<Finding>& out) const override {
    const auto& ranks = layer_ranks();
    for (const IncludeEdge& e : index.include_edges()) {
      const std::string from = subsystem_of_path(e.file);
      if (from.empty()) continue;  // tests/tools/bench include freely
      const auto from_it = ranks.find(from);
      if (from_it == ranks.end()) {
        out.push_back(make_project_finding(
            index, name(), e.file, e.line, 1,
            "subsystem 'src/" + from + "' is not in the layering map; add "
            "it to layer_ranks() (project_rules.cpp) and DESIGN.md §9"));
        continue;
      }
      const std::string to = subsystem_of_header(e.header);
      if (to.empty()) continue;  // non-subsystem include (e.g. local)
      const auto to_it = ranks.find(to);
      if (to_it == ranks.end()) continue;  // not a project subsystem
      if (from_it->second < to_it->second) {
        out.push_back(make_project_finding(
            index, name(), e.file, e.line, 1,
            "backward include edge: src/" + from + " (layer " +
                std::to_string(from_it->second) + ") must not include \"" +
                e.header + "\" (layer " + std::to_string(to_it->second) +
                "); the layering DAG runs common -> ... -> online"));
      }
    }
  }
};

class FaultSiteCoverageRule final : public ProjectRule {
 public:
  std::string_view name() const override { return "fault-site-coverage"; }
  std::string_view description() const override {
    return "every ELREC_FAULT_POINT site and armed fault site must be "
           "listed in tools/fault_sites.manifest (and vice versa)";
  }
  void check(const ProjectIndex& index, const LintContext& ctx,
             std::vector<Finding>& out) const override {
    if (ctx.fault_manifest_path.empty()) return;  // no manifest: idle

    std::set<std::string> manifest_sites;
    for (const FaultSiteRequirement& req : ctx.fault_manifest) {
      manifest_sites.insert(req.site);
    }

    for (const FaultPoint& fp : index.fault_points()) {
      bool covered = false;
      for (const FaultSiteRequirement& req : ctx.fault_manifest) {
        if (req.site == fp.site && fp.file.ends_with(req.file_suffix)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        out.push_back(make_project_finding(
            index, name(), fp.file, fp.line, 1,
            "ELREC_FAULT_POINT(\"" + fp.site + "\") is not covered by " +
                ctx.fault_manifest_path + "; add a `<file-suffix> " +
                fp.site + "` entry so fault drills cannot silently rot"));
      }
    }

    // Armed sites: only dotted names are real site ids (grammar fixtures
    // arm junk like "noprob" on purpose).
    for (const ArmedSite& as : index.armed_sites()) {
      if (as.site.find('.') == std::string::npos) continue;
      if (manifest_sites.count(as.site)) continue;
      out.push_back(make_project_finding(
          index, name(), as.file, as.line, 1,
          "armed fault site \"" + as.site + "\" is not listed in " +
              ctx.fault_manifest_path +
              "; arming a site no plant declares is manifest drift"));
    }

    // Drift in the other direction: a manifest entry matching nothing.
    for (const FaultSiteRequirement& req : ctx.fault_manifest) {
      bool live = false;
      for (const FaultPoint& fp : index.fault_points()) {
        if (req.site == fp.site && fp.file.ends_with(req.file_suffix)) {
          live = true;
          break;
        }
      }
      for (const ArmedSite& as : index.armed_sites()) {
        if (live) break;
        if (req.site == as.site && as.file.ends_with(req.file_suffix)) {
          live = true;
        }
      }
      if (!live) {
        Finding f = make_project_finding(
            index, name(), ctx.fault_manifest_path, req.line, 1,
            "manifest entry `" + req.file_suffix + " " + req.site +
                "` matches no ELREC_FAULT_POINT or armed site in the "
                "scanned tree; delete it or fix the suffix");
        f.snippet = req.file_suffix + " " + req.site;
        out.push_back(std::move(f));
      }
    }
  }
};

}  // namespace

void register_builtin_project_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<LockOrderGraphRule>());
  registry.add(std::make_unique<BlockingUnderLockRule>());
  registry.add(std::make_unique<LayeringDagRule>());
  registry.add(std::make_unique<FaultSiteCoverageRule>());
}

}  // namespace elrec::analyze
