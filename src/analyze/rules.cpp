// The shipped project-invariant rules. Each encodes a contract that a
// generic linter cannot know:
//
//   determinism-rand          — training must be replayable: all randomness
//                               flows through elrec::Prng with an explicit
//                               seed; libc/time-seeded RNGs are banned.
//   nondeterministic-reduction— float accumulation across OpenMP threads
//                               must keep one fixed order: one owning
//                               thread per output (the slice-owned Eff-TT
//                               backward) or fixed partials merged in
//                               order (the k-split GEMM); `reduction(+:..)`
//                               and `omp atomic` reorder FP adds run-to-run.
//   omp-parallel-if           — an `if (...)` clause on `omp parallel`
//                               still enters the OpenMP runtime (a team of
//                               one) when false; guard with a plain branch
//                               (common/parallel.hpp) instead.
//   atomics-ordering          — hot-path counters are relaxed by contract;
//                               an RMW without an explicit memory_order is
//                               a silent seq_cst fence, and `volatile` is
//                               never a synchronization primitive.
//   iostream-in-lib           — library code reports through errors and the
//                               obs registry, never stdout/stderr.
//   lock-discipline           — mutexes are locked only via RAII guards so
//                               every exit path (and exception) unlocks.
//   header-hygiene            — headers carry `#pragma once` and never
//                               `using namespace`.
//   trace-span-coverage       — manifest-listed hot-path functions must
//                               contain TRACE_SPAN (obs coverage cannot
//                               silently rot).
//   nolint-rationale          — every NOLINT marker carries a `: reason`
//                               tail; a suppression whose justification
//                               lives only in someone's head rots first.
//                               (The driver exempts this rule from NOLINT
//                               suppression — a bare NOLINT must not
//                               silence the rule that audits it.)
//
// The cross-TU rules (lock-order-graph, blocking-under-lock,
// layering-dag, fault-site-coverage) live in project_rules.cpp.
#include <array>
#include <string_view>

#include "analyze/rule.hpp"

namespace elrec::analyze {

namespace {

bool is_sig(const Token& t) { return t.kind != TokenKind::kComment; }

// Index of the previous/next non-comment token, or npos.
constexpr std::size_t npos = static_cast<std::size_t>(-1);

std::size_t prev_sig(const TokenStream& ts, std::size_t i) {
  while (i > 0) {
    --i;
    if (is_sig(ts[i])) return i;
  }
  return npos;
}

std::size_t next_sig(const TokenStream& ts, std::size_t i) {
  for (++i; i < ts.size(); ++i) {
    if (is_sig(ts[i])) return i;
  }
  return npos;
}

bool is_punct(const TokenStream& ts, std::size_t i, std::string_view text) {
  return i != npos && ts[i].kind == TokenKind::kPunct && ts[i].text == text;
}

bool is_ident(const TokenStream& ts, std::size_t i, std::string_view text) {
  return i != npos && ts[i].kind == TokenKind::kIdentifier &&
         ts[i].text == text;
}

bool is_member_access(const TokenStream& ts, std::size_t i) {
  const std::size_t p = prev_sig(ts, i);
  return is_punct(ts, p, ".") || is_punct(ts, p, "->");
}

// For `X::name` at index i of `name`, returns the qualifier token index or
// npos when unqualified.
std::size_t qualifier_of(const TokenStream& ts, std::size_t i) {
  const std::size_t colon = prev_sig(ts, i);
  if (!is_punct(ts, colon, "::")) return npos;
  const std::size_t q = prev_sig(ts, colon);
  return (q != npos && ts[q].kind == TokenKind::kIdentifier) ? q : npos;
}

// With ts[i] == "(", returns the index of the matching ")" (or npos).
std::size_t match_paren(const TokenStream& ts, std::size_t i) {
  int depth = 0;
  for (; i < ts.size(); ++i) {
    if (is_punct(ts, i, "(")) ++depth;
    if (is_punct(ts, i, ")") && --depth == 0) return i;
  }
  return npos;
}

std::size_t match_brace(const TokenStream& ts, std::size_t i) {
  int depth = 0;
  for (; i < ts.size(); ++i) {
    if (is_punct(ts, i, "{")) ++depth;
    if (is_punct(ts, i, "}") && --depth == 0) return i;
  }
  return npos;
}

template <std::size_t N>
bool one_of(std::string_view text, const std::array<std::string_view, N>& set) {
  for (std::string_view s : set) {
    if (text == s) return true;
  }
  return false;
}

// ---------------------------------------------------------------- rules --

class DeterminismRandRule final : public Rule {
 public:
  std::string_view name() const override { return "determinism-rand"; }
  std::string_view description() const override {
    return "libc/time-seeded RNGs break replayability; use elrec::Prng with "
           "an explicit seed";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 7> kCalls = {
        "rand", "srand", "rand_r", "drand48", "lrand48",
        "mrand48", "random_shuffle"};
    const TokenStream& ts = file.tokens();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (ts[i].text == "random_device") {
        // A nondeterministic seed source anywhere is a finding, call or not.
        const std::size_t q = qualifier_of(ts, i);
        if (q == npos || ts[q].text == "std") {
          out.push_back(make_finding(
              file, name(), ts[i].line, ts[i].col,
              "std::random_device is nondeterministic; seed elrec::Prng "
              "explicitly"));
        }
        continue;
      }
      if (!one_of(ts[i].text, kCalls)) continue;
      if (is_member_access(ts, i)) continue;  // e.g. prng.rand_u64()
      const std::size_t q = qualifier_of(ts, i);
      if (q != npos && ts[q].text != "std") continue;  // Foo::rand is fine
      if (!is_punct(ts, next_sig(ts, i), "(")) continue;  // not a call
      out.push_back(make_finding(
          file, name(), ts[i].line, ts[i].col,
          "'" + ts[i].text + "' is banned in src/: route randomness through "
          "elrec::Prng so runs replay bit-identically"));
    }
  }
};

class NondeterministicReductionRule final : public Rule {
 public:
  std::string_view name() const override {
    return "nondeterministic-reduction";
  }
  std::string_view description() const override {
    return "OpenMP float accumulation must keep one fixed order (one owner "
           "per output, or fixed partials merged in order); "
           "reduction(+|-|*) and omp atomic reorder FP adds";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    for (const Token& t : file.tokens()) {
      if (t.kind != TokenKind::kPpDirective) continue;
      const std::string& d = t.text;
      if (d.find("pragma") == std::string::npos ||
          d.find("omp") == std::string::npos) {
        continue;
      }
      if (d.find("atomic") != std::string::npos) {
        out.push_back(make_finding(
            file, name(), t.line, t.col,
            "'#pragma omp atomic' accumulation is order-nondeterministic "
            "for floats; give each output one owning thread, or merge fixed "
            "partials in order"));
        continue;
      }
      // `omp simd reduction` stays in one thread with a fixed lane order —
      // deterministic. Only cross-thread (`parallel`) reductions reorder.
      if (d.find("parallel") == std::string::npos) continue;
      const std::size_t red = d.find("reduction");
      if (red == std::string::npos) continue;
      const std::size_t open = d.find('(', red);
      if (open == std::string::npos) continue;
      // First non-space char of the clause is the operator.
      std::size_t op = open + 1;
      while (op < d.size() && d[op] == ' ') ++op;
      if (op < d.size() && (d[op] == '+' || d[op] == '-' || d[op] == '*')) {
        out.push_back(make_finding(
            file, name(), t.line, t.col,
            "'reduction(" + std::string(1, d[op]) + ":...)' reorders "
            "accumulation across threads — nondeterministic for floats. Give "
            "each output one owning thread or merge fixed partials in order, "
            "or NOLINT with a justification that the accumulator is "
            "integral"));
      }
    }
  }
};

class OmpParallelIfRule final : public Rule {
 public:
  std::string_view name() const override { return "omp-parallel-if"; }
  std::string_view description() const override {
    return "an if clause on '#pragma omp parallel' still forks a team of one "
           "when false; decide with fork_omp_team/parallel_for instead";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    for (const Token& t : file.tokens()) {
      if (t.kind != TokenKind::kPpDirective) continue;
      const std::string& d = t.text;
      if (d.find("pragma") == std::string::npos ||
          d.find("omp") == std::string::npos ||
          d.find("parallel") == std::string::npos) {
        continue;
      }
      if (!has_if_clause(d)) continue;
      out.push_back(make_finding(
          file, name(), t.line, t.col,
          "'if (...)' on '#pragma omp parallel' enters the OpenMP runtime "
          "even when false (~0.4 us top level, ~2 us nested); branch on "
          "fork_omp_team(cond) or call parallel_for(begin, end, cond, body) "
          "from common/parallel.hpp"));
    }
  }

 private:
  // True when the directive holds the word `if` followed by `(`
  // (continuations are already joined into one line by the lexer).
  static bool has_if_clause(const std::string& d) {
    const auto word_char = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
             (c >= '0' && c <= '9') || c == '_';
    };
    for (std::size_t p = d.find("if"); p != std::string::npos;
         p = d.find("if", p + 1)) {
      if (p > 0 && word_char(d[p - 1])) continue;
      std::size_t q = p + 2;
      while (q < d.size() && (d[q] == ' ' || d[q] == '\t')) ++q;
      if (q < d.size() && d[q] == '(') return true;
    }
    return false;
  }
};

class AtomicsOrderingRule final : public Rule {
 public:
  std::string_view name() const override { return "atomics-ordering"; }
  std::string_view description() const override {
    return "atomic RMWs must name their memory_order (hot-path counters are "
           "relaxed by contract); volatile is not a sync primitive";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 8> kRmw = {
        "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
        "fetch_xor", "exchange", "compare_exchange_weak",
        "compare_exchange_strong"};
    const TokenStream& ts = file.tokens();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (ts[i].text == "volatile") {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "'volatile' is not a synchronization primitive; use "
            "std::atomic with an explicit memory_order"));
        continue;
      }
      if (ts[i].text == "memory_order_seq_cst" ||
          (ts[i].text == "seq_cst" &&
           is_ident(ts, qualifier_of(ts, i), "memory_order"))) {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "seq_cst on a hot-path atomic: counters are relaxed by "
            "contract, flags are acquire/release; say which you mean"));
        continue;
      }
      if (!one_of(ts[i].text, kRmw) || !is_member_access(ts, i)) continue;
      const std::size_t open = next_sig(ts, i);
      if (!is_punct(ts, open, "(")) continue;
      const std::size_t close = match_paren(ts, open);
      if (close == npos) continue;
      bool has_order = false;
      for (std::size_t j = open + 1; j < close; ++j) {
        if (ts[j].kind == TokenKind::kIdentifier &&
            ts[j].text.rfind("memory_order", 0) == 0) {
          has_order = true;
          break;
        }
      }
      if (!has_order) {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "'" + ts[i].text + "' without an explicit memory_order defaults "
            "to seq_cst — state the intended ordering (relaxed for "
            "counters)"));
      }
    }
  }
};

class IostreamInLibRule final : public Rule {
 public:
  std::string_view name() const override { return "iostream-in-lib"; }
  std::string_view description() const override {
    return "library code must not write to stdout/stderr; throw elrec::Error "
           "or record obs metrics (tools/bench/examples/tests exempt)";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    if (!file.in_library()) return;
    static constexpr std::array<std::string_view, 8> kPrintf = {
        "printf", "fprintf", "vprintf", "vfprintf",
        "puts", "fputs", "putchar", "perror"};
    static constexpr std::array<std::string_view, 3> kStreams = {
        "cout", "cerr", "clog"};
    const TokenStream& ts = file.tokens();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (is_member_access(ts, i)) continue;
      const std::size_t q = qualifier_of(ts, i);
      const bool std_or_global = q == npos || ts[q].text == "std";
      if (one_of(ts[i].text, kPrintf) && std_or_global &&
          is_punct(ts, next_sig(ts, i), "(")) {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "'" + ts[i].text + "' in library code — report through "
            "elrec::Error / obs metrics instead"));
      } else if (one_of(ts[i].text, kStreams) && std_or_global) {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "'std::" + ts[i].text + "' in library code — report through "
            "elrec::Error / obs metrics instead"));
      }
    }
  }
};

class LockDisciplineRule final : public Rule {
 public:
  std::string_view name() const override { return "lock-discipline"; }
  std::string_view description() const override {
    return "lock mutexes only via RAII guards (lock_guard/unique_lock/"
           "scoped_lock) so every exit path unlocks";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 6> kMutexTypes = {
        "mutex", "shared_mutex", "recursive_mutex",
        "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex"};
    static constexpr std::array<std::string_view, 6> kManual = {
        "lock", "unlock", "try_lock",
        "lock_shared", "unlock_shared", "try_lock_shared"};
    const TokenStream& ts = file.tokens();

    // Pass 1: names declared with a mutex type in this file.
    std::unordered_set<std::string> declared;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier ||
          !one_of(ts[i].text, kMutexTypes)) {
        continue;
      }
      const std::size_t n = next_sig(ts, i);
      if (n != npos && ts[n].kind == TokenKind::kIdentifier) {
        declared.insert(ts[n].text);
      }
    }

    // Pass 2: manual lock()/unlock() on a declared mutex, or on a receiver
    // spelled like one (members are declared in the header, used in the
    // .cpp — the name heuristic bridges that file boundary).
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier ||
          !one_of(ts[i].text, kManual)) {
        continue;
      }
      const std::size_t dot = prev_sig(ts, i);
      if (!is_punct(ts, dot, ".") && !is_punct(ts, dot, "->")) continue;
      if (!is_punct(ts, next_sig(ts, i), "(")) continue;
      const std::size_t recv = prev_sig(ts, dot);
      if (recv == npos || ts[recv].kind != TokenKind::kIdentifier) continue;
      if (declared.count(ts[recv].text) == 0 &&
          !looks_like_mutex(ts[recv].text)) {
        continue;
      }
      out.push_back(make_finding(
          file, name(), ts[i].line, ts[i].col,
          "manual '" + ts[recv].text + "." + ts[i].text + "()' — lock via "
          "std::lock_guard/unique_lock/shared_lock so exceptions and early "
          "returns unlock"));
    }
  }

 private:
  static bool looks_like_mutex(const std::string& id) {
    static constexpr std::array<std::string_view, 6> kExact = {
        "mu", "mu_", "mtx", "mtx_", "mutex", "mutex_"};
    if (one_of(std::string_view(id), kExact)) return true;
    for (std::string_view suf :
         {"_mu", "_mu_", "_mtx", "_mtx_", "_mutex", "_mutex_"}) {
      if (id.size() > suf.size() &&
          std::string_view(id).substr(id.size() - suf.size()) == suf) {
        return true;
      }
    }
    return false;
  }
};

class HeaderHygieneRule final : public Rule {
 public:
  std::string_view name() const override { return "header-hygiene"; }
  std::string_view description() const override {
    return "headers must start with #pragma once and never say "
           "'using namespace'";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    if (!file.is_header()) return;
    const TokenStream& ts = file.tokens();
    bool has_once = false;
    for (const Token& t : ts) {
      if (t.kind == TokenKind::kPpDirective &&
          t.text.find("pragma") != std::string::npos &&
          t.text.find("once") != std::string::npos) {
        has_once = true;
        break;
      }
    }
    if (!has_once) {
      out.push_back(make_finding(file, name(), 1, 1,
                                 "header is missing '#pragma once'"));
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (is_ident(ts, i, "using") &&
          is_ident(ts, next_sig(ts, i), "namespace")) {
        out.push_back(make_finding(
            file, name(), ts[i].line, ts[i].col,
            "'using namespace' in a header leaks into every includer"));
      }
    }
  }
};

class TraceSpanCoverageRule final : public Rule {
 public:
  std::string_view name() const override { return "trace-span-coverage"; }
  std::string_view description() const override {
    return "manifest-listed hot-path functions must contain TRACE_SPAN";
  }
  void check(const SourceFile& file, const LintContext& ctx,
             std::vector<Finding>& out) const override {
    for (const TraceSpanRequirement& req : ctx.trace_manifest) {
      if (!std::string_view(file.path()).ends_with(req.file_suffix)) continue;
      check_one(file, req, out);
    }
  }

 private:
  void check_one(const SourceFile& file, const TraceSpanRequirement& req,
                 std::vector<Finding>& out) const {
    const TokenStream& ts = file.tokens();
    bool found_def = false;
    std::size_t first_def_line = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (!is_ident(ts, i, req.function)) continue;
      const std::size_t open = next_sig(ts, i);
      if (!is_punct(ts, open, "(")) continue;
      const std::size_t close = match_paren(ts, open);
      if (close == npos) continue;
      // Definition iff only {const,noexcept,override,final} stand between
      // the parameter list and the body brace (rejects calls, whose next
      // token is ;/)/operator, and declarations, which end in ;).
      std::size_t j = next_sig(ts, close);
      while (j != npos &&
             (is_ident(ts, j, "const") || is_ident(ts, j, "noexcept") ||
              is_ident(ts, j, "override") || is_ident(ts, j, "final"))) {
        j = next_sig(ts, j);
      }
      if (!is_punct(ts, j, "{")) continue;
      const std::size_t end = match_brace(ts, j);
      if (end == npos) continue;
      if (!found_def) first_def_line = ts[i].line;
      found_def = true;
      for (std::size_t k = j; k < end; ++k) {
        if (is_ident(ts, k, "TRACE_SPAN")) return;  // covered
      }
    }
    if (!found_def) {
      out.push_back(make_finding(
          file, name(), 1, 1,
          "manifest lists function '" + req.function + "' but no definition "
          "was found in this file — fix the manifest or the code"));
    } else {
      out.push_back(make_finding(
          file, name(), first_def_line, 1,
          "hot-path function '" + req.function + "' has no TRACE_SPAN; add "
          "one (or update the trace manifest with a justification)"));
    }
  }
};

}  // namespace

class NolintRationaleRule final : public Rule {
 public:
  std::string_view name() const override { return "nolint-rationale"; }
  std::string_view description() const override {
    return "every NOLINT/NOLINTNEXTLINE marker must carry a ': reason' "
           "tail stating why the suppression is sound";
  }
  void check(const SourceFile& file, const LintContext&,
             std::vector<Finding>& out) const override {
    for (const NolintMarker& m : file.nolint_markers()) {
      if (m.has_reason) continue;
      out.push_back(make_finding(
          file, name(), m.line, 1,
          "NOLINT marker without a rationale; append ': <why this "
          "suppression is sound>' after the tag"));
    }
  }
};

RuleRegistry RuleRegistry::with_builtin_rules() {
  RuleRegistry r;
  r.add(std::make_unique<DeterminismRandRule>());
  r.add(std::make_unique<NondeterministicReductionRule>());
  r.add(std::make_unique<OmpParallelIfRule>());
  r.add(std::make_unique<AtomicsOrderingRule>());
  r.add(std::make_unique<IostreamInLibRule>());
  r.add(std::make_unique<LockDisciplineRule>());
  r.add(std::make_unique<HeaderHygieneRule>());
  r.add(std::make_unique<TraceSpanCoverageRule>());
  r.add(std::make_unique<NolintRationaleRule>());
  register_builtin_project_rules(r);
  return r;
}

}  // namespace elrec::analyze
