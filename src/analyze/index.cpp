#include "analyze/index.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <sstream>

namespace elrec::analyze {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is_sig(const Token& t) { return t.kind != TokenKind::kComment; }

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
  return i != npos && i < ts.size() && ts[i].kind == TokenKind::kPunct &&
         ts[i].text == text;
}

bool is_ident(const TokenStream& ts, std::size_t i) {
  return i != npos && i < ts.size() && ts[i].kind == TokenKind::kIdentifier;
}

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

std::size_t match_bracket(const TokenStream& ts, std::size_t i) {
  int depth = 0;
  for (; i < ts.size(); ++i) {
    if (is_punct(ts, i, "[")) ++depth;
    if (is_punct(ts, i, "]") && --depth == 0) return i;
  }
  return npos;
}

// With ts[i] == "<", index just past the matching ">", or npos when this
// is an operator rather than a template argument list (bounded scan).
std::size_t match_angle_end(const TokenStream& ts, std::size_t i) {
  int depth = 0;
  std::size_t steps = 0;
  for (; i < ts.size() && steps < 200; ++i, ++steps) {
    const Token& t = ts[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "<") ++depth;
    else if (t.text == "<<") depth += 2;
    else if (t.text == ">") { if (--depth == 0) return i + 1; }
    else if (t.text == ">>") { depth -= 2; if (depth <= 0) return i + 1; }
    else if (t.text == ";" || t.text == "{" || t.text == "}") return npos;
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

bool is_keyword(std::string_view t) {
  static constexpr std::array<std::string_view, 34> kKeywords = {
      "if", "else", "for", "while", "do", "switch", "case", "return",
      "sizeof", "alignof", "decltype", "noexcept", "static_assert", "new",
      "delete", "throw", "catch", "co_await", "co_return", "assert",
      "defined", "constexpr", "const", "template", "typename", "using",
      "namespace", "struct", "class", "enum", "operator", "public",
      "private", "protected"};
  return one_of(t, kKeywords);
}

bool is_guard_type(std::string_view t) {
  static constexpr std::array<std::string_view, 4> kGuards = {
      "lock_guard", "unique_lock", "shared_lock", "scoped_lock"};
  return one_of(t, kGuards);
}

bool is_mutex_type(std::string_view t) {
  static constexpr std::array<std::string_view, 6> kMutexes = {
      "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex", "shared_timed_mutex"};
  return one_of(t, kMutexes);
}

bool is_condvar_type(std::string_view t) {
  return t == "condition_variable" || t == "condition_variable_any";
}

std::string strip_quotes(std::string_view s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return std::string(s.substr(1, s.size() - 2));
  }
  return std::string(s);
}

// ------------------------------------------------------------ extractor --

struct GuardScope {
  std::string var;
  std::vector<LockRef> locks;
  std::size_t scope_end = 0;  // token index whose '}' closes this guard
  bool active = true;
};

class Extractor {
 public:
  explicit Extractor(const SourceFile& file)
      : file_(file), ts_(file.tokens()) {
    out_.file = file.path();
    out_.library = file.in_library();
  }

  FileFacts run() {
    scan(0, ts_.size(), /*in_class=*/false);
    return std::move(out_);
  }

 private:
  struct ClassScope {
    std::string name;
    std::size_t end;  // index of the closing '}'
  };

  const SourceFile& file_;
  const TokenStream& ts_;
  FileFacts out_;
  std::vector<ClassScope> class_stack_;

  std::string current_class() const {
    return class_stack_.empty() ? std::string() : class_stack_.back().name;
  }

  // Scans declaration context (namespace or class scope) in [b, e).
  void scan(std::size_t b, std::size_t e, bool in_class) {
    (void)in_class;
    for (std::size_t i = b; i < e && i < ts_.size(); ++i) {
      while (!class_stack_.empty() && i >= class_stack_.back().end) {
        class_stack_.pop_back();
      }
      const Token& t = ts_[i];
      if (t.kind == TokenKind::kComment) continue;
      if (t.kind == TokenKind::kPpDirective) {
        record_include(t);
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;

      if (t.text == "using") {
        i = record_alias(i);
        continue;
      }
      if ((t.text == "class" || t.text == "struct") &&
          !is_prev_ident(i, "enum")) {
        record_class(i);
        continue;
      }
      if (t.text == "ELREC_GUARDED_BY") {
        i = record_guarded_by(i);
        continue;
      }
      if (is_mutex_type(t.text) || is_condvar_type(t.text)) {
        record_mutex_decl(i);
        continue;
      }

      // Function definition / declaration: `name ( ... )` then body or ';'.
      const std::size_t open = next_sig(ts_, i);
      if (!is_punct(ts_, open, "(") || is_keyword(t.text) ||
          t.text == "ELREC_REQUIRES" || is_guard_type(t.text)) {
        record_type_hint(i);
        continue;
      }
      const std::size_t p = prev_sig(ts_, i);
      if (is_punct(ts_, p, ".") || is_punct(ts_, p, "->")) continue;
      const std::size_t close = match_paren(ts_, open);
      if (close == npos) continue;
      i = record_function_or_decl(i, close);
    }
  }

  bool is_prev_ident(std::size_t i, std::string_view text) const {
    const std::size_t p = prev_sig(ts_, i);
    return is_ident(ts_, p) && ts_[p].text == text;
  }

  void record_include(const Token& t) {
    const std::size_t kw = t.text.find("include");
    if (kw == std::string::npos) return;
    const std::size_t q1 = t.text.find('"', kw);
    if (q1 == std::string::npos) return;
    const std::size_t q2 = t.text.find('"', q1 + 1);
    if (q2 == std::string::npos) return;
    out_.includes.push_back(
        {out_.file, t.text.substr(q1 + 1, q2 - q1 - 1), t.line});
  }

  // `using X = <stuff>;` — record X -> identifiers of <stuff>.
  std::size_t record_alias(std::size_t i) {
    std::size_t name_i = next_sig(ts_, i);
    if (!is_ident(ts_, name_i)) return i;
    std::size_t eq = next_sig(ts_, name_i);
    if (!is_punct(ts_, eq, "=")) return i;  // using-declaration, not alias
    std::set<std::string>& rhs = out_.aliases[ts_[name_i].text];
    std::size_t j = eq;
    while ((j = next_sig(ts_, j)) != npos && !is_punct(ts_, j, ";")) {
      if (is_ident(ts_, j)) rhs.insert(ts_[j].text);
    }
    return j == npos ? i : j;
  }

  // `class X ... { ... }` — push a class scope; forward decls are skipped.
  void record_class(std::size_t i) {
    const std::size_t name_i = next_sig(ts_, i);
    if (!is_ident(ts_, name_i)) return;
    std::size_t j = name_i;
    std::size_t steps = 0;
    while ((j = next_sig(ts_, j)) != npos && ++steps < 64) {
      if (is_punct(ts_, j, ";") || is_punct(ts_, j, "(") ||
          is_punct(ts_, j, ")")) {
        return;  // forward declaration or `struct X` used as a type
      }
      if (is_punct(ts_, j, "{")) {
        const std::size_t end = match_brace(ts_, j);
        if (end == npos) return;
        out_.classes.push_back(ts_[name_i].text);
        class_stack_.push_back({ts_[name_i].text, end});
        return;
      }
    }
  }

  // `member_ ELREC_GUARDED_BY(mu_);` — also implies `mu_` is a mutex of
  // the enclosing class even if its declaration was not recognized.
  std::size_t record_guarded_by(std::size_t i) {
    const std::size_t open = next_sig(ts_, i);
    if (!is_punct(ts_, open, "(")) return i;
    const std::size_t close = match_paren(ts_, open);
    if (close == npos) return i;
    const std::size_t mu = prev_sig(ts_, close);
    const std::size_t member = prev_sig(ts_, i);
    if (is_ident(ts_, mu)) {
      GuardedByDecl g;
      g.file = out_.file;
      g.cls = current_class();
      g.member = is_ident(ts_, member) ? ts_[member].text : std::string();
      g.mutex_name = ts_[mu].text;
      g.line = ts_[i].line;
      out_.guarded_by.push_back(std::move(g));
    }
    return close;
  }

  // `std::mutex mu_;` / `std::condition_variable cv_;` in class or
  // namespace scope. References and pointers (`std::mutex& m`) are uses,
  // not declarations.
  void record_mutex_decl(std::size_t i) {
    const std::size_t v = next_sig(ts_, i);
    if (!is_ident(ts_, v)) return;
    const std::size_t after = next_sig(ts_, v);
    if (!is_punct(ts_, after, ";") && !is_punct(ts_, after, "{")) return;
    MutexDecl d;
    d.file = out_.file;
    d.cls = current_class();
    d.name = ts_[v].text;
    d.line = ts_[v].line;
    d.is_condvar = is_condvar_type(ts_[i].text);
    out_.mutexes.push_back(std::move(d));
  }

  // `Type<...> var ;|=|(|{` — remember which type identifiers appear in a
  // variable's declaration statement (resolves member-call receivers).
  void record_type_hint(std::size_t i) {
    std::set<std::string> idents = {ts_[i].text};
    std::size_t j = next_sig(ts_, i);
    if (is_punct(ts_, j, "<")) {
      const std::size_t past = match_angle_end(ts_, j);
      if (past == npos) return;
      for (std::size_t k = j; k < past; ++k) {
        if (is_ident(ts_, k)) idents.insert(ts_[k].text);
      }
      j = past;
      while (j < ts_.size() && !is_sig(ts_[j])) ++j;
    }
    if (!is_ident(ts_, j)) return;
    const std::size_t after = next_sig(ts_, j);
    if (!is_punct(ts_, after, ";") && !is_punct(ts_, after, "=") &&
        !is_punct(ts_, after, "(") && !is_punct(ts_, after, "{") &&
        !is_punct(ts_, after, ",")) {
      return;
    }
    out_.type_hints[ts_[j].text].insert(idents.begin(), idents.end());
  }

  // ts_[i] is the function name, ts_ has `( ... )` ending at `close`.
  // Returns the index scanning should resume from.
  std::size_t record_function_or_decl(std::size_t i, std::size_t close) {
    std::string qualifier;
    {
      std::size_t colon = prev_sig(ts_, i);
      if (is_punct(ts_, colon, "::")) {
        const std::size_t q = prev_sig(ts_, colon);
        if (is_ident(ts_, q)) qualifier = ts_[q].text;
      }
    }

    // Walk past trailing specifiers; collect ELREC_REQUIRES lock names.
    std::vector<std::string> requires_locks;
    std::size_t j = close;
    std::size_t body = npos;
    bool is_decl = false;
    std::size_t steps = 0;
    while ((j = next_sig(ts_, j)) != npos && ++steps < 64) {
      if (is_punct(ts_, j, ";")) { is_decl = true; break; }
      if (is_punct(ts_, j, "{")) { body = j; break; }
      if (is_punct(ts_, j, ":")) {  // constructor init list
        body = find_ctor_body(j);
        break;
      }
      if (is_ident(ts_, j) && ts_[j].text == "ELREC_REQUIRES") {
        const std::size_t ro = next_sig(ts_, j);
        if (is_punct(ts_, ro, "(")) {
          const std::size_t rc = match_paren(ts_, ro);
          if (rc != npos) {
            for (std::size_t k = ro + 1; k < rc; ++k) {
              if (is_ident(ts_, k)) requires_locks.push_back(ts_[k].text);
            }
            j = rc;
            continue;
          }
        }
      }
      if (is_ident(ts_, j) && ts_[j].text == "noexcept") {
        const std::size_t no = next_sig(ts_, j);
        if (is_punct(ts_, no, "(")) {
          const std::size_t nc = match_paren(ts_, no);
          if (nc != npos) { j = nc; continue; }
        }
        continue;
      }
      if (is_ident(ts_, j) || is_punct(ts_, j, "->") ||
          is_punct(ts_, j, "::") || is_punct(ts_, j, "&") ||
          is_punct(ts_, j, "&&") || is_punct(ts_, j, "*") ||
          is_punct(ts_, j, "=")) {
        continue;  // const/override/final/trailing return/`= default`
      }
      if (is_punct(ts_, j, "<")) {
        const std::size_t past = match_angle_end(ts_, j);
        if (past != npos) { j = past - 1; continue; }
      }
      break;  // anything else: not a function signature
    }

    const std::string cls = !qualifier.empty() ? qualifier : current_class();
    if (is_decl) {
      if (!requires_locks.empty()) {
        out_.requires_decls.push_back({cls, ts_[i].text, requires_locks});
      }
      return j == npos ? i : j;
    }
    if (body == npos) return i;
    const std::size_t end = match_brace(ts_, body);
    if (end == npos) return i;

    FunctionFact fn;
    fn.file = out_.file;
    fn.cls = cls;
    fn.name = ts_[i].text;
    fn.line = ts_[i].line;
    fn.requires_locks = std::move(requires_locks);
    analyze_body(body, end, fn);
    out_.functions.push_back(std::move(fn));
    return end;
  }

  // After the ':' of a ctor init list, finds the body '{'. Member-init
  // braces (`x_{1}`) are preceded by an identifier; the body brace follows
  // a ')' or '}'.
  std::size_t find_ctor_body(std::size_t colon) {
    std::size_t j = colon;
    std::size_t steps = 0;
    while ((j = next_sig(ts_, j)) != npos && ++steps < 4096) {
      if (is_punct(ts_, j, "(")) {
        j = match_paren(ts_, j);
        if (j == npos) return npos;
        continue;
      }
      if (is_punct(ts_, j, "{")) {
        if (is_ident(ts_, prev_sig(ts_, j))) {
          j = match_brace(ts_, j);
          if (j == npos) return npos;
          continue;
        }
        return j;
      }
      if (is_punct(ts_, j, ";")) return npos;
    }
    return npos;
  }

  // ------------------------------------------------------ body analysis --

  std::vector<LockRef> effective_held(const FunctionFact& fn,
                                      const std::vector<GuardScope>& guards) {
    std::vector<LockRef> held;
    for (const std::string& r : fn.requires_locks) held.push_back({"", r});
    for (const GuardScope& g : guards) {
      if (!g.active) continue;
      held.insert(held.end(), g.locks.begin(), g.locks.end());
    }
    return held;
  }

  void analyze_body(std::size_t body, std::size_t end, FunctionFact& fn) {
    std::vector<GuardScope> guards;
    std::vector<std::size_t> scopes = {end};
    for (std::size_t j = body + 1; j < end; ++j) {
      while (scopes.size() > 1 && j >= scopes.back()) {
        const std::size_t closed = scopes.back();
        scopes.pop_back();
        std::erase_if(guards, [closed](const GuardScope& g) {
          return g.scope_end == closed;
        });
      }
      const Token& t = ts_[j];
      if (t.kind == TokenKind::kComment || t.kind == TokenKind::kPpDirective) {
        continue;
      }
      if (is_punct(ts_, j, "{")) {
        const std::size_t close = match_brace(ts_, j);
        if (close != npos && close <= end) scopes.push_back(close);
        continue;
      }
      if (is_punct(ts_, j, "[")) {
        j = maybe_lambda(j, end, fn);
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;

      if (is_mutex_type(t.text) || is_condvar_type(t.text)) {
        record_mutex_decl(j);  // function-local mutex: file-scope node
        continue;
      }
      if (is_guard_type(t.text)) {
        j = record_guard(j, fn, guards, scopes);
        continue;
      }
      const std::size_t open = next_sig(ts_, j);
      if (!is_punct(ts_, open, "(") || is_keyword(t.text)) {
        record_type_hint(j);
        continue;
      }
      handle_call(j, open, fn, guards);
    }
  }

  // `std::lock_guard<std::mutex> lock(mu_);` and friends. Returns the
  // index of the closing ')' (or '}' for brace-init).
  std::size_t record_guard(std::size_t j, FunctionFact& fn,
                           std::vector<GuardScope>& guards,
                           const std::vector<std::size_t>& scopes) {
    std::size_t k = next_sig(ts_, j);
    if (is_punct(ts_, k, "<")) {
      const std::size_t past = match_angle_end(ts_, k);
      if (past == npos) return j;
      k = past;
      while (k < ts_.size() && !is_sig(ts_[k])) ++k;
    }
    if (!is_ident(ts_, k)) return j;  // e.g. unqualified use as a type name
    const std::string var = ts_[k].text;
    std::size_t open = next_sig(ts_, k);
    const bool brace_init = is_punct(ts_, open, "{");
    if (!is_punct(ts_, open, "(") && !brace_init) return j;
    const std::size_t close =
        brace_init ? match_brace(ts_, open) : match_paren(ts_, open);
    if (close == npos) return j;

    bool deferred = false;
    bool try_lock = false;
    std::vector<LockRef> locks;
    std::size_t arg_start = open + 1;
    int depth = 0;
    for (std::size_t a = open + 1; a <= close; ++a) {
      if (is_punct(ts_, a, "(") || is_punct(ts_, a, "{") ||
          is_punct(ts_, a, "[")) {
        ++depth;
      } else if (is_punct(ts_, a, ")") || is_punct(ts_, a, "}") ||
                 is_punct(ts_, a, "]")) {
        --depth;
      }
      const bool at_end = (a == close && depth < 0) || a == close;
      if ((is_punct(ts_, a, ",") && depth == 0) || at_end) {
        LockRef ref;
        bool tag = false;
        for (std::size_t w = arg_start; w < a; ++w) {
          if (!is_ident(ts_, w)) continue;
          const std::string& id = ts_[w].text;
          if (id == "std") continue;
          if (id == "defer_lock") { deferred = true; tag = true; break; }
          if (id == "try_to_lock") { try_lock = true; tag = true; break; }
          if (id == "adopt_lock") { tag = true; break; }
          ref.receiver = std::move(ref.name);
          ref.name = id;
        }
        if (!tag && !ref.name.empty()) locks.push_back(std::move(ref));
        arg_start = a + 1;
      }
    }

    const std::vector<LockRef> held = effective_held(fn, guards);
    if (!deferred && !try_lock) {
      // scoped_lock(a, b) uses the deadlock-free lock() algorithm: the
      // arguments order-constrain against *outer* locks, not each other.
      for (const LockRef& ref : locks) {
        fn.acquires.push_back({ref, ts_[j].line, ts_[j].col, held});
      }
    }
    GuardScope g;
    g.var = var;
    g.locks = std::move(locks);
    g.scope_end = scopes.back();
    g.active = !deferred;
    guards.push_back(std::move(g));
    return close;
  }

  // `[`: attribute, subscript, or lambda. Lambdas become separate
  // anonymous FunctionFacts (deferred execution: the enclosing guard
  // context does not apply). Returns the resume index.
  std::size_t maybe_lambda(std::size_t j, std::size_t end, FunctionFact& fn) {
    const std::size_t p = prev_sig(ts_, j);
    if (is_ident(ts_, p) || is_punct(ts_, p, ")") || is_punct(ts_, p, "]") ||
        (p != npos && (ts_[p].kind == TokenKind::kNumber ||
                       ts_[p].kind == TokenKind::kString))) {
      return j;  // subscript
    }
    if (is_punct(ts_, next_sig(ts_, j), "[")) {  // [[attribute]]
      const std::size_t c1 = match_bracket(ts_, j);
      return c1 == npos ? j : c1;
    }
    const std::size_t cap_end = match_bracket(ts_, j);
    if (cap_end == npos || cap_end > end) return j;
    std::size_t k = next_sig(ts_, cap_end);
    if (is_punct(ts_, k, "(")) {
      const std::size_t pc = match_paren(ts_, k);
      if (pc == npos) return j;
      k = next_sig(ts_, pc);
    }
    std::size_t steps = 0;
    while (k != npos && !is_punct(ts_, k, "{") && ++steps < 32) {
      if (is_punct(ts_, k, ";") || is_punct(ts_, k, ")") ||
          is_punct(ts_, k, ",")) {
        return j;  // not a lambda after all (e.g. empty subscript)
      }
      if (is_punct(ts_, k, "(")) {
        const std::size_t pc = match_paren(ts_, k);
        if (pc == npos) return j;
        k = next_sig(ts_, pc);
        continue;
      }
      k = next_sig(ts_, k);
    }
    if (!is_punct(ts_, k, "{")) return j;
    const std::size_t lend = match_brace(ts_, k);
    if (lend == npos || lend > end) return j;

    FunctionFact lam;
    lam.file = out_.file;
    lam.cls = fn.cls;
    lam.name = "<lambda:" + std::to_string(ts_[j].line) + ">";
    lam.line = ts_[j].line;
    lam.is_lambda = true;
    analyze_body(k, lend, lam);
    out_.functions.push_back(std::move(lam));
    return lend;
  }

  // Splits the top-level arguments of the call whose '(' is at `open`.
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
      std::size_t open, std::size_t close) {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t a = open + 1; a <= close; ++a) {
      if (is_punct(ts_, a, "(") || is_punct(ts_, a, "{") ||
          is_punct(ts_, a, "[")) {
        ++depth;
      } else if (is_punct(ts_, a, ")") || is_punct(ts_, a, "}") ||
                 is_punct(ts_, a, "]")) {
        --depth;
      }
      if ((is_punct(ts_, a, ",") && depth == 0) || a == close) {
        if (a > start) args.emplace_back(start, a);
        start = a + 1;
      }
    }
    return args;
  }

  void handle_call(std::size_t j, std::size_t open, FunctionFact& fn,
                   std::vector<GuardScope>& guards) {
    const std::string& name = ts_[j].text;
    const std::size_t close = match_paren(ts_, open);
    if (close == npos) return;

    std::string qualifier;
    std::string receiver;
    {
      const std::size_t p = prev_sig(ts_, j);
      if (is_punct(ts_, p, "::")) {
        const std::size_t q = prev_sig(ts_, p);
        if (is_ident(ts_, q)) qualifier = ts_[q].text;
      } else if (is_punct(ts_, p, ".") || is_punct(ts_, p, "->")) {
        const std::size_t r = prev_sig(ts_, p);
        if (is_ident(ts_, r)) receiver = ts_[r].text;
      }
    }

    // guard.unlock()/.lock() toggles the RAII scope's held state.
    if (!receiver.empty() && (name == "unlock" || name == "lock")) {
      for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
        if (it->var != receiver) continue;
        if (name == "unlock") {
          it->active = false;
        } else if (!it->active) {
          it->active = true;
          const std::vector<LockRef> held = [&] {
            auto h = effective_held(fn, guards);
            // the guard just re-activated: drop its own locks from "held"
            for (const LockRef& own : it->locks) {
              std::erase(h, own);
            }
            return h;
          }();
          for (const LockRef& ref : it->locks) {
            fn.acquires.push_back({ref, ts_[j].line, ts_[j].col, held});
          }
        }
        return;
      }
      // fall through: not a guard variable (e.g. raw mutex — the
      // per-file lock-discipline rule owns that diagnosis)
    }

    std::vector<LockRef> held = effective_held(fn, guards);

    if (name == "ELREC_FAULT_POINT") {
      const std::size_t lit = next_sig(ts_, open);
      if (lit != npos && ts_[lit].kind == TokenKind::kString) {
        out_.fault_points.push_back(
            {out_.file, strip_quotes(ts_[lit].text), ts_[j].line});
      }
      // A fault point under a lock is a stall honeypot: an injected
      // kDelay fault holds the critical section. Outside a lock it is
      // harmless and does not make the function "blocking".
      if (!held.empty()) {
        fn.blocking.push_back({"ELREC_FAULT_POINT (an injected kDelay fault "
                               "stalls the critical section)",
                               ts_[j].line, ts_[j].col, held});
      }
      return;
    }
    if (name == "arm" || name == "arm_from_string") {
      const std::size_t lit = next_sig(ts_, open);
      if (lit != npos && ts_[lit].kind == TokenKind::kString) {
        const std::string text = strip_quotes(ts_[lit].text);
        if (name == "arm") {
          out_.armed_sites.push_back({out_.file, text, ts_[j].line});
        } else {
          // "site:prob[:kind[:param]],site2:..." — record each site.
          std::size_t pos = 0;
          while (pos <= text.size()) {
            const std::size_t comma = text.find(',', pos);
            std::string entry = text.substr(
                pos, comma == std::string::npos ? comma : comma - pos);
            const std::size_t colon = entry.find(':');
            if (colon != std::string::npos) entry.resize(colon);
            while (!entry.empty() && entry.front() == ' ') entry.erase(0, 1);
            if (!entry.empty()) {
              out_.armed_sites.push_back({out_.file, entry, ts_[j].line});
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
        }
      }
      // fall through to the generic call record
    }
    if (name == "counter" || name == "gauge" || name == "histogram") {
      const std::size_t lit = next_sig(ts_, open);
      if (lit != npos && ts_[lit].kind == TokenKind::kString) {
        out_.metrics.push_back(
            {out_.file, name, strip_quotes(ts_[lit].text), ts_[j].line});
      }
    }

    // Blocking primitives (DESIGN.md §9 lists this set verbatim).
    if (!receiver.empty() &&
        (name == "wait" || name == "wait_for" || name == "wait_until")) {
      // A condvar wait that names an open guard releases that guard for
      // the duration of the wait; only *other* held locks are a hazard.
      const auto args = arg_ranges(open, close);
      if (!args.empty()) {
        const std::size_t a0 = args[0].first;
        if (is_ident(ts_, a0) && next_sig(ts_, a0) >= args[0].second) {
          for (const GuardScope& g : guards) {
            if (!g.active || g.var != ts_[a0].text) continue;
            for (const LockRef& own : g.locks) std::erase(held, own);
            break;
          }
        }
      }
      fn.blocking.push_back({receiver + "." + name + "()", ts_[j].line,
                             ts_[j].col, held});
      return;
    }
    if (name == "sleep_for" || name == "sleep_until") {
      if (qualifier == "this_thread" || qualifier.empty()) {
        fn.blocking.push_back({"std::this_thread::" + name, ts_[j].line,
                               ts_[j].col, held});
        return;
      }
    }

    CallSite call;
    call.callee = name;
    call.qualifier = qualifier;
    call.receiver = receiver;
    call.line = ts_[j].line;
    call.col = ts_[j].col;
    call.held = std::move(held);

    if (name == "try_pop_for" || name == "try_push_for") {
      // A literal-zero timeout is a non-blocking probe by contract
      // (RequestScheduler::submit).
      const auto args = arg_ranges(open, close);
      if (!args.empty()) {
        const auto& [db, de] = args.back();
        for (std::size_t w = db; w < de; ++w) {
          if (ts_[w].kind == TokenKind::kNumber && ts_[w].text == "0") {
            call.zero_timeout = true;
            break;
          }
        }
      }
    }
    fn.calls.push_back(std::move(call));
  }
};

}  // namespace

FileFacts extract_facts(const SourceFile& file) {
  return Extractor(file).run();
}

void ProjectIndex::add(FileFacts facts,
                       std::shared_ptr<const SourceFile> file) {
  if (file != nullptr) sources_[facts.file] = std::move(file);
  files_.push_back(std::move(facts));
}

const SourceFile* ProjectIndex::source(const std::string& path) const {
  const auto it = sources_.find(path);
  return it == sources_.end() ? nullptr : it->second.get();
}

// --------------------------------------------------------- finalization --

struct ProjectIndex::Resolver {
  std::map<std::string, std::set<std::string>> mutex_classes;  // mu -> {cls}
  std::set<std::string> classes;
  std::map<std::string, std::set<std::string>> hints;  // var -> type idents
  std::vector<const FunctionFact*> fns;
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      by_cls_name;
  std::map<std::string, std::vector<std::size_t>> free_by_name;
  std::map<std::string, std::vector<std::size_t>> any_by_name;

  std::string resolve_lock(const LockRef& ref, const std::string& ctx_cls)
      const {
    const auto it = mutex_classes.find(ref.name);
    const std::set<std::string>* owners =
        it == mutex_classes.end() ? nullptr : &it->second;
    if (ref.receiver.empty()) {
      if (owners != nullptr) {
        if (!ctx_cls.empty() && owners->count(ctx_cls)) {
          return ctx_cls + "::" + ref.name;
        }
        if (owners->size() == 1 && !owners->begin()->empty()) {
          return *owners->begin() + "::" + ref.name;
        }
      }
      return "::" + ref.name;
    }
    if (classes.count(ref.receiver)) return ref.receiver + "::" + ref.name;
    const auto h = hints.find(ref.receiver);
    if (h != hints.end() && owners != nullptr) {
      for (const std::string& ti : h->second) {
        if (owners->count(ti)) return ti + "::" + ref.name;
      }
    }
    if (owners != nullptr && owners->size() == 1 &&
        !owners->begin()->empty()) {
      return *owners->begin() + "::" + ref.name;
    }
    return "?::" + ref.name;
  }

  // Conservative call resolution: ambiguity resolves to nothing.
  std::size_t resolve_call(const CallSite& c, const FunctionFact& caller)
      const {
    if (!c.qualifier.empty()) {
      const auto it = by_cls_name.find({c.qualifier, c.callee});
      if (it != by_cls_name.end() && it->second.size() == 1) {
        return it->second[0];
      }
      return npos;
    }
    if (!c.receiver.empty()) {
      const auto h = hints.find(c.receiver);
      if (h != hints.end()) {
        std::size_t found = npos;
        for (const std::string& ti : h->second) {
          const auto it = by_cls_name.find({ti, c.callee});
          if (it == by_cls_name.end() || it->second.size() != 1) continue;
          if (found != npos && found != it->second[0]) return npos;
          found = it->second[0];
        }
        if (found != npos) return found;
      }
      // Unique method name across every indexed class: unambiguous.
      const auto any = any_by_name.find(c.callee);
      if (any != any_by_name.end() && any->second.size() == 1 &&
          !fns[any->second[0]]->cls.empty()) {
        return any->second[0];
      }
      return npos;
    }
    const auto fr = free_by_name.find(c.callee);
    if (fr != free_by_name.end() && fr->second.size() == 1) {
      return fr->second[0];
    }
    if (!caller.cls.empty()) {  // implicit this->
      const auto it = by_cls_name.find({caller.cls, c.callee});
      if (it != by_cls_name.end() && it->second.size() == 1) {
        return it->second[0];
      }
    }
    const auto any = any_by_name.find(c.callee);
    if (any != any_by_name.end() && any->second.size() == 1) {
      return any->second[0];
    }
    return npos;
  }
};

namespace {

std::string qualname(const FunctionFact& fn) {
  return fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
}

}  // namespace

void ProjectIndex::finalize() {
  if (finalized_) return;
  finalized_ = true;

  std::sort(files_.begin(), files_.end(),
            [](const FileFacts& a, const FileFacts& b) {
              return a.file < b.file;
            });

  Resolver rv;
  std::map<std::string, std::set<std::string>> aliases;
  for (const FileFacts& ff : files_) {
    for (const std::string& c : ff.classes) rv.classes.insert(c);
    for (const MutexDecl& m : ff.mutexes) {
      if (m.is_condvar) continue;
      rv.mutex_classes[m.name].insert(m.cls);
      ++num_mutexes_;
    }
    for (const GuardedByDecl& g : ff.guarded_by) {
      rv.mutex_classes[g.mutex_name].insert(g.cls);
    }
    for (const auto& [var, idents] : ff.type_hints) {
      rv.hints[var].insert(idents.begin(), idents.end());
    }
    for (const auto& [name, rhs] : ff.aliases) {
      aliases[name].insert(rhs.begin(), rhs.end());
    }
    for (const FaultPoint& fp : ff.fault_points) fault_points_.push_back(fp);
    for (const ArmedSite& as : ff.armed_sites) armed_sites_.push_back(as);
    for (const IncludeEdge& ie : ff.includes) includes_.push_back(ie);
  }
  // Expand hints through `using` aliases (two rounds cover alias-of-alias).
  for (int round = 0; round < 2; ++round) {
    for (auto& [var, idents] : rv.hints) {
      std::set<std::string> extra;
      for (const std::string& id : idents) {
        const auto a = aliases.find(id);
        if (a != aliases.end()) extra.insert(a->second.begin(), a->second.end());
      }
      idents.insert(extra.begin(), extra.end());
    }
  }

  std::vector<FunctionFact*> fns;
  std::vector<char> fn_lib;
  for (FileFacts& ff : files_) {
    for (FunctionFact& fn : ff.functions) {
      fns.push_back(&fn);
      fn_lib.push_back(ff.library ? 1 : 0);
    }
  }
  num_functions_ = fns.size();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    rv.fns.push_back(fns[i]);
    if (fns[i]->is_lambda) continue;  // never a resolution target
    rv.by_cls_name[{fns[i]->cls, fns[i]->name}].push_back(i);
    rv.any_by_name[fns[i]->name].push_back(i);
    if (fns[i]->cls.empty()) rv.free_by_name[fns[i]->name].push_back(i);
    rv.classes.insert(fns[i]->cls.empty() ? std::string() : fns[i]->cls);
  }
  rv.classes.erase("");

  // Header ELREC_REQUIRES declarations attach to the .cpp definitions.
  for (const FileFacts& ff : files_) {
    for (const RequiresDecl& rd : ff.requires_decls) {
      const auto it = rv.by_cls_name.find({rd.cls, rd.name});
      if (it == rv.by_cls_name.end()) continue;
      for (const std::size_t fi : it->second) {
        for (const std::string& l : rd.locks) {
          auto& dst = fns[fi]->requires_locks;
          if (std::find(dst.begin(), dst.end(), l) == dst.end()) {
            dst.push_back(l);
          }
        }
      }
    }
  }

  // Resolve every call site once.
  std::vector<std::vector<std::size_t>> callees(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    callees[i].resize(fns[i]->calls.size(), npos);
    for (std::size_t c = 0; c < fns[i]->calls.size(); ++c) {
      ++num_calls_;
      callees[i][c] = rv.resolve_call(fns[i]->calls[c], *fns[i]);
      if (callees[i][c] != npos) ++num_resolved_calls_;
    }
  }

  // May-block fixpoint with a witness chain per function.
  struct BlockInfo {
    std::string what;
    std::string chain;  // "" for a direct primitive
  };
  std::vector<BlockInfo> block(fns.size());
  std::vector<char> may_block(fns.size(), 0);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (!fns[i]->blocking.empty()) {
      may_block[i] = 1;
      block[i] = {fns[i]->blocking.front().what, ""};
    }
  }
  // Transitive lock acquisition with a witness chain per (function, node).
  struct AcqInfo {
    std::string file;
    std::size_t line = 0;
    std::string chain;
  };
  std::vector<std::map<std::string, AcqInfo>> acq(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    for (const Acquire& a : fns[i]->acquires) {
      const std::string node = rv.resolve_lock(a.lock, fns[i]->cls);
      acq[i].emplace(node, AcqInfo{fns[i]->file, a.line, ""});
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < fns.size(); ++i) {
      for (std::size_t c = 0; c < fns[i]->calls.size(); ++c) {
        const std::size_t k = callees[i][c];
        if (k == npos) continue;
        const CallSite& cs = fns[i]->calls[c];
        if (!cs.zero_timeout && may_block[k] && !may_block[i]) {
          may_block[i] = 1;
          block[i] = {block[k].what,
                      qualname(*fns[k]) +
                          (block[k].chain.empty() ? "" : " -> " +
                                                            block[k].chain)};
          changed = true;
        }
        for (const auto& [node, info] : acq[k]) {
          if (acq[i].count(node)) continue;
          acq[i][node] = {fns[i]->file, cs.line,
                          qualname(*fns[k]) +
                              (info.chain.empty() ? "" : " -> " + info.chain)};
          changed = true;
        }
      }
    }
  }

  // Lock-order edges: direct acquisitions under held locks, plus calls
  // under held locks into functions that (transitively) acquire.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto add_edge = [&edges](std::string from, std::string to, LockEdge e) {
    const auto key = std::make_pair(from, to);
    e.from = std::move(from);
    e.to = std::move(to);
    const auto it = edges.find(key);
    if (it == edges.end() || e.witness < it->second.witness) {
      edges[key] = std::move(e);
    }
  };
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (!fn_lib[i]) continue;
    const FunctionFact& fn = *fns[i];
    for (const Acquire& a : fn.acquires) {
      const std::string to = rv.resolve_lock(a.lock, fn.cls);
      for (const LockRef& h : a.held) {
        const std::string from = rv.resolve_lock(h, fn.cls);
        LockEdge e;
        e.witness_file = fn.file;
        e.witness_line = a.line;
        e.witness = from + " -> " + to + " at " + fn.file + ":" +
                    std::to_string(a.line) + " (in " + qualname(fn) + ")";
        add_edge(from, to, std::move(e));
      }
    }
    for (std::size_t c = 0; c < fn.calls.size(); ++c) {
      const std::size_t k = callees[i][c];
      if (k == npos) continue;
      const CallSite& cs = fn.calls[c];
      if (cs.held.empty()) continue;
      for (const auto& [node, info] : acq[k]) {
        for (const LockRef& h : cs.held) {
          const std::string from = rv.resolve_lock(h, fn.cls);
          LockEdge e;
          e.witness_file = fn.file;
          e.witness_line = cs.line;
          e.witness = from + " -> " + node + " at " + fn.file + ":" +
                      std::to_string(cs.line) + " (in " + qualname(fn) +
                      ", via " + qualname(*fns[k]) +
                      (info.chain.empty() ? "" : " -> " + info.chain) + ")";
          add_edge(from, node, std::move(e));
        }
      }
    }
  }
  for (auto& [key, e] : edges) lock_edges_.push_back(std::move(e));

  // Cycle detection over the deduped edge set. Each elementary cycle is
  // reported once, rooted at its lexicographically smallest node: DFS
  // from every node in sorted order, restricted to nodes >= the root, and
  // every edge returning to the root closes one cycle (a self-edge —
  // re-acquiring a non-recursive mutex — is a length-1 cycle). The edge
  // set is tiny (one node per distinct mutex), so the search is cheap;
  // a step cap guards against pathological synthetic graphs.
  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const LockEdge& e : lock_edges_) adj[e.from].push_back(&e);
  for (const auto& [start, start_edges] : adj) {
    (void)start_edges;
    std::vector<const LockEdge*> path;
    std::set<std::string> on_path;
    std::size_t steps = 0;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          if (++steps > 100000) return;
          const auto it = adj.find(node);
          if (it == adj.end()) return;
          for (const LockEdge* e : it->second) {
            if (e->to == start) {
              std::vector<LockEdge> cycle;
              for (const LockEdge* pe : path) cycle.push_back(*pe);
              cycle.push_back(*e);
              cycles_.push_back(std::move(cycle));
              continue;
            }
            if (e->to < start || on_path.count(e->to)) continue;
            on_path.insert(e->to);
            path.push_back(e);
            dfs(e->to);
            path.pop_back();
            on_path.erase(e->to);
          }
        };
    dfs(start);
  }

  // Blocking-under-lock payloads (library code only).
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (!fn_lib[i]) continue;
    const FunctionFact& fn = *fns[i];
    for (const BlockingSite& bs : fn.blocking) {
      if (bs.held.empty()) continue;
      BlockingUnderLock b;
      b.file = fn.file;
      b.line = bs.line;
      b.col = bs.col;
      b.function = qualname(fn);
      b.what = bs.what;
      for (const LockRef& h : bs.held) {
        b.held.push_back(rv.resolve_lock(h, fn.cls));
      }
      std::sort(b.held.begin(), b.held.end());
      b.held.erase(std::unique(b.held.begin(), b.held.end()), b.held.end());
      blocking_.push_back(std::move(b));
    }
    for (std::size_t c = 0; c < fn.calls.size(); ++c) {
      const std::size_t k = callees[i][c];
      const CallSite& cs = fn.calls[c];
      if (k == npos || cs.held.empty() || cs.zero_timeout) continue;
      if (!may_block[k]) continue;
      BlockingUnderLock b;
      b.file = fn.file;
      b.line = cs.line;
      b.col = cs.col;
      b.function = qualname(fn);
      b.what = block[k].what;
      b.chain = qualname(*fns[k]) +
                (block[k].chain.empty() ? "" : " -> " + block[k].chain);
      for (const LockRef& h : cs.held) {
        b.held.push_back(rv.resolve_lock(h, fn.cls));
      }
      std::sort(b.held.begin(), b.held.end());
      b.held.erase(std::unique(b.held.begin(), b.held.end()), b.held.end());
      blocking_.push_back(std::move(b));
    }
  }
  std::sort(blocking_.begin(), blocking_.end(),
            [](const BlockingUnderLock& a, const BlockingUnderLock& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.col < b.col;
            });

  std::sort(fault_points_.begin(), fault_points_.end(),
            [](const FaultPoint& a, const FaultPoint& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  std::sort(armed_sites_.begin(), armed_sites_.end(),
            [](const ArmedSite& a, const ArmedSite& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  std::sort(includes_.begin(), includes_.end(),
            [](const IncludeEdge& a, const IncludeEdge& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
}

std::string ProjectIndex::lock_graph_dot() const {
  std::ostringstream out;
  out << "digraph lock_order {\n";
  std::set<std::string> nodes;
  for (const LockEdge& e : lock_edges_) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  for (const std::string& n : nodes) out << "  \"" << n << "\";\n";
  for (const LockEdge& e : lock_edges_) {
    out << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\""
        << e.witness_file << ":" << e.witness_line << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

std::string ProjectIndex::stats() const {
  std::size_t lambdas = 0;
  std::size_t fault_pts = fault_points_.size();
  std::size_t classes = 0;
  std::set<std::string> class_names;
  std::set<std::string> metric_names;
  for (const FileFacts& ff : files_) {
    for (const FunctionFact& fn : ff.functions) lambdas += fn.is_lambda;
    for (const std::string& c : ff.classes) class_names.insert(c);
    for (const MetricUse& m : ff.metrics) metric_names.insert(m.name);
  }
  classes = class_names.size();
  std::set<std::string> nodes;
  for (const LockEdge& e : lock_edges_) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  std::ostringstream out;
  out << "index: " << files_.size() << " files, " << num_functions_
      << " functions (" << lambdas << " lambdas), " << classes
      << " classes, " << num_mutexes_ << " mutex decls\n"
      << "calls: " << num_calls_ << " sites, " << num_resolved_calls_
      << " resolved cross-TU\n"
      << "locks: " << nodes.size() << " nodes, " << lock_edges_.size()
      << " order edges, " << cycles_.size() << " cycles\n"
      << "blocking-under-lock sites: " << blocking_.size() << "\n"
      << "fault points: " << fault_pts << ", armed sites: "
      << armed_sites_.size() << ", metric names: " << metric_names.size()
      << "\n"
      << "include edges: " << includes_.size() << "\n";
  return out.str();
}

}  // namespace elrec::analyze
