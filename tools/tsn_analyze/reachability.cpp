#include "reachability.hpp"

#include <cctype>
#include <filesystem>
#include <map>
#include <utility>

namespace tsn::analyze {

namespace {

std::string without_extension(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) return path;
  return path.substr(0, dot);
}

const std::vector<std::string> kSourceExtensions = {".cpp", ".cc"};

// Words that can sit right before a '(' at namespace scope without naming
// a function: `void (*fp)(int)`, `decltype(x) y`, `static_assert(...)`.
const std::set<std::string> kNotFunctionNames = {
    "alignas", "alignof", "auto",    "bool",     "char",   "const",   "decltype",
    "double",  "float",   "int",     "long",     "noexcept", "requires", "short",
    "signed",  "sizeof",  "static_assert", "unsigned", "void", "volatile"};

bool looks_like_macro(const std::string& name) {
  for (const char c : name) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

// A namespace-scope function or class declared in a header. A class is a
// candidate when it is declared with `class`, has a base, or has a
// user-declared constructor; a `struct` with none of these is plain data.
struct Decl {
  std::string name;
  int line = 0;
  bool candidate = true;
};

// A member function declared in a class body in a header.
struct MemberDecl {
  std::string cls;
  std::string name;
  int line = 0;
  bool is_virtual = false;   // declared `virtual` or pure
  bool is_override = false;  // declared `override` or `final`
  bool observer = false;     // a plain observer (see the header comment)
};

struct SymbolScan {
  std::vector<Decl> decls;
  // Identifiers named outside the declaration or definition of an entity
  // that has that name (a member function's declaration included).
  std::set<std::string> uses;
  std::vector<MemberDecl> members;
  // Names called as members: `f` for `.f(` and `->f(`, `Q::f` for `Q::f`.
  std::set<std::string> member_calls;
  // Names called unqualified, `f(`, outside a declaration of that name.
  std::set<std::string> plain_calls;
};

struct Token {
  std::string text;  // an identifier or one punctuation character
  int line = 0;
  [[nodiscard]] bool ident() const {
    return !text.empty() && (std::isalpha(static_cast<unsigned char>(text[0])) != 0 ||
                             text[0] == '_');
  }
};

// One pass over a comment-stripped file. Namespace-scope and class-body
// statements are buffered as tokens until their `;` or `{`, then
// classified: the names an entity declares or defines (its "owners": `X`
// for `class X`, `X` and `f` for `void X::f()`, `f` for a member function
// declared in a class body) do not count as uses inside that statement or
// the body it opens; every other identifier does.
class SymbolScanner {
 public:
  SymbolScanner(const std::vector<std::string>& code, bool header)
      : code_(code), header_(header) {}

  SymbolScan run() {
    bool continuation = false;
    for (std::size_t li = 0; li < code_.size(); ++li) {
      const std::string& line = code_[li];
      const std::size_t first = line.find_first_not_of(" \t");
      const bool directive = continuation || (first != std::string::npos && line[first] == '#');
      continuation = !line.empty() && line.back() == '\\';
      scan_line(line, static_cast<int>(li) + 1, directive);
    }
    return std::move(out_);
  }

 private:
  struct Scope {
    bool is_namespace = false;
    std::string cls;  // set for a class body, whose statements declare members
    std::set<std::string> owners;
    int decl = -1;    // index into out_.decls of the header class this body defines
    int member = -1;  // index into out_.members of the member this body defines
  };

  // True where statements are buffered: namespace scope and class bodies.
  [[nodiscard]] bool at_statement_scope() const {
    return scopes_.empty() || scopes_.back().is_namespace || !scopes_.back().cls.empty();
  }

  void scan_line(const std::string& line, int line_no, bool directive) {
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
        std::size_t end = i;
        while (end < line.size() && is_ident_char(line[end])) ++end;
        std::string ident = line.substr(i, end - i);
        if (directive) {
          out_.uses.insert(std::move(ident));
        } else {
          on_ident(std::move(ident), line, i, end, line_no);
        }
        i = end;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {  // 10'000ull, 1.5e3, 0x1f
        while (i < line.size() && (is_ident_char(line[i]) || line[i] == '\'' || line[i] == '.')) {
          ++i;
        }
        continue;
      }
      if (!directive && std::isspace(static_cast<unsigned char>(c)) == 0) on_punct(c, line_no);
      ++i;
    }
  }

  // The first character after `end` past spaces and one `<...>` template
  // argument list on the same line, so `f<T>(` reads as a call like `f(`.
  static std::size_t after_template_args(const std::string& line, std::size_t end) {
    std::size_t next = line.find_first_not_of(" \t", end);
    if (next == std::string::npos || line[next] != '<') return next;
    int depth = 0;
    for (std::size_t i = next; i < line.size(); ++i) {
      if (line[i] == '<') ++depth;
      if (line[i] == '>' && --depth == 0) return line.find_first_not_of(" \t", i + 1);
      if (line[i] == ';' || line[i] == '{' || line[i] == ')') break;
    }
    return next;
  }

  void on_ident(std::string ident, const std::string& line, std::size_t begin, std::size_t end,
                int line_no) {
    if (at_statement_scope()) {
      stmt_.push_back(Token{std::move(ident), line_no});
      return;
    }
    const Scope& scope = scopes_.back();
    if (scope.member >= 0) bodies_[scope.member].push_back(ident);
    const std::size_t next = line.find_first_not_of(" \t", end);
    const std::size_t prev = begin == 0 ? std::string::npos : line.find_last_not_of(" \t", begin - 1);
    const char before = prev == std::string::npos ? '\0' : line[prev];
    const char before2 = prev == std::string::npos || prev == 0 ? '\0' : line[prev - 1];
    // A member call names another object's member, even one that shares
    // the name of the function whose body this is.
    const std::size_t args = after_template_args(line, end);
    const bool call = args != std::string::npos && line[args] == '(';
    if (call && ((before == '.' && before2 != '.') || (before == '>' && before2 == '-'))) {
      out_.member_calls.insert(ident);
    }
    const bool qualified = before == ':' && before2 == ':';
    if (scope.owners.count(ident) == 0) {
      if (call && before != '.' && before != '>' && !qualified) out_.plain_calls.insert(ident);
      if (qualified && prev >= 2) {
        const std::size_t q_end = line.find_last_not_of(" \t", prev - 2);
        if (q_end != std::string::npos && is_ident_char(line[q_end])) {
          std::size_t q_begin = q_end + 1;
          while (q_begin > 0 && is_ident_char(line[q_begin - 1])) --q_begin;
          out_.member_calls.insert(line.substr(q_begin, q_end + 1 - q_begin) + "::" + ident);
        }
      }
      out_.uses.insert(std::move(ident));
      return;
    }
    // `X(` inside class X's body, not `~X(`: a user-declared constructor.
    if (scope.decl < 0) return;
    if (next != std::string::npos && line[next] == '(' && before != '~') {
      out_.decls[scope.decl].candidate = true;
    }
  }

  void on_punct(char c, int line_no) {
    if (!at_statement_scope()) {
      // The `}` that closes a member's body is not part of it.
      if (scopes_.back().member >= 0 && c != '}') bodies_[scopes_.back().member].emplace_back(1, c);
      if (c == '{') {
        Scope inner = scopes_.back();
        inner.member = -1;
        scopes_.push_back(std::move(inner));
      } else if (c == '}') {
        scopes_.pop_back();
      }
      return;
    }
    if (c == '{') {
      scopes_.push_back(close_statement(true));
    } else if (c == ';') {
      (void)close_statement(false);
    } else if (c == '}') {
      if (!scopes_.empty()) {
        if (!scopes_.back().cls.empty()) finish_class(scopes_.back().cls);
        scopes_.pop_back();
      }
      stmt_.clear();
    } else {
      stmt_.push_back(Token{std::string(1, c), line_no});
    }
  }

  // Classifies the buffered statement, records uses and any declaration,
  // and returns the scope a following body would open.
  Scope close_statement(bool opens_body) {
    std::vector<Token> toks = strip_attributes(std::move(stmt_));
    stmt_.clear();
    Scope scope;
    std::size_t k = 0;
    const bool in_class = !scopes_.empty() && !scopes_.back().cls.empty();
    if (in_class) {  // a body opened here keeps the class's owners
      scope.owners = scopes_.back().owners;
      scope.decl = scopes_.back().decl;
      k = skip_access_labels(toks);
    }
    // template <...> prefixes.
    while (k + 1 < toks.size() && toks[k].text == "template" && toks[k + 1].text == "<") {
      k = skip_angles(toks, k + 1);
    }
    const auto word = [&](std::size_t at) -> const std::string& {
      static const std::string kNone;
      return at < toks.size() ? toks[at].text : kNone;
    };
    const std::set<std::string> class_owners = scope.owners;
    if (word(k) == "namespace" || (word(k) == "inline" && word(k + 1) == "namespace")) {
      scope.is_namespace = true;
    } else if (word(k) == "class" || word(k) == "struct") {
      const std::size_t name_at = k + 1;
      if (name_at < toks.size() && toks[name_at].ident()) {
        if (opens_body && header_) scope.cls = toks[name_at].text;
        if (!in_class) scope.owners.insert(toks[name_at].text);
        if (opens_body && header_ && !in_class) {
          scope.decl = static_cast<int>(out_.decls.size());
          out_.decls.push_back(Decl{toks[name_at].text, toks[name_at].line,
                                    word(k) == "class" || has_base_clause(toks, name_at + 1)});
        }
      }
    } else if (word(k) == "using" && !in_class) {  // an alias does not use what it renames
      for (const auto& t : toks) {
        if (t.text == "=") {
          scope.owners.insert(word(k + 1));
          break;
        }
      }
    } else if (in_class) {
      classify_member(toks, k, opens_body, scope);
    } else {
      classify_function(toks, k, scope);
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (!t.ident()) continue;
      if (scope.owners.count(t.text) > 0) {
        // `X(` in class X's body, not `~X(`: a user-declared constructor.
        if (in_class && scope.decl >= 0 && class_owners.count(t.text) > 0 &&
            word(i + 1) == "(" && (i == 0 || toks[i - 1].text != "~")) {
          out_.decls[scope.decl].candidate = true;
        }
        continue;
      }
      note_member_call(toks, i);
      out_.uses.insert(t.text);
    }
    return scope;
  }

  // Records `.f(`, `->f(`, `Q::f` and `f(` at token `i`; `f<T>(` is a call.
  void note_member_call(const std::vector<Token>& toks, std::size_t i) {
    std::size_t next = i + 1;
    if (word_at(toks, next) == "<") next = skip_angles(toks, next);
    const bool call = word_at(toks, next) == "(";
    const std::string& before = i >= 1 ? toks[i - 1].text : kEmpty;
    const std::string& before2 = i >= 2 ? toks[i - 2].text : kEmpty;
    if (call && ((before == "." && before2 != ".") || (before == ">" && before2 == "-"))) {
      out_.member_calls.insert(toks[i].text);
    } else if (call && before != "." && before != ">" && !(before == ":" && before2 == ":")) {
      out_.plain_calls.insert(toks[i].text);
    }
    if (before == ":" && before2 == ":" && i >= 3 && toks[i - 3].ident()) {
      out_.member_calls.insert(toks[i - 3].text + "::" + toks[i].text);
    }
  }

  // A statement in a class body: a member function declaration or
  // definition is recorded, with its name as an owner; data members are
  // remembered for the plain-observer check. Constructors, destructors,
  // operators, friends and deleted or defaulted functions are not members
  // in this rule's sense.
  void classify_member(const std::vector<Token>& toks, std::size_t k, bool opens_body,
                       Scope& scope) {
    static const std::set<std::string> kSkip = {"friend", "typedef", "static_assert", "enum",
                                                "using"};
    if (k >= toks.size() || kSkip.count(toks[k].text) > 0) return;
    int angle = 0;
    std::size_t paren = std::string::npos;
    std::size_t stop = toks.size();  // where a data member's declarator ends
    for (std::size_t i = k; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "operator") return;
      if (t == "<") ++angle;
      if (t == ">" && angle > 0) --angle;
      if (angle > 0) continue;
      if (t == "=" || t == "[" || (t == ":" && word_at(toks, i + 1) != ":" &&
                                   word_at(toks, i - 1) != ":")) {
        stop = i;
        break;
      }
      if (t == "(") {
        paren = i;
        break;
      }
    }
    if (paren == std::string::npos) {
      for (std::size_t i = stop; i > k; --i) {
        if (toks[i - 1].ident()) {
          data_members_.insert(toks[i - 1].text);
          break;
        }
      }
      return;
    }
    if (paren == k || !toks[paren - 1].ident()) return;
    const Token& name = toks[paren - 1];
    const std::string& cls = scopes_.back().cls;
    if (name.text == cls || (paren >= k + 2 && toks[paren - 2].text == "~")) return;
    if (kNotFunctionNames.count(name.text) > 0 || looks_like_macro(name.text)) return;
    MemberDecl member{cls, name.text, name.line};
    bool is_const = false;
    int depth = 0;
    // A pure specifier's 0 never becomes a token (numbers are skipped), so
    // `virtual f() = 0;` ends in a bare `=`.
    if (toks.back().text == "=") member.is_virtual = true;
    for (std::size_t i = k; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "virtual") member.is_virtual = true;
      if (i < paren) continue;
      if (t == "(") ++depth;
      if (t == ")") --depth;
      if (depth > 0 || i == paren) continue;
      if (t == "const") is_const = true;
      if (t == "override" || t == "final") member.is_override = true;
      if (t == "=" && (word_at(toks, i + 1) == "delete" || word_at(toks, i + 1) == "default")) {
        return;
      }
    }
    scope.owners.insert(name.text);
    // Only a const member's inline body can make it a plain observer.
    if (opens_body && is_const) scope.member = static_cast<int>(out_.members.size());
    bodies_.emplace_back();
    out_.members.push_back(std::move(member));
  }

  // At the end of class `cls`'s body: its inline const members whose body is
  // `return m;` or `return m.f().g();` over a data member `m` are plain
  // observers.
  void finish_class(const std::string& cls) {
    for (std::size_t i = 0; i < out_.members.size(); ++i) {
      if (out_.members[i].cls != cls) continue;
      const std::vector<std::string>& body = bodies_[i];
      if (body.size() < 3 || body.front() != "return" || body.back() != ";" ||
          data_members_.count(body[1]) == 0) {
        continue;
      }
      std::size_t at = 2;
      while (at + 3 < body.size()) {
        std::size_t access = body[at] == "." ? 1 : (body[at] == "-" && body[at + 1] == ">") ? 2 : 0;
        if (access == 0 || at + access + 2 >= body.size()) break;
        const std::size_t call = at + access;
        if (body[call + 1] != "(" || body[call + 2] != ")") break;
        at = call + 3;
      }
      out_.members[i].observer = at + 1 == body.size();
    }
  }

  static const std::string& word_at(const std::vector<Token>& toks, std::size_t at) {
    return at < toks.size() ? toks[at].text : kEmpty;
  }

  // `public:`, `private:`, `protected:` before a class-body statement.
  static std::size_t skip_access_labels(const std::vector<Token>& toks) {
    std::size_t k = 0;
    while (k + 1 < toks.size() &&
           (toks[k].text == "public" || toks[k].text == "private" ||
            toks[k].text == "protected") &&
           toks[k + 1].text == ":" && word_at(toks, k + 2) != ":") {
      k += 2;
    }
    return k;
  }

  // `ret name(...)`, `ret A::B::name(...)`, `A::operator==(...)`: the
  // declarator names are the owners; an unqualified name in a header is a
  // free-function declaration.
  void classify_function(const std::vector<Token>& toks, std::size_t k, Scope& scope) {
    int angle = 0;
    std::size_t paren = std::string::npos;
    for (std::size_t i = k; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "operator") {
        paren = i;  // the owners are the qualifiers before the operator
        break;
      }
      if (t == "<") ++angle;
      if (t == ">" && angle > 0) --angle;
      if (angle > 0) continue;
      if (t == "=") return;  // a variable's initializer
      if (t == "(") {
        paren = i;
        break;
      }
    }
    if (paren == std::string::npos || paren == k) return;
    const bool is_operator = toks[paren].text == "operator";
    std::vector<std::string> chain;  // declarator names, innermost first
    int name_line = 0;
    std::size_t end = paren;   // one past the name being read
    bool read = !is_operator;  // `operator` is not a name; its qualifiers are
    while (end > k) {
      std::size_t at = end - 1;
      if (read) {
        if (toks[at].text == ">") {  // A<T>::f
          for (int depth = 0; at > k; --at) {
            if (toks[at].text == ">") ++depth;
            if (toks[at].text == "<" && --depth == 0) break;
          }
          if (at == k) break;
          --at;
        }
        if (!toks[at].ident()) break;
        if (chain.empty()) name_line = toks[at].line;
        chain.push_back(toks[at].text);
        if (at > k && toks[at - 1].text == "~") --at;  // destructor
        end = at;
      }
      read = true;
      if (end < k + 2 || toks[end - 1].text != ":" || toks[end - 2].text != ":") break;
      end -= 2;
    }
    if (chain.empty()) return;
    const std::string& name = chain.front();
    if (!is_operator && (kNotFunctionNames.count(name) > 0 || looks_like_macro(name))) return;
    scope.owners.insert(chain.begin(), chain.end());
    if (header_ && !is_operator && chain.size() == 1) out_.decls.push_back(Decl{name, name_line});
  }

  static std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (toks[i].text == "<") ++depth;
      if (toks[i].text == ">" && --depth == 0) return i + 1;
    }
    return toks.size();
  }

  // Drops `[[...]]` attributes, which sit between keywords and names.
  static std::vector<Token> strip_attributes(std::vector<Token> toks) {
    std::vector<Token> out;
    out.reserve(toks.size());
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "[" && i + 1 < toks.size() && toks[i + 1].text == "[") {
        while (i + 1 < toks.size() && !(toks[i].text == "]" && toks[i + 1].text == "]")) ++i;
        ++i;
        continue;
      }
      out.push_back(std::move(toks[i]));
    }
    return out;
  }

  // A single ':' after the class name opens a base clause; `::` does not.
  static bool has_base_clause(const std::vector<Token>& toks, std::size_t from) {
    for (std::size_t i = from; i < toks.size(); ++i) {
      if (toks[i].text != ":") continue;
      const bool before = i > 0 && toks[i - 1].text == ":";
      const bool after = i + 1 < toks.size() && toks[i + 1].text == ":";
      if (!before && !after) return true;
      if (after) ++i;
    }
    return false;
  }

  static inline const std::string kEmpty;

  const std::vector<std::string>& code_;
  bool header_;
  std::vector<Scope> scopes_;
  std::vector<Token> stmt_;
  SymbolScan out_;
  // Per member, parallel to out_.members: the tokens of its inline body
  // when it is const, else nothing.
  std::vector<std::vector<std::string>> bodies_;
  std::set<std::string> data_members_;  // of every class in the file so far
};

// The scan root's files, the roots beside it, and what the roots include.
struct Tree {
  std::map<std::string, std::vector<std::string>> src;    // path under src_dir -> lines
  std::map<std::string, std::vector<std::string>> roots;  // tree path -> lines
  std::map<std::string, std::vector<std::string>> tests;  // tree path -> lines
  IncludeGraph graph;                                      // over src
  std::vector<std::string> seeds;                          // src files a root includes
};

Tree load_tree(const std::vector<std::string>& tree_files, const std::string& src_dir,
               const FileProvider& provider) {
  Tree tree;
  const std::string prefix = src_dir + "/";
  for (const auto& file : tree_files) {
    std::vector<std::string> lines;
    if (file.compare(0, prefix.size(), prefix) == 0) {
      if (provider(file, lines)) tree.src[file.substr(prefix.size())] = std::move(lines);
    } else if (is_reach_root(file) && provider(file, lines)) {
      tree.roots[file] = std::move(lines);
    } else if (file.rfind(std::string{kTestDir} + "/", 0) == 0 && provider(file, lines)) {
      tree.tests[file] = std::move(lines);
    }
  }
  std::vector<std::string> src_files;
  for (const auto& [path, _] : tree.src) src_files.push_back(path);
  const auto& src = tree.src;
  tree.graph = build_include_graph(src_files, [&src](const std::string& rel,
                                                     std::vector<std::string>& lines) {
    const auto it = src.find(rel);
    if (it == src.end()) return false;
    lines = it->second;
    return true;
  });
  for (const auto& [path, lines] : tree.roots) {
    const std::string dir = std::filesystem::path(path).parent_path().generic_string();
    for (const auto& edge : quoted_includes(lines)) {
      // A root's own neighbours shadow src/, as they do for the compiler.
      if (tree.roots.count(dir + "/" + edge.to) > 0) continue;
      if (src.count(edge.to) > 0) tree.seeds.push_back(edge.to);
    }
  }
  return tree;
}

// Transitive closure over resolved includes, a header also reaching its
// paired source file.
std::set<std::string> close_over(const Tree& tree, std::vector<std::string> work) {
  std::set<std::string> reached;
  while (!work.empty()) {
    std::string file = std::move(work.back());
    work.pop_back();
    if (!reached.insert(file).second) continue;
    if (const auto it = tree.graph.edges.find(file); it != tree.graph.edges.end()) {
      for (const auto& edge : it->second) {
        if (edge.resolved) work.push_back(edge.to);
      }
    }
    if (!is_header(file)) continue;
    for (const auto& ext : kSourceExtensions) {
      const std::string paired = without_extension(file) + ext;
      if (tree.src.count(paired) > 0) work.push_back(paired);
    }
  }
  return reached;
}

std::string display(const std::string& prefix, const std::string& path) {
  return prefix.empty() ? path : prefix + "/" + path;
}

}  // namespace

bool module_kept_by_allow(const CleanSource& header) {
  for (std::size_t li = 0; li < header.lines.size(); ++li) {
    if (header.allows[li].count("unreached-module") > 0) return true;
    if (header.lines[li].find_first_not_of(" \t") != std::string::npos) return false;
  }
  return false;
}

bool is_reach_root(std::string_view tree_path) {
  if (tree_path.rfind("tools/tsn_analyze/corpus/", 0) == 0) return false;
  for (const auto dir : kReachRootDirs) {
    if (tree_path.size() > dir.size() && tree_path.compare(0, dir.size(), dir) == 0 &&
        tree_path[dir.size()] == '/') {
      return true;
    }
  }
  return false;
}

std::set<std::string> reached_files(const std::vector<std::string>& tree_files,
                                    const std::string& src_dir, const FileProvider& provider) {
  const Tree tree = load_tree(tree_files, src_dir, provider);
  return close_over(tree, tree.seeds);
}

std::size_t check_reachability(const std::vector<std::string>& tree_files,
                               const std::string& src_dir, const FileProvider& provider,
                               const std::string& display_prefix, Sink& sink) {
  const Tree tree = load_tree(tree_files, src_dir, provider);
  std::map<std::string, CleanSource> clean;
  for (const auto& [path, lines] : tree.src) clean[path] = strip_comments(lines);

  // An allowed module counts as reached: what it includes and names is used.
  const std::set<std::string> from_roots = close_over(tree, tree.seeds);
  std::set<std::string> allowed_modules;
  std::vector<std::string> seeds = tree.seeds;
  for (const auto& [path, src] : clean) {
    if (!is_header(path) || from_roots.count(path) > 0) continue;
    if (!module_kept_by_allow(src)) continue;
    sink.suppress("unreached-module");
    allowed_modules.insert(path);
    seeds.push_back(path);
  }
  const std::set<std::string> reached = close_over(tree, seeds);

  for (const auto& [path, _] : tree.src) {
    if (reached.count(path) > 0) continue;
    const std::string stem = without_extension(path);
    if (!is_header(path) && (tree.src.count(stem + ".hpp") + tree.src.count(stem + ".h")) > 0) {
      continue;  // reported once, on its header
    }
    sink.emit(Finding{display(display_prefix, path), 1, "unreached-module",
                      "no file under bench/, examples/, perfbench/ or tools/ includes this "
                      "module, directly or through other src/ files (tests/ do not count); "
                      "delete it with the tests that cover only it, or put "
                      "`// tsn-lint: allow(unreached-module) <reason>` at the top of the "
                      "header"});
  }

  std::set<std::string> uses;
  std::map<std::string, std::vector<Decl>> decls;  // header -> its declarations
  std::map<std::string, std::vector<MemberDecl>> members;  // header -> its member functions
  std::set<std::string> calls;       // member calls from reached non-test files
  std::set<std::string> test_calls;  // member calls from tests/
  std::map<std::string, std::set<std::string>> own_calls;  // module stem -> its files' f( calls
  for (const auto& path : reached) {
    const bool header = is_header(path) && allowed_modules.count(path) == 0;
    SymbolScan scan = SymbolScanner(clean.at(path).lines, header).run();
    own_calls[without_extension(path)].insert(scan.plain_calls.begin(), scan.plain_calls.end());
    uses.insert(scan.uses.begin(), scan.uses.end());
    calls.insert(scan.member_calls.begin(), scan.member_calls.end());
    if (header) {
      decls[path] = std::move(scan.decls);
      members[path] = std::move(scan.members);
    }
  }
  for (const auto& [path, lines] : tree.roots) {
    SymbolScan scan = SymbolScanner(strip_comments(lines).lines, false).run();
    uses.insert(scan.uses.begin(), scan.uses.end());
    calls.insert(scan.member_calls.begin(), scan.member_calls.end());
  }
  for (const auto& [path, lines] : tree.tests) {
    SymbolScan scan = SymbolScanner(strip_comments(lines).lines, false).run();
    test_calls.insert(scan.member_calls.begin(), scan.member_calls.end());
  }
  for (const auto& [path, header_decls] : decls) {
    for (const auto& decl : header_decls) {
      if (!decl.candidate) continue;
      if (uses.count(decl.name) > 0) continue;
      if (allowed_at(clean.at(path), decl.line, "unreached-symbol")) {
        sink.suppress("unreached-symbol");
        continue;
      }
      sink.emit(Finding{display(display_prefix, path), decl.line, "unreached-symbol",
                        "'" + decl.name +
                            "' is named by no reached file outside its own declaration and "
                            "definitions (tests/ do not count); delete it with the tests "
                            "that cover only it, or put "
                            "`// tsn-lint: allow(unreached-symbol) <reason>` on its "
                            "declaration"});
    }
  }

  // unreached-member: a member is reached through a member call from a
  // reached non-test file, or an unqualified call from its class's own
  // header or source file; an override is reached when a virtual of its
  // name is.
  const auto called = [](const std::set<std::string>& from, const MemberDecl& m) {
    return from.count(m.name) > 0 || from.count(m.cls + "::" + m.name) > 0;
  };
  const auto reached_member = [&](const std::string& path, const MemberDecl& m) {
    return called(calls, m) || own_calls[without_extension(path)].count(m.name) > 0;
  };
  std::set<std::string> virtuals_reached;
  std::size_t scanned = 0;
  for (const auto& [path, header_members] : members) {
    scanned += header_members.size();
    for (const auto& m : header_members) {
      if (m.is_virtual && !m.is_override && reached_member(path, m)) {
        virtuals_reached.insert(m.name);
      }
    }
  }
  for (const auto& [path, header_members] : members) {
    for (const auto& m : header_members) {
      if (reached_member(path, m)) continue;
      if (m.is_override && virtuals_reached.count(m.name) > 0) continue;
      const bool tested = called(test_calls, m);
      if (tested && m.observer) continue;
      if (allowed_at(clean.at(path), m.line, "unreached-member")) {
        sink.suppress("unreached-member");
        continue;
      }
      sink.emit(Finding{
          display(display_prefix, path), m.line, "unreached-member",
          "'" + m.cls + "::" + m.name + "' " +
              (tested ? "is called only from tests/ and is not a plain observer"
                      : "is called from no file in any tree, tests/ included") +
              "; delete it with the tests that cover only it, or put "
              "`// tsn-lint: allow(unreached-member) <reason>` on its declaration, naming the "
              "drill or invariant that needs it"});
    }
  }
  return scanned;
}

}  // namespace tsn::analyze
