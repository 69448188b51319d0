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

struct SymbolScan {
  std::vector<Decl> decls;
  // Identifiers named outside the declaration or definition of an entity
  // that has that name.
  std::set<std::string> uses;
};

struct Token {
  std::string text;  // an identifier or one punctuation character
  int line = 0;
  [[nodiscard]] bool ident() const {
    return !text.empty() && (std::isalpha(static_cast<unsigned char>(text[0])) != 0 ||
                             text[0] == '_');
  }
};

// One pass over a comment-stripped file. Namespace-scope statements are
// buffered as tokens until their `;` or `{`, then classified: the names an
// entity declares or defines (its "owners": `X` for `class X`, `X` and `f`
// for `void X::f()`) do not count as uses inside that statement or the body
// it opens; every other identifier does.
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
    std::set<std::string> owners;
    int decl = -1;  // index into out_.decls of the header class this body defines
  };

  [[nodiscard]] bool at_namespace_scope() const {
    return scopes_.empty() || scopes_.back().is_namespace;
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

  void on_ident(std::string ident, const std::string& line, std::size_t begin, std::size_t end,
                int line_no) {
    if (at_namespace_scope()) {
      stmt_.push_back(Token{std::move(ident), line_no});
      return;
    }
    const Scope& scope = scopes_.back();
    if (scope.owners.count(ident) == 0) {
      out_.uses.insert(std::move(ident));
      return;
    }
    // `X(` inside class X's body, not `~X(`: a user-declared constructor.
    if (scope.decl < 0) return;
    const std::size_t next = line.find_first_not_of(" \t", end);
    const std::size_t prev = begin == 0 ? std::string::npos : line.find_last_not_of(" \t", begin - 1);
    if (next != std::string::npos && line[next] == '(' &&
        (prev == std::string::npos || line[prev] != '~')) {
      out_.decls[scope.decl].candidate = true;
    }
  }

  void on_punct(char c, int line_no) {
    if (!at_namespace_scope()) {
      if (c == '{') {
        Scope inner = scopes_.back();
        inner.is_namespace = false;
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
      if (!scopes_.empty()) scopes_.pop_back();
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
    // template <...> prefixes.
    while (k + 1 < toks.size() && toks[k].text == "template" && toks[k + 1].text == "<") {
      k = skip_angles(toks, k + 1);
    }
    const auto word = [&](std::size_t at) -> const std::string& {
      static const std::string kNone;
      return at < toks.size() ? toks[at].text : kNone;
    };
    if (word(k) == "namespace" || (word(k) == "inline" && word(k + 1) == "namespace")) {
      scope.is_namespace = true;
    } else if (word(k) == "class" || word(k) == "struct") {
      const std::size_t name_at = k + 1;
      if (name_at < toks.size() && toks[name_at].ident()) {
        scope.owners.insert(toks[name_at].text);
        if (opens_body && header_) {
          scope.decl = static_cast<int>(out_.decls.size());
          out_.decls.push_back(Decl{toks[name_at].text, toks[name_at].line,
                                    word(k) == "class" || has_base_clause(toks, name_at + 1)});
        }
      }
    } else if (word(k) == "using") {  // an alias does not use what it renames
      for (const auto& t : toks) {
        if (t.text == "=") {
          scope.owners.insert(word(k + 1));
          break;
        }
      }
    } else {
      classify_function(toks, k, scope);
    }
    for (auto& t : toks) {
      if (t.ident() && scope.owners.count(t.text) == 0) out_.uses.insert(std::move(t.text));
    }
    return scope;
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

  const std::vector<std::string>& code_;
  bool header_;
  std::vector<Scope> scopes_;
  std::vector<Token> stmt_;
  SymbolScan out_;
};

// The scan root's files, the roots beside it, and what the roots include.
struct Tree {
  std::map<std::string, std::vector<std::string>> src;    // path under src_dir -> lines
  std::map<std::string, std::vector<std::string>> roots;  // tree path -> lines
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

// True when an allow(rule) sits in the comment block above a file's first
// line of code.
bool allowed_at_top(const CleanSource& src, const std::string& rule) {
  for (std::size_t li = 0; li < src.lines.size(); ++li) {
    if (src.allows[li].count(rule) > 0) return true;
    if (src.lines[li].find_first_not_of(" \t") != std::string::npos) return false;
  }
  return false;
}

std::string display(const std::string& prefix, const std::string& path) {
  return prefix.empty() ? path : prefix + "/" + path;
}

}  // namespace

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

void check_reachability(const std::vector<std::string>& tree_files, const std::string& src_dir,
                        const FileProvider& provider, const std::string& display_prefix,
                        Sink& sink) {
  const Tree tree = load_tree(tree_files, src_dir, provider);
  std::map<std::string, CleanSource> clean;
  for (const auto& [path, lines] : tree.src) clean[path] = strip_comments(lines);

  // An allowed module counts as reached: what it includes and names is used.
  const std::set<std::string> from_roots = close_over(tree, tree.seeds);
  std::set<std::string> allowed_modules;
  std::vector<std::string> seeds = tree.seeds;
  for (const auto& [path, src] : clean) {
    if (!is_header(path) || from_roots.count(path) > 0) continue;
    if (!allowed_at_top(src, "unreached-module")) continue;
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
  for (const auto& path : reached) {
    const bool header = is_header(path) && allowed_modules.count(path) == 0;
    SymbolScan scan = SymbolScanner(clean.at(path).lines, header).run();
    uses.insert(scan.uses.begin(), scan.uses.end());
    if (header) decls[path] = std::move(scan.decls);
  }
  for (const auto& [path, lines] : tree.roots) {
    SymbolScan scan = SymbolScanner(strip_comments(lines).lines, false).run();
    uses.insert(scan.uses.begin(), scan.uses.end());
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
}

}  // namespace tsn::analyze
