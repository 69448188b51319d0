// Hot-path allocation rules. Functions marked with `// tsn-lint: hotpath`
// (on the signature line or one of the lines directly above it) must not
// touch the heap once the pools are warm: PR 3's counting-allocator test
// proves this at runtime for the paths its drills happen to cover; this rule
// makes the discipline statically exhaustive for every marked region.
//
// Banned inside a hotpath function (rule `hotpath-alloc`):
//
//   new / delete            including `::operator new`; placement-new into a
//                           pool slot (`new (slot) T{...}`) is allowed.
//   malloc family           malloc / calloc / realloc / strdup.
//   make_unique/make_shared fresh control blocks; pooled allocate_shared
//                           through a PoolAllocator is the sanctioned idiom.
//   push_back/emplace_back  unless the same file reserves that container
//                           (`X.reserve(...)` anywhere in the file — warm-up
//                           methods like Engine::reserve count as evidence).
//   std::string and local   container construction (string, vector, map,
//                           set, deque, list, function) by value.
//
// Known limitation (documented in DESIGN.md): node allocations hidden behind
// map/list insert/emplace are invisible to a token scanner; the runtime
// counting-allocator test remains the backstop for those.
#include <cctype>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "rules.hpp"

namespace tsn::analyze {

namespace {

const std::string_view kLocalContainerTokens[] = {
    "std::vector", "std::map", "std::unordered_map", "std::set",
    "std::unordered_set", "std::deque", "std::list", "std::function",
};

class HotpathScanner {
 public:
  HotpathScanner(std::string file, const std::vector<std::string>& raw, Sink& sink)
      : file_(std::move(file)), src_(strip_comments(raw)), sink_(sink) {}

  void run() {
    harvest_reserve_evidence();
    for (std::size_t li = 0; li < src_.lines.size(); ++li) {
      const std::string& line = src_.lines[li];
      const int line_no = static_cast<int>(li) + 1;
      if (src_.hotpath_marks[li]) marker_armed_ = true;
      if (in_hotpath()) scan_line(line, li, line_no);
      process_braces(line);
    }
  }

 private:
  // Any `X.reserve(` in the file blesses push_back/emplace_back on `X`:
  // warm-up happens in a reserve() method, not next to every push.
  void harvest_reserve_evidence() {
    for (const auto& line : src_.lines) {
      std::size_t pos = 0;
      while ((pos = line.find(".reserve(", pos)) != std::string::npos) {
        std::size_t start = pos;
        while (start > 0 && is_ident_char(line[start - 1])) --start;
        if (start < pos) reserved_.insert(line.substr(start, pos - start));
        pos += 9;
      }
    }
  }

  bool in_hotpath() const {
    for (const bool hot : hot_stack_) {
      if (hot) return true;
    }
    return false;
  }

  void process_braces(const std::string& line) {
    for (char c : line) {
      if (c == '{') {
        bool hot = !hot_stack_.empty() && hot_stack_.back();  // inherit
        // A marker arms the next function-shaped block (signature with a
        // paren, not control flow); nested blocks inherit from it. A lone
        // ')' counts too: a multi-line signature's brace line is
        // `...args) {` with the '(' lines above.
        if (marker_armed_ && !hot && line.find_first_of("()") != std::string::npos &&
            !starts_with_keyword(line)) {
          hot = true;
          marker_armed_ = false;
        }
        hot_stack_.push_back(hot);
      } else if (c == '}') {
        if (!hot_stack_.empty()) hot_stack_.pop_back();
      }
    }
  }

  bool allowed(std::size_t li) {
    if (allowed_at(src_, static_cast<int>(li) + 1, "hotpath-alloc")) {
      sink_.suppress("hotpath-alloc");
      return true;
    }
    return false;
  }

  void emit(int line_no, std::string message) {
    sink_.emit(Finding{file_, line_no, "hotpath-alloc", std::move(message)});
  }

  void scan_line(const std::string& line, std::size_t li, int line_no) {
    if (scan_new_delete(line, li, line_no)) return;
    if (scan_calls(line, li, line_no)) return;
    if (scan_push_back(line, li, line_no)) return;
    if (scan_string_and_locals(line, li, line_no)) return;
  }

  bool scan_new_delete(const std::string& line, std::size_t li, int line_no) {
    std::size_t pos = 0;
    while ((pos = find_word(line, "new", pos)) != std::string::npos) {
      const std::size_t after = pos + 3;
      pos = after;
      // Placement-new (`new (slot) T`) constructs into pooled storage and is
      // the sanctioned idiom — but `operator new(n)` is a real allocation.
      std::size_t j = after;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])) != 0) ++j;
      bool is_operator_new = false;
      if (pos >= 3 + 9) {
        std::size_t k = pos - 3;
        while (k > 0 && std::isspace(static_cast<unsigned char>(line[k - 1])) != 0) --k;
        if (k >= 8 && line.compare(k - 8, 8, "operator") == 0) is_operator_new = true;
      }
      if (!is_operator_new && j < line.size() && line[j] == '(') continue;  // placement
      if (j < line.size() && (line[j] == ';' || line[j] == ')' || line[j] == ',')) {
        continue;  // identifier-ish use, not an expression (rare)
      }
      if (allowed(li)) return true;
      emit(line_no, "heap allocation ('new') in a hotpath region; use a pool or pre-sized slot");
      return true;
    }
    pos = 0;
    while ((pos = find_word(line, "delete", pos)) != std::string::npos) {
      pos += 6;
      if (allowed(li)) return true;
      emit(line_no, "heap release ('delete') in a hotpath region; pooled slots are recycled, "
                    "not freed");
      return true;
    }
    return false;
  }

  bool scan_calls(const std::string& line, std::size_t li, int line_no) {
    for (const std::string_view token :
         {"make_unique", "make_shared", "malloc(", "calloc(", "realloc(", "strdup("}) {
      if (find_token(line, token) == std::string::npos) continue;
      if (allowed(li)) return true;
      emit(line_no, "heap allocation ('" + std::string{token} +
                        "') in a hotpath region; use the pooled factories");
      return true;
    }
    return false;
  }

  bool scan_push_back(const std::string& line, std::size_t li, int line_no) {
    for (const std::string_view method : {".push_back(", ".emplace_back("}) {
      std::size_t pos = 0;
      while ((pos = line.find(method, pos)) != std::string::npos) {
        std::size_t start = pos;
        while (start > 0 && is_ident_char(line[start - 1])) --start;
        const std::string receiver = line.substr(start, pos - start);
        pos += method.size();
        if (!receiver.empty() && reserved_.count(receiver) > 0) continue;
        if (allowed(li)) return true;
        emit(line_no, "'" + receiver + std::string{method} +
                          "...)' in a hotpath region with no '" + receiver +
                          ".reserve(...)' anywhere in this file; growth reallocates");
        return true;
      }
    }
    return false;
  }

  bool scan_string_and_locals(const std::string& line, std::size_t li, int line_no) {
    // std::string by value (declaration, temporary, or return type).
    std::size_t pos = 0;
    while ((pos = find_token(line, "std::string", pos)) != std::string::npos) {
      const std::size_t after = pos + std::string_view{"std::string"}.size();
      pos = after;
      if (after < line.size() && is_ident_char(line[after])) continue;  // string_view etc.
      std::size_t j = after;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])) != 0) ++j;
      if (j < line.size() && (line[j] == '&' || line[j] == '*' || line[j] == '>')) continue;
      if (allowed(li)) return true;
      emit(line_no, "std::string constructed in a hotpath region; strings allocate — use "
                    "fixed-size buffers or string_view");
      return true;
    }
    for (const std::string_view token : {"to_string(", "ostringstream", "stringstream"}) {
      if (find_token(line, token) != std::string::npos) {
        if (allowed(li)) return true;
        emit(line_no, "'" + std::string{token} +
                          "' in a hotpath region; formatting allocates — move it off the "
                          "hot path");
        return true;
      }
    }
    // Local container construction by value.
    for (const std::string_view token : kLocalContainerTokens) {
      std::size_t cp = find_token(line, token);
      if (cp == std::string::npos) continue;
      const std::size_t open = cp + token.size();
      if (open >= line.size() || line[open] != '<') continue;
      // Find the matching '>' and require a by-value declaration after it.
      int nest = 0;
      std::size_t end = open;
      for (; end < line.size(); ++end) {
        if (line[end] == '<') ++nest;
        if (line[end] == '>' && --nest == 0) break;
      }
      if (end >= line.size()) continue;  // spans lines: skip (conservative)
      std::size_t j = end + 1;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])) != 0) ++j;
      if (j >= line.size() || line[j] == '&' || line[j] == '*' || line[j] == ':' ||
          line[j] == '>' || line[j] == ',' || line[j] == ')') {
        continue;  // reference/pointer/nested-type use
      }
      if (allowed(li)) return true;
      emit(line_no, "local '" + std::string{token} +
                        "<...>' constructed in a hotpath region; containers allocate — hoist "
                        "it to a member and reserve it");
      return true;
    }
    return false;
  }

  std::string file_;
  CleanSource src_;
  Sink& sink_;
  std::set<std::string> reserved_;
  std::vector<bool> hot_stack_;
  bool marker_armed_ = false;
};

}  // namespace

void scan_hotpath(const std::string& file, const std::vector<std::string>& raw, Sink& sink) {
  HotpathScanner scanner{file, raw, sink};
  scanner.run();
}

}  // namespace tsn::analyze
