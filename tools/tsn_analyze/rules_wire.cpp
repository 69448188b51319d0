// Wire-safety rules — the original tsn_lint family, scoped to the
// frame-handling subsystems (src/proto, src/net, src/mcast):
//
//   unchecked-reader        a function that consumes fields from a
//                           net::WireReader must check `.ok()` on that reader
//                           somewhere in the same function (the sticky
//                           failure flag makes one deferred check enough).
//   raw-memcpy / raw-cast   no `memcpy` or `reinterpret_cast` on frame
//                           buffers; byte access goes through WireReader /
//                           WireWriter, which are bounds-checked.
//   unchecked-length-index  a `.subspan(...)` whose arguments involve
//                           runtime values (e.g. a wire length field) must
//                           sit in a function that compares against
//                           `.size()` or `remaining()` first.
#include <cctype>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "rules.hpp"

namespace tsn::analyze {

namespace {

// Identifier-wise scan of an expression: true if any identifier looks like a
// runtime value, i.e. is not a numeric literal, kConstant, sizeof, or a
// std:: qualifier.
bool has_runtime_identifier(std::string_view expr) {
  std::size_t i = 0;
  while (i < expr.size()) {
    if (!is_ident_char(expr[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < expr.size() && is_ident_char(expr[i])) ++i;
    const std::string_view ident = expr.substr(start, i - start);
    if (std::isdigit(static_cast<unsigned char>(ident[0])) != 0) continue;  // literal
    if (ident.size() >= 2 && ident[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(ident[1])) != 0) {
      continue;  // kConstant convention
    }
    if (ident == "sizeof" || ident == "std" || ident == "size_t" || ident == "uint8_t" ||
        ident == "uint16_t" || ident == "uint32_t" || ident == "uint64_t" ||
        ident == "static_cast" || ident == "byte") {
      continue;
    }
    return true;
  }
  return false;
}

const std::vector<std::string> kConsumingMethods = {
    "u8", "u16", "u32", "u64", "u16_le", "u32_le", "u64_le", "ascii", "bytes"};

class WireScanner {
 public:
  WireScanner(std::string file, const std::vector<std::string>& raw, Sink& sink)
      : file_(std::move(file)), src_(strip_comments(raw)), sink_(sink) {}

  void run() {
    for (std::size_t li = 0; li < src_.lines.size(); ++li) {
      const std::string& line = src_.lines[li];
      const int line_no = static_cast<int>(li) + 1;
      scan_raw_bytes(line, line_no);
      scan_reader_decls(line, line_no);
      scan_reader_uses(line, line_no);
      scan_subspan(line, line_no);
      scan_bounds_evidence(line);
      process_braces(line, line_no);
    }
    // EOF closes everything still open (unbalanced files).
    while (!blocks_.empty()) close_block();
    finish_readers(0);
  }

 private:
  struct Block {
    int func_id = -1;        // index into funcs_, or -1 outside any function
    int depth_before = 0;    // brace depth before this block opened
  };
  struct Func {
    bool bounds_evidence = false;
    std::vector<Finding> pending;  // unchecked-length-index awaiting evidence
  };
  struct Reader {
    std::string name;
    int scope_close_depth = 0;  // dead once depth_ <= this
    int first_use_line = 0;
    int consuming_uses = 0;
    bool has_ok = false;
    bool suppressed = false;
  };

  int current_func() const { return blocks_.empty() ? -1 : blocks_.back().func_id; }

  void emit(int line_no, const std::string& rule, std::string message) {
    sink_.emit(Finding{file_, line_no, rule, std::move(message)});
  }

  void scan_raw_bytes(const std::string& line, int line_no) {
    if (find_token(line, "memcpy(") != std::string::npos) {
      if (allowed_at(src_, line_no, "raw-memcpy")) {
        sink_.suppress("raw-memcpy");
      } else {
        emit(line_no, "raw-memcpy",
             "raw memcpy on buffers; use WireWriter/WireReader, which are bounds-checked");
      }
    }
    if (line.find("reinterpret_cast<") != std::string::npos) {
      if (allowed_at(src_, line_no, "raw-cast")) {
        sink_.suppress("raw-cast");
      } else {
        emit(line_no, "raw-cast",
             "reinterpret_cast on frame bytes; decode through WireReader instead");
      }
    }
  }

  void scan_reader_decls(const std::string& line, int line_no) {
    std::size_t pos = 0;
    while ((pos = find_token(line, "WireReader", pos)) != std::string::npos) {
      std::size_t i = pos + std::string_view{"WireReader"}.size();
      while (i < line.size() && (std::isspace(static_cast<unsigned char>(line[i])) != 0 ||
                                 line[i] == '&')) {
        ++i;
      }
      const std::size_t start = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      pos = i;
      if (i == start) continue;  // `class WireReader {`, `WireReader(` etc.
      Reader r;
      r.name = line.substr(start, i - start);
      // A declaration line that opens a lasting brace (function signature)
      // scopes the reader to that body; a local scopes it to its own depth.
      const int opens = net_braces(line);
      r.scope_close_depth = opens > 0 ? depth_ : depth_ - 1;
      r.first_use_line = line_no;
      r.suppressed = allowed_at(src_, line_no, "unchecked-reader");
      readers_.push_back(std::move(r));
    }
  }

  void scan_reader_uses(const std::string& line, int line_no) {
    for (Reader& r : readers_) {
      const std::string ok_call = r.name + ".ok()";
      if (find_token(line, ok_call) != std::string::npos) r.has_ok = true;
      for (const auto& method : kConsumingMethods) {
        const std::string call = r.name + "." + method + "(";
        if (find_token(line, call) != std::string::npos) {
          if (r.consuming_uses++ == 0) r.first_use_line = line_no;
        }
      }
    }
  }

  void scan_subspan(const std::string& line, int line_no) {
    std::size_t pos = 0;
    while ((pos = line.find(".subspan(", pos)) != std::string::npos) {
      const std::size_t open = pos + std::string_view{".subspan("}.size() - 1;
      pos = open;
      // Balance parens to the end of the argument list (single line only;
      // an unterminated list is treated as risky, which is conservative).
      int nest = 0;
      std::size_t end = open;
      for (; end < line.size(); ++end) {
        if (line[end] == '(') ++nest;
        if (line[end] == ')' && --nest == 0) break;
      }
      const std::string_view args =
          std::string_view{line}.substr(open + 1, end > open ? end - open - 1 : line.size());
      if (!has_runtime_identifier(args)) continue;
      if (allowed_at(src_, line_no, "unchecked-length-index")) {
        sink_.suppress("unchecked-length-index");
        continue;
      }
      Finding f{file_, line_no, "unchecked-length-index",
                "subspan indexed by a runtime value in a function with no .size()/remaining() "
                "bounds comparison"};
      const int fid = current_func();
      if (fid < 0) {
        sink_.emit(std::move(f));
      } else {
        funcs_[static_cast<std::size_t>(fid)].pending.push_back(std::move(f));
      }
    }
  }

  void scan_bounds_evidence(const std::string& line) {
    const int fid = current_func();
    if (fid < 0) return;
    if (line.find("remaining(") != std::string::npos || line.find(".size()") != std::string::npos) {
      funcs_[static_cast<std::size_t>(fid)].bounds_evidence = true;
    }
  }

  static int net_braces(const std::string& line) {
    int n = 0;
    for (char c : line) {
      if (c == '{') ++n;
      if (c == '}') --n;
    }
    return n;
  }

  void process_braces(const std::string& line, int /*line_no*/) {
    for (char c : line) {
      if (c == '{') {
        Block b;
        b.depth_before = depth_;
        if (current_func() >= 0) {
          b.func_id = current_func();  // nested scope or lambda: inherit
        } else if (line.find('(') != std::string::npos && !starts_with_keyword(line)) {
          b.func_id = static_cast<int>(funcs_.size());
          funcs_.emplace_back();
        }
        blocks_.push_back(b);
        ++depth_;
      } else if (c == '}') {
        if (!blocks_.empty()) close_block();
        if (depth_ > 0) --depth_;
        finish_readers(depth_);
      }
    }
  }

  void close_block() {
    const Block b = blocks_.back();
    blocks_.pop_back();
    // Resolve this function's pending subspan findings when its outermost
    // block closes (the func_id owned by this block, not inherited).
    if (b.func_id >= 0 && (blocks_.empty() || blocks_.back().func_id != b.func_id)) {
      Func& f = funcs_[static_cast<std::size_t>(b.func_id)];
      if (!f.bounds_evidence) {
        for (auto& finding : f.pending) sink_.emit(std::move(finding));
      }
      f.pending.clear();
    }
  }

  void finish_readers(int depth_now) {
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (depth_now <= it->scope_close_depth) {
        if (it->consuming_uses > 0 && !it->has_ok) {
          if (it->suppressed) {
            sink_.suppress("unchecked-reader");
          } else {
            emit(it->first_use_line, "unchecked-reader",
                 "WireReader '" + it->name +
                     "' is consumed but never checked with .ok() in this function");
          }
        }
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::string file_;
  CleanSource src_;
  Sink& sink_;
  std::vector<Block> blocks_;
  std::vector<Func> funcs_;
  std::vector<Reader> readers_;
  int depth_ = 0;
};

}  // namespace

void scan_wire(const std::string& file, const std::vector<std::string>& raw, Sink& sink) {
  WireScanner scanner{file, raw, sink};
  scanner.run();
}

}  // namespace tsn::analyze
