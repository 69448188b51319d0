#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "rules.hpp"

namespace tsn::analyze {

namespace {

// An allow()'s reason is the comment text after its closing paren, up to
// the next marker, the end of a block comment or the end of the line.
bool has_reason(const std::string& raw, std::size_t from) {
  std::size_t end = std::min(raw.find("tsn-lint:", from), raw.find("*/", from));
  if (end == std::string::npos) end = raw.size();
  for (std::size_t i = from; i < end; ++i) {
    if (std::isalnum(static_cast<unsigned char>(raw[i])) != 0) return true;
  }
  return false;
}

void harvest_allows(const std::string& raw, std::set<std::string>& out,
                    std::vector<std::string>& reasonless) {
  const std::string_view key = "tsn-lint: allow(";
  std::size_t pos = 0;
  while ((pos = raw.find(key, pos)) != std::string::npos) {
    pos += key.size();
    const std::size_t close = raw.find(')', pos);
    if (close == std::string::npos) break;
    std::string rule = raw.substr(pos, close - pos);
    if (!has_reason(raw, close + 1)) reasonless.push_back(rule);
    out.insert(std::move(rule));
    pos = close + 1;
  }
}

bool has_hotpath_mark(const std::string& raw) {
  // `tsn-lint: hotpath` marks the next (or enclosing) function as a
  // hot-path region; `hotpath-alloc` in an allow() must not match.
  std::size_t pos = 0;
  const std::string_view key = "tsn-lint: hotpath";
  while ((pos = raw.find(key, pos)) != std::string::npos) {
    const std::size_t end = pos + key.size();
    if (end >= raw.size() || !is_ident_char(raw[end])) {
      if (end >= raw.size() || raw[end] != '-') return true;
    }
    pos = end;
  }
  return false;
}

}  // namespace

CleanSource strip_comments(const std::vector<std::string>& raw) {
  CleanSource out;
  out.lines.resize(raw.size());
  out.allows.resize(raw.size());
  out.reasonless_allows.resize(raw.size());
  out.hotpath_marks.resize(raw.size(), false);
  bool in_block_comment = false;
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    harvest_allows(line, out.allows[li], out.reasonless_allows[li]);
    out.hotpath_marks[li] = has_hotpath_mark(line);
    std::string& code = out.lines[li];
    code.reserve(line.size());
    bool in_string = false;
    bool in_char = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_block_comment) {
        if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      // Literal contents are blanked so tokens inside strings never match.
      if (in_string) {
        if (c == '\\' && i + 1 < line.size()) {
          ++i;
        } else if (c == '"') {
          in_string = false;
          code.push_back(c);
        }
        continue;
      }
      if (in_char) {
        if (c == '\\' && i + 1 < line.size()) {
          ++i;
        } else if (c == '\'') {
          in_char = false;
          code.push_back(c);
        }
        continue;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (c == '"') in_string = true;
      // Digit separators like 2'000 are not char literals.
      if (c == '\'' && (i == 0 || !std::isalnum(static_cast<unsigned char>(line[i - 1])))) {
        in_char = true;
      }
      code.push_back(c);
    }
  }
  return out;
}

bool allowed_at(const CleanSource& src, int line, const std::string& rule) {
  const auto li = static_cast<std::size_t>(line - 1);
  if (li < src.allows.size() && src.allows[li].count(rule) > 0) return true;
  // The line above counts only when it holds nothing but the comment, so a
  // trailing allow never covers the next line too.
  return li > 0 && li - 1 < src.allows.size() && src.allows[li - 1].count(rule) > 0 &&
         src.lines[li - 1].find_first_not_of(" \t") == std::string::npos;
}

void scan_allow_reasons(const std::string& file, const std::vector<std::string>& raw,
                        Sink& sink) {
  const CleanSource src = strip_comments(raw);
  for (std::size_t li = 0; li < src.reasonless_allows.size(); ++li) {
    for (const auto& rule : src.reasonless_allows[li]) {
      sink.emit(Finding{file, static_cast<int>(li) + 1, "allow-no-reason",
                        "allow(" + rule +
                            ") gives no reason; write why the finding is safe after the "
                            "closing paren, on the same line"});
    }
  }
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_token(const std::string& line, std::string_view needle, std::size_t from) {
  std::size_t pos = from;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || !is_ident_char(line[pos - 1])) return pos;
    pos += needle.size();
  }
  return std::string::npos;
}

std::size_t find_word(const std::string& line, std::string_view needle, std::size_t from) {
  std::size_t pos = from;
  while ((pos = find_token(line, needle, pos)) != std::string::npos) {
    const std::size_t end = pos + needle.size();
    if (end >= line.size() || !is_ident_char(line[end])) return pos;
    pos = end;
  }
  return std::string::npos;
}

bool starts_with_keyword(const std::string& line) {
  static const std::vector<std::string> kKeywords = {"if",     "for",   "while", "switch",
                                                    "else",   "catch", "do",    "return",
                                                    "namespace", "class", "struct", "enum",
                                                    "union"};
  std::size_t i = 0;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) ++i;
  // A closing `} else {` also counts as control flow.
  while (i < line.size() &&
         (line[i] == '}' || std::isspace(static_cast<unsigned char>(line[i])) != 0)) {
    ++i;
  }
  for (const auto& kw : kKeywords) {
    if (line.compare(i, kw.size(), kw) == 0) {
      const std::size_t end = i + kw.size();
      if (end >= line.size() || !is_ident_char(line[end])) return true;
    }
  }
  return false;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool scannable(const std::filesystem::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

bool is_header(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  return ext == ".hpp" || ext == ".h";
}

std::string relative_path(const std::filesystem::path& p, const std::filesystem::path& root) {
  const auto rel = p.lexically_relative(root);
  if (rel.empty() || *rel.begin() == "..") return p.generic_string();
  return rel.generic_string();
}

std::string module_of(std::string_view rel_path) {
  const std::size_t slash = rel_path.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string{rel_path.substr(0, slash)};
}

}  // namespace tsn::analyze
