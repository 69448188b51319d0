#include "options.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "reachability.hpp"

namespace tsn::analyze {

namespace {

// A comment-stripped file as one string, so declarations and writes that
// span lines read like one-line ones.
struct Text {
  std::string s;
  std::vector<std::size_t> line_starts;

  explicit Text(const std::vector<std::string>& lines) {
    for (const auto& line : lines) {
      line_starts.push_back(s.size());
      s += line;
      s += '\n';
    }
  }

  [[nodiscard]] int line_of(std::size_t pos) const {
    return static_cast<int>(std::upper_bound(line_starts.begin(), line_starts.end(), pos) -
                            line_starts.begin());
  }
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }

bool space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() && space(s[i])) ++i;
  return i;
}

std::size_t ident_end(const std::string& s, std::size_t i) {
  while (i < s.size() && is_ident_char(s[i])) ++i;
  return i;
}

char at(const std::string& s, std::size_t i) { return i < s.size() ? s[i] : '\0'; }

// One past the bracket closing the `{`, `(` or `[` at `open`.
std::size_t close_of(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '{' || c == '(' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ')' || c == ']') && --depth == 0) {
      return i + 1;
    }
  }
  return s.size();
}

// True when a member declaration's text (up to a `{`) is a function head:
// a `(` outside template brackets before any initializer.
bool is_function_head(std::string_view decl) {
  int angle = 0;
  for (const char c : decl) {
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle > 0) continue;
    if (c == '=' || c == '{' || c == '[') return false;
    if (c == '(') return true;
  }
  return false;
}

const std::set<std::string>& not_data_keywords() {
  static const std::set<std::string> kWords = {
      "using", "typedef",  "friend",        "static",    "enum",  "struct",  "class",
      "union", "template", "static_assert", "constexpr", "inline", "operator"};
  return kWords;
}

// The name a data-member declaration declares and its offset in `decl`,
// or an empty name for anything else (functions, types, aliases, statics).
std::pair<std::string, std::size_t> field_of(const std::string& decl) {
  std::size_t i = skip_space(decl, 0);
  for (const std::string_view label : {"public", "protected", "private"}) {
    if (decl.compare(i, label.size(), label) == 0) {
      const std::size_t colon = skip_space(decl, i + label.size());
      if (at(decl, colon) == ':' && at(decl, colon + 1) != ':') i = skip_space(decl, colon + 1);
    }
  }
  if (i >= decl.size() || !ident_start(decl[i])) return {};
  const std::string first = decl.substr(i, ident_end(decl, i) - i);
  if (first == "struct" || first == "class" || first == "union" || first == "enum") {
    // A type defined in place declares a member with the name after its
    // body (`struct Limits { int burst = 4; } limits;`), or none.
    const std::size_t body = decl.find('{', i);
    if (body == std::string::npos) return {};
    const std::size_t name = skip_space(decl, close_of(decl, body));
    if (name >= decl.size() || !ident_start(decl[name])) return {};
    return {decl.substr(name, ident_end(decl, name) - name), name};
  }
  if (not_data_keywords().count(first) > 0) return {};
  int angle = 0;
  std::size_t stop = decl.size();
  for (std::size_t k = i; k < decl.size(); ++k) {
    const char c = decl[k];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle > 0) continue;
    if (c == '(') return {};  // a function or constructor
    const bool bitfield = c == ':' && at(decl, k + 1) != ':' && (k == 0 || decl[k - 1] != ':');
    if (c == '=' || c == '{' || c == '[' || bitfield) {
      stop = k;
      break;
    }
  }
  std::size_t end = stop;
  while (end > i && space(decl[end - 1])) --end;
  std::size_t begin = end;
  while (begin > i && is_ident_char(decl[begin - 1])) --begin;
  // A lone word is not a declaration, nor is a keyword before `=`.
  if (begin == end || begin == i || !ident_start(decl[begin])) return {};
  std::string name = decl.substr(begin, end - begin);
  if (not_data_keywords().count(name) > 0) return {};
  return {std::move(name), begin};
}

struct Field {
  std::string name;
  int line = 0;
};

struct ConfigStruct {
  std::string name;
  std::vector<Field> fields;  // in declaration order
};

// The data members between a struct's braces, statement by statement.
std::vector<Field> members_of(const Text& text, std::size_t begin, std::size_t end) {
  const std::string& s = text.s;
  std::vector<Field> fields;
  std::size_t stmt = begin;
  std::size_t i = begin;
  while (i < end) {
    const char c = s[i];
    if (c == '{' || c == '(' || c == '[') {
      const std::size_t close = close_of(s, i);
      // A member function's body ends its declaration without a ';'.
      const bool body = c == '{' && is_function_head(std::string_view{s}.substr(stmt, i - stmt));
      i = close;
      if (body) stmt = i;
      continue;
    }
    if (c == ';') {
      auto [name, offset] = field_of(s.substr(stmt, i - stmt));
      if (!name.empty()) fields.push_back(Field{std::move(name), text.line_of(stmt + offset)});
      stmt = i + 1;
    }
    ++i;
  }
  return fields;
}

bool ends_with_config(std::string_view name) {
  constexpr std::string_view kSuffix = "Config";
  return name.size() > kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

// Every `struct *Config { ... }` definition in a header.
std::vector<ConfigStruct> config_structs_in(const Text& text) {
  const std::string& s = text.s;
  std::vector<ConfigStruct> out;
  std::size_t pos = 0;
  while ((pos = find_word(s, "struct", pos)) != std::string::npos) {
    const std::size_t name_at = skip_space(s, pos + 6);
    const std::size_t name_end = ident_end(s, name_at);
    pos = name_end;
    if (!ends_with_config(std::string_view{s}.substr(name_at, name_end - name_at))) continue;
    std::size_t brace = skip_space(s, name_end);
    if (s.compare(brace, 5, "final") == 0 && !is_ident_char(at(s, brace + 5))) {
      brace = skip_space(s, brace + 5);
    }
    if (at(s, brace) != '{') continue;  // a declaration, a variable or a base clause
    const std::size_t close = close_of(s, brace);
    out.push_back(ConfigStruct{s.substr(name_at, name_end - name_at),
                               members_of(text, brace + 1, close - 1)});
    pos = close;
  }
  return out;
}

// The start of the member name after a `.` or `->` at `i`, or npos. A `.`
// of `...` is not an access.
std::size_t member_after(const std::string& s, std::size_t i) {
  if (s[i] == '.' && (i == 0 || s[i - 1] != '.') && ident_start(at(s, i + 1))) return i + 1;
  if (s[i] == '-' && at(s, i + 1) == '>' && ident_start(at(s, i + 2))) return i + 2;
  return std::string::npos;
}

// True when what follows a member name at `pos` writes it: an assignment,
// a brace initializer, a container append, or a longer chain that does.
bool write_follows(const std::string& s, std::size_t pos) {
  pos = skip_space(s, pos);
  const char c = at(s, pos);
  const char next = at(s, pos + 1);
  if (c == '=') return next != '=';
  if (c == '{') return true;
  if (std::string_view{"+-*/%&|^"}.find(c) != std::string_view::npos && next == '=') return true;
  if ((c == '<' || c == '>') && next == c && at(s, pos + 2) == '=') return true;
  const std::size_t member = c == '\0' ? std::string::npos : member_after(s, pos);
  if (member == std::string::npos) return false;
  const std::size_t end = ident_end(s, member);
  const std::string_view name = std::string_view{s}.substr(member, end - member);
  if (name == "push_back" || name == "emplace_back") return at(s, skip_space(s, end)) == '(';
  return write_follows(s, end);
}

// The identifier that ends right before `pos` (skipping spaces), if any.
std::string_view word_before(const std::string& s, std::size_t pos) {
  while (pos > 0 && space(s[pos - 1])) --pos;
  std::size_t begin = pos;
  while (begin > 0 && is_ident_char(s[begin - 1])) --begin;
  return std::string_view{s}.substr(begin, pos - begin);
}

// True when the object chain before the access at `i` names `config_`.
bool object_is_config_copy(const std::string& s, std::size_t i) {
  while (true) {
    const std::string_view object = word_before(s, i);
    if (object.empty()) return false;
    if (object == "config_") return true;
    auto p = static_cast<std::size_t>(object.data() - s.data());
    while (p > 0 && space(s[p - 1])) --p;
    if (p >= 1 && s[p - 1] == '.' && (p < 2 || s[p - 2] != '.')) {
      i = p - 1;
    } else if (p >= 2 && s[p - 1] == '>' && s[p - 2] == '-') {
      i = p - 2;
    } else {
      return false;
    }
  }
}

// The number of top-level, comma-separated values between the braces at
// `open`; 0 for `{}` and for a designated initializer list.
std::size_t positional_count(const std::string& s, std::size_t open) {
  const std::size_t close = close_of(s, open) - 1;
  const std::size_t first = skip_space(s, open + 1);
  if (first >= close || s[first] == '.') return 0;
  std::size_t values = 1;
  for (std::size_t i = first; i < close; ++i) {
    const char c = s[i];
    if (c == '{' || c == '(' || c == '[') {
      i = close_of(s, i) - 1;
    } else if (c == ',') {
      ++values;
    }
  }
  return values;
}

bool under(std::string_view path, std::string_view dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

}  // namespace

OptionWrites harvest_option_writes(const std::vector<std::string>& code,
                                   const std::set<std::string>& config_structs) {
  const Text text(code);
  const std::string& s = text.s;
  OptionWrites out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::size_t member = member_after(s, i);
    if (member == std::string::npos) continue;
    const std::size_t end = ident_end(s, member);
    std::string name = s.substr(member, end - member);
    // An owner's own copy (`this->config_.f = v`) is not a setter either.
    if (name != "config_" && write_follows(s, end) && !object_is_config_copy(s, i)) {
      out.members.insert(std::move(name));
    }
  }
  for (const auto& name : config_structs) {
    std::size_t pos = 0;
    while ((pos = find_word(s, name, pos)) != std::string::npos) {
      const std::string_view before = word_before(s, pos);
      std::size_t brace = skip_space(s, pos + name.size());
      pos += name.size();
      if (before == "struct" || before == "class") continue;  // the definition
      if (ident_start(at(s, brace))) brace = skip_space(s, ident_end(s, brace));  // XConfig x{…}
      if (at(s, brace) != '{') continue;
      std::size_t& covered = out.positional[name];
      covered = std::max(covered, positional_count(s, brace));
    }
  }
  return out;
}

std::size_t check_options(const std::vector<std::string>& tree_files,
                          const std::string& src_dir, const FileProvider& provider,
                          const std::string& display_prefix, Sink& sink) {
  std::map<std::string, CleanSource> clean;  // tree path -> code
  for (const auto& file : tree_files) {
    std::vector<std::string> lines;
    if ((under(file, src_dir) || is_reach_root(file)) && provider(file, lines)) {
      clean.emplace(file, strip_comments(lines));
    }
  }
  std::vector<std::pair<std::string, ConfigStruct>> structs;  // header -> struct
  std::set<std::string> struct_names;
  for (const auto& [file, src] : clean) {
    if (!under(file, src_dir) || !is_header(file) || module_kept_by_allow(src)) continue;
    for (auto& config : config_structs_in(Text(src.lines))) {
      struct_names.insert(config.name);
      structs.emplace_back(file, std::move(config));
    }
  }
  OptionWrites writes;
  for (const auto& [file, src] : clean) {
    OptionWrites w = harvest_option_writes(src.lines, struct_names);
    writes.members.insert(w.members.begin(), w.members.end());
    for (const auto& [name, n] : w.positional) {
      writes.positional[name] = std::max(writes.positional[name], n);
    }
  }
  std::size_t scanned = 0;
  for (const auto& [file, config] : structs) {
    const auto it = writes.positional.find(config.name);
    const std::size_t covered = it == writes.positional.end() ? 0 : it->second;
    for (std::size_t k = 0; k < config.fields.size(); ++k) {
      const Field& field = config.fields[k];
      ++scanned;
      if (k < covered || writes.members.count(field.name) > 0) continue;
      if (allowed_at(clean.at(file), field.line, "unset-option")) {
        sink.suppress("unset-option");
        continue;
      }
      const std::string rel = file.substr(src_dir.size() + 1);
      sink.emit(Finding{display_prefix.empty() ? rel : display_prefix + "/" + rel, field.line,
                        "unset-option",
                        "'" + config.name + "::" + field.name +
                            "' is assigned by no file under src/, bench/, examples/, "
                            "perfbench/ or tools/ (tests/ and an owner's config_ copy do not "
                            "count); "
                            "fold it into a named constant beside its reader, or put "
                            "`// tsn-lint: allow(unset-option) <reason>` on its declaration"});
    }
  }
  return scanned;
}

}  // namespace tsn::analyze
