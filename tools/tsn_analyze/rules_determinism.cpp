// Determinism rules — byte-identical replay is the load-bearing property of
// the whole simulator (every drill suite asserts two-run identity), so the
// sources of nondeterminism are banned at the source level:
//
//   wall-clock        no std::chrono::system_clock / steady_clock /
//                     gettimeofday / time() / localtime: all time flows from
//                     the sim clock (sim::Engine::now / sim::Time).
//   unseeded-random   no rand()/srand()/std::random_device outside
//                     src/sim/random.*: all randomness flows from sim::Rng,
//                     which is seed-stable across platforms.
//   unordered-iter    no iteration over std::unordered_map/set — hash-table
//                     order is unspecified and varies across standard
//                     libraries, so any iteration that feeds wire output,
//                     journals, or telemetry exports diverges replay.
//                     Order-independent sweeps (flag resets, integer sums,
//                     collect-then-sort) carry an audited allow().
//   pointer-identity  no pointer values as identifiers or container keys —
//                     addresses change run to run, so pointer-keyed maps
//                     iterate in a different order every run and exported
//                     pointer ids never match a replay.
//   cross-domain-sched no scheduling directly onto another shard's queue
//                     (`engine.domain(d).schedule_at(...)` and friends):
//                     in windowed parallel mode another domain's queue may
//                     be mid-execution on a worker thread, and a direct
//                     push bypasses the mailbox ordering AND the lookahead
//                     bound the conservative synchronizer relies on. Cross-
//                     domain work goes through Domain::post_to. Same-domain
//                     setup code that provably runs before the engine does
//                     carries an audited allow().
#include <cctype>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "rules.hpp"

namespace tsn::analyze {

namespace {

const std::string_view kWallClockTokens[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
    "localtime",     "gmtime",        "strftime",
    "mktime",
};

const std::string_view kRandomTokens[] = {
    "random_device", "srand", "drand48", "lrand48", "mrand48",
};

// The first template argument of the container starting at '<'; empty when
// the argument list spans lines (conservatively not matched).
std::string first_template_arg(const std::string& line, std::size_t open) {
  int nest = 0;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == '<') ++nest;
    if (line[i] == '>' && --nest == 0) return line.substr(open + 1, i - open - 1);
    if (line[i] == ',' && nest == 1) return line.substr(open + 1, i - open - 1);
  }
  return {};
}

bool arg_is_pointer(std::string_view arg) {
  while (!arg.empty() && std::isspace(static_cast<unsigned char>(arg.back())) != 0) {
    arg.remove_suffix(1);
  }
  return !arg.empty() && arg.back() == '*';
}

class DeterminismScanner {
 public:
  DeterminismScanner(std::string file, std::string rel_path, const std::vector<std::string>& raw,
                     const std::set<std::string>& unordered_names, Sink& sink)
      : file_(std::move(file)),
        rel_path_(std::move(rel_path)),
        src_(strip_comments(raw)),
        unordered_names_(unordered_names),
        sink_(sink) {}

  void run() {
    // src/sim/random.* is the sanctioned randomness source; src/sim/time.*
    // is the sim clock itself (its docs name the wall-clock APIs it replaces).
    const bool in_sim_random = rel_path_.find("sim/random.") != std::string::npos;
    for (std::size_t li = 0; li < src_.lines.size(); ++li) {
      const std::string& line = src_.lines[li];
      const int line_no = static_cast<int>(li) + 1;
      scan_wall_clock(line, li, line_no);
      if (!in_sim_random) scan_random(line, li, line_no);
      scan_unordered_iter(line, li, line_no);
      scan_pointer_identity(line, li, line_no);
      scan_cross_domain_sched(line, li, line_no);
    }
  }

 private:
  bool check(std::size_t li, const char* rule) {
    if (allowed_at(src_, static_cast<int>(li) + 1, rule)) {
      sink_.suppress(rule);
      return false;
    }
    return true;
  }

  void emit(int line_no, const char* rule, std::string message) {
    sink_.emit(Finding{file_, line_no, rule, std::move(message)});
  }

  void scan_wall_clock(const std::string& line, std::size_t li, int line_no) {
    for (const auto token : kWallClockTokens) {
      if (find_word(line, token) == std::string::npos) continue;
      if (!check(li, "wall-clock")) return;
      emit(line_no, "wall-clock",
           "wall-clock time ('" + std::string{token} +
               "') breaks replay; all time must flow from the sim clock (sim::Time)");
      return;  // one finding per line is enough
    }
    // std::time(...) / time(nullptr) / time(NULL): the token `time(` alone
    // is too common (sim::Time, member .time()), so require the std::
    // qualifier or the classic null argument.
    if (line.find("std::time(") != std::string::npos ||
        line.find("time(nullptr)") != std::string::npos ||
        line.find("time(NULL)") != std::string::npos) {
      if (!check(li, "wall-clock")) return;
      emit(line_no, "wall-clock",
           "wall-clock time ('time()') breaks replay; all time must flow from the sim clock");
    }
  }

  void scan_random(const std::string& line, std::size_t li, int line_no) {
    for (const auto token : kRandomTokens) {
      if (find_word(line, token) == std::string::npos) continue;
      if (!check(li, "unseeded-random")) return;
      emit(line_no, "unseeded-random",
           "'" + std::string{token} +
               "' outside sim/random; all randomness must flow from sim::Rng (seed-stable)");
      return;
    }
    // Bare rand( — word-bounded so strand(, operand( etc. don't match, and
    // the call paren so a variable named `rand` doesn't.
    std::size_t pos = 0;
    while ((pos = find_token(line, "rand(", pos)) != std::string::npos) {
      // `.rand(` / `Foo::rand(` are member/user calls; bare and std:: are libc.
      const bool qualified = pos > 0 && (line[pos - 1] == '.' || line[pos - 1] == ':');
      const bool is_std = pos >= 5 && line.compare(pos - 5, 5, "std::") == 0;
      if (!qualified || is_std) {
        if (!check(li, "unseeded-random")) return;
        emit(line_no, "unseeded-random",
             "'rand()' outside sim/random; all randomness must flow from sim::Rng");
        return;
      }
      pos += 5;
    }
  }

  void scan_unordered_iter(const std::string& line, std::size_t li, int line_no) {
    for (const auto& name : unordered_names_) {
      bool iterates = false;
      // Range-for over the container: `for (... : name)`. The name must sit
      // inside the for's parentheses after the colon — a single-line loop
      // body that merely indexes the container is not iteration.
      const std::size_t fp = find_word(line, "for");
      const std::size_t open = fp == std::string::npos ? std::string::npos : line.find('(', fp);
      if (open != std::string::npos) {
        int nest = 0;
        std::size_t close = open;
        for (; close < line.size(); ++close) {
          if (line[close] == '(') ++nest;
          if (line[close] == ')' && --nest == 0) break;
        }
        const std::size_t colon = line.find(" : ", open);
        if (colon != std::string::npos && colon < close) {
          const std::size_t np = find_word(line, name, colon);
          if (np != std::string::npos && np < close) iterates = true;
        }
      }
      // Iterator walk: `name.begin()` (lookups use .find/.end and never
      // .begin, so .begin is reliable iteration evidence).
      if (!iterates && find_word(line, name + ".begin", 0) != std::string::npos) {
        iterates = true;
      }
      if (!iterates) continue;
      if (!check(li, "unordered-iter")) return;
      emit(line_no, "unordered-iter",
           "iteration over unordered container '" + name +
               "'; hash order is unspecified — iterate a sorted copy, or allow() with an "
               "audit comment proving order-independence");
      return;
    }
  }

  void scan_pointer_identity(const std::string& line, std::size_t li, int line_no) {
    // Pointer-keyed associative containers.
    for (const std::string_view container :
         {"unordered_map", "unordered_set", "map", "set"}) {
      std::size_t pos = 0;
      while ((pos = find_word(line, container, pos)) != std::string::npos) {
        const std::size_t open = pos + container.size();
        pos = open;
        if (open >= line.size() || line[open] != '<') continue;
        const std::string arg = first_template_arg(line, open);
        if (!arg_is_pointer(arg)) continue;
        if (!check(li, "pointer-identity")) return;
        emit(line_no, "pointer-identity",
             "container keyed by pointer values; addresses differ run to run, so iteration "
             "order and exported ids diverge — key by a stable id instead");
        return;
      }
    }
    // Casting a pointer to an integer id.
    if (line.find("reinterpret_cast<std::uintptr_t>") != std::string::npos ||
        line.find("reinterpret_cast<uintptr_t>") != std::string::npos ||
        line.find("std::hash<") != std::string::npos) {
      const std::size_t hp = line.find("std::hash<");
      bool pointer_hash = false;
      if (hp != std::string::npos) {
        const std::string arg = first_template_arg(line, hp + std::string_view{"std::hash"}.size());
        pointer_hash = arg_is_pointer(arg);
      }
      if (line.find("uintptr_t>") == std::string::npos && !pointer_hash) return;
      if (!check(li, "pointer-identity")) return;
      emit(line_no, "pointer-identity",
           "pointer value used as an identifier; addresses differ run to run — use a stable "
           "id allocated from sim state instead");
    }
  }

  void scan_cross_domain_sched(const std::string& line, std::size_t li, int line_no) {
    for (const std::string_view call : {"schedule_at(", "schedule_in("}) {
      std::size_t pos = 0;
      while ((pos = find_word(line, call.substr(0, call.size() - 1), pos)) !=
             std::string::npos) {
        const std::size_t start = pos;
        pos += call.size() - 1;
        if (pos >= line.size() || line[pos] != '(') continue;
        // Member access only: a free definition or an unqualified call on
        // the ambient scheduler is somebody's own queue.
        std::size_t recv_end = start;
        if (recv_end >= 2 && line.compare(recv_end - 2, 2, "->") == 0) {
          recv_end -= 2;
        } else if (recv_end >= 1 && line[recv_end - 1] == '.') {
          recv_end -= 1;
        } else {
          continue;
        }
        if (recv_end == 0) continue;
        // The receiver is foreign when the expression ends in a domain
        // lookup: `...domain(<id>)` (the ShardedEngine accessor) or a
        // `...domains...[<id>]` index into a shard table.
        std::string head;
        if (line[recv_end - 1] == ')' || line[recv_end - 1] == ']') {
          const char open = line[recv_end - 1] == ')' ? '(' : '[';
          const char close = line[recv_end - 1];
          int nest = 0;
          std::size_t i = recv_end;
          while (i > 0) {
            --i;
            if (line[i] == close) ++nest;
            if (line[i] == open && --nest == 0) break;
          }
          std::size_t id_start = i;
          while (id_start > 0 && is_ident_char(line[id_start - 1])) --id_start;
          head = line.substr(id_start, i - id_start);
        }
        const bool is_accessor = head == "domain";
        const bool is_shard_table = head.find("domain") != std::string::npos && !head.empty();
        if (!is_accessor && !is_shard_table) continue;
        if (!check(li, "cross-domain-sched")) return;
        emit(line_no, "cross-domain-sched",
             "scheduling directly onto another domain's queue bypasses the mailbox and the "
             "lookahead bound; cross-domain work must go through Domain::post_to");
        return;
      }
    }
  }

  std::string file_;
  std::string rel_path_;
  CleanSource src_;
  const std::set<std::string>& unordered_names_;
  Sink& sink_;
};

}  // namespace

std::set<std::string> harvest_unordered_names(const std::vector<std::string>& raw) {
  // Joined comment-stripped text so declarations that span lines (nested
  // template arguments, long value types) still yield their name.
  const CleanSource src = strip_comments(raw);
  std::string text;
  for (const auto& line : src.lines) {
    text += line;
    text += '\n';
  }
  std::set<std::string> names;
  for (const std::string_view kind : {"unordered_map", "unordered_set"}) {
    std::size_t pos = 0;
    while ((pos = find_word(text, kind, pos)) != std::string::npos) {
      std::size_t i = pos + kind.size();
      pos = i;
      if (i >= text.size() || text[i] != '<') continue;
      // Balance the template argument list (may span lines).
      int nest = 0;
      for (; i < text.size(); ++i) {
        if (text[i] == '<') ++nest;
        if (text[i] == '>' && --nest == 0) break;
      }
      if (i >= text.size()) break;
      ++i;
      // Skip whitespace/newlines, then take the declared identifier. `>`
      // followed by anything but an identifier (e.g. `(`, `::`, `&`) is a
      // temporary, parameter type, or nested use — not a declaration.
      while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
      const std::size_t start = i;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      if (i == start) continue;
      // Require a declaration terminator so `x.unordered_thing<T>()` or
      // casts don't register phantom names.
      std::size_t j = i;
      while (j < text.size() && std::isspace(static_cast<unsigned char>(text[j])) != 0) ++j;
      if (j < text.size() && (text[j] == ';' || text[j] == '{' || text[j] == '=' ||
                              text[j] == ',' || text[j] == ')')) {
        names.insert(text.substr(start, i - start));
      }
    }
  }
  return names;
}

void scan_determinism(const std::string& file, const std::string& rel_path,
                      const std::vector<std::string>& raw,
                      const std::set<std::string>& unordered_names, Sink& sink) {
  DeterminismScanner scanner{file, rel_path, raw, unordered_names, sink};
  scanner.run();
}

}  // namespace tsn::analyze
