// Findings reporting: the per-rule summary table printed at the end of every
// run, the machine-readable JSON artifact ("tsn-analyze-findings-v1",
// mirroring the tsn::bench::Report pattern — deterministic writer, versioned
// schema, one artifact per run), and the structural validator CI uses to
// keep the artifact contract honest.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analyzer.hpp"
#include "baseline.hpp"

namespace tsn::analyze {

inline constexpr std::string_view kFindingsSchema = "tsn-analyze-findings-v1";

struct RunReport {
  std::string root;               // scan root as given on the command line
  std::size_t files_scanned = 0;
  std::size_t option_fields = 0;     // *Config fields the options rule scanned
  std::size_t member_functions = 0;  // member functions unreached-member scanned
  std::vector<Finding> active;    // after baseline subtraction
  Sink sink;                      // raw findings + allow() counts
  Baseline baseline;              // entries with match counts filled in
};

struct RuleInfo {
  std::string_view rule;
  std::string_view family;
};

// All rules the analyzer can emit with their families, in family order
// (used to print zero rows so the summary shape is stable).
const std::vector<RuleInfo>& all_rules();

// Human summary: per-rule findings / allow() suppressions / baselined table,
// each row labelled with its family, plus stale-baseline warnings. Returns
// the number of active findings.
std::size_t print_summary(const RunReport& report);

// Deterministic JSON artifact.
std::string findings_to_json(const RunReport& report);

// Structural schema check of a findings artifact; returns true when `text`
// is valid "tsn-analyze-findings-v1", else fills `error`.
bool validate_findings_json(const std::string& text, std::string* error);

}  // namespace tsn::analyze
