#pragma once
// Used only by the allowed module, which counts as reached.
namespace demo::a {
[[nodiscard]] inline int shared_only_by_kept() { return 3; }
[[nodiscard]] inline int served() { return 1; }
// tsn-lint: allow(unreached-symbol) the replay fuzz test decodes untrusted bytes with it
[[nodiscard]] inline int decode_untrusted() { return 0; }
}  // namespace demo::a
