// Per-file symbol summaries for tbp_lint's two-pass pipeline.
//
// Pass one (this header) reduces each translation unit to a `FileSummary`:
// local diagnostics plus the symbol facts the cross-file passes need —
// function spans with their call/member-access lists, shard-phase and
// TBP_GUARDED_BY annotations, include edges, Status/Result declarators.
// A summary is a pure function of (file bytes, paired-header bytes,
// config).
//
// Annotation grammar (DESIGN.md "Static invariants"):
//
//   // tbp-lint: shard(worker)      function runs on a worker thread
//   // tbp-lint: shard(commit)      serial-commit API; workers must not call
//   // tbp-lint: shard(route)       routing shim: branches on shard plumbing
//   //                              and stops traversal (must reference a
//   //                              configured shard guard token)
//   // tbp-lint: shard(isolate)     constructs a private engine; traversal
//   //                              stops (the callee's own entry files are
//   //                              analyzed separately)
//   // tbp-lint: shard(shared)      field annotation: cross-SM shared state
//   // TBP_GUARDED_BY(m)            field annotation: reads/writes require
//   //                              mutex `m` held in the enclosing scope
//
// A trailing comment annotates its own line; an own-line comment annotates
// the next line (same convention as suppressions).
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace tbp_lint {

enum class ShardPhase { kNone, kWorker, kCommit, kRoute, kIsolate, kShared };

[[nodiscard]] const char* shard_phase_name(ShardPhase phase) noexcept;

/// One call site inside a function body.  `has_args` distinguishes
/// `store.get(key)` from `ptr.get()`: zero-argument calls are traversed but
/// never flagged by name alone (too many std vocabulary collisions).
struct CallRef {
  std::string name;
  int line = 0;
  bool has_args = false;
};

/// A function (or named lambda) definition span and what its body touches.
struct FunctionSymbol {
  std::string name;
  int line = 0;  ///< line of the name token
  ShardPhase phase = ShardPhase::kNone;
  /// Body mentions one of config.shard_guard_tokens (route honesty check).
  bool mentions_guard = false;
  std::vector<CallRef> calls;
  std::vector<CodeRef> accesses;  ///< member-ish identifier uses (no call)
};

/// A shard-phase annotation whose target is a declaration (or any line the
/// span detector did not resolve to a body).  Header declarations carry the
/// phase for their .cpp definitions and for call-site classification.
struct DeclPhase {
  std::string name;
  ShardPhase phase = ShardPhase::kNone;
  int line = 0;
};

/// An annotated field: shard(shared) and/or TBP_GUARDED_BY(mutex).
struct FieldSymbol {
  std::string name;
  int line = 0;
  bool shared = false;
  std::string guarded_by;  ///< mutex name; empty when not lock-annotated
};

struct IncludeRef {
  std::string target;  ///< the path between quotes/brackets
  int line = 0;
};

/// A parsed `tbp-lint: allow(...)` comment (see driver.hpp for syntax).
struct Suppression {
  int line = 0;
  bool next_line = false;  ///< own-line comment: also covers line + 1
  std::vector<std::string> rules;
  bool justified = false;
};

/// Everything the pipeline keeps per file.  `local` holds single-file and
/// pair-rule diagnostics; cross-pass diagnostics are merged in by the
/// driver.
struct FileSummary {
  std::string path;
  std::vector<Diagnostic> local;
  std::vector<Suppression> suppressions;
  std::vector<FunctionSymbol> functions;
  std::vector<DeclPhase> decl_phases;
  std::vector<FieldSymbol> fields;
  std::vector<IncludeRef> includes;
  std::vector<StatusFunction> status_functions;
  std::vector<CodeRef> discard_candidates;
  std::vector<std::string> unordered_names;
  std::vector<std::string> sorted_names;
};

/// Parses `tbp-lint: allow(a, b) -- reason` out of one comment, if present.
/// Annotation comments (`tbp-lint: shard(...)` with no allow clause) are
/// not suppressions and return false.
[[nodiscard]] bool parse_suppression(const Comment& comment, Suppression* out);

/// Pass one over a single file: local rules, annotation parsing, symbol
/// extraction.  Does not need the companion header.
[[nodiscard]] FileSummary build_file_summary(const std::string& path,
                                             const LexedFile& lexed,
                                             const LintConfig& config);

/// Pair rules (unordered-iter with merged declared names, guarded-by with
/// merged field annotations) over this file's tokens; diagnostics append to
/// summary->local.  `companion` is the paired header's summary, or null.
void run_pair_rules(const std::string& path, const LexedFile& lexed,
                    const LintConfig& config, const FileSummary* companion,
                    FileSummary* summary);

}  // namespace tbp_lint
