#pragma once
// pfsem obs-diff: compare two structured obs exports (obs/export.hpp) and
// classify their differences — the CI semantic-cost regression gate.
//
// Policy (mirrors the obs determinism contract):
//   * "pfsem_obs_version" must match exactly.
//   * Everything under "stable" except the ledger is value-exact: these
//     metrics are byte-deterministic given (app, config, seed), so ANY
//     difference between same-configuration runs is a regression.
//   * Ledger cost rows and everything under "volatile" are threshold-
//     gated (relative difference, default 5%): costs legitimately drift
//     as the simulator's cost model evolves, and volatile metrics depend
//     on scheduling — the gate catches order-of-magnitude regressions,
//     not noise. Sub-threshold drifts are reported as notes.
//   * Manifest fields are compared but never gate (they describe the run;
//     "same config" is the caller's claim to make).
//
// Parsing is a self-contained recursive-descent JSON reader (no external
// dependency); malformed input throws pfsem::Error.

#include <string>
#include <string_view>
#include <vector>

namespace pfsem::obs {

struct DiffOptions {
  /// Relative-difference gate for ledger rows and volatile metrics:
  /// |a-b| / max(|a|, |b|, 1) above this fails the diff.
  double threshold = 0.05;
};

struct DiffResult {
  bool ok = true;
  std::vector<std::string> regressions;  ///< differences that gate (fail)
  std::vector<std::string> notes;        ///< sub-threshold / informational
};

/// Diff two obs JSON documents (the full texts). Throws pfsem::Error on
/// malformed JSON or documents that are not obs exports.
[[nodiscard]] DiffResult diff_obs_json(std::string_view a_text,
                                       std::string_view b_text,
                                       const DiffOptions& opts = {});

}  // namespace pfsem::obs
