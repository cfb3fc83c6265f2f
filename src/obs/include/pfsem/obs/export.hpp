#pragma once
// Structured obs export: one versioned JSON document per run carrying the
// run manifest, the full metric catalogue (stable and volatile kept in
// separate sections), and the cost-attribution ledger — the
// machine-readable twin of MetricsRegistry::dump(), written without any
// external JSON dependency. `pfsem obs-diff` (obs/diff.hpp) consumes it.
//
// Determinism contract: everything under the "stable" key derives from
// simulated time and deterministic event counts only, so that section is
// byte-identical across --threads, both schedulers, and
// --stream/materialized (tests cut the document at the "volatile" marker
// and byte-compare). The manifest deliberately sits OUTSIDE "stable": it
// records the knobs being varied (threads, streaming).
//
// Format version: bump kObsJsonVersion on any structural change; the
// layout is pinned by fixture in tests/test_obs_ledger.cpp and documented
// in docs/observability.md.

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pfsem::obs {

struct Run;

inline constexpr int kObsJsonVersion = 1;

/// Ordered run-manifest fields (app, ranks, seed, git sha, ...). Values
/// are exported as JSON strings verbatim-escaped; order is preserved.
using Manifest = std::vector<std::pair<std::string, std::string>>;

/// `s` as a JSON string literal (quotes included), escaping quotes,
/// backslashes, and control characters.
void write_json_string(std::ostream& os, std::string_view s);

/// Write the versioned obs JSON document. Condenses any ledger files not
/// already retired by windowed analysis (hence non-const: condensation
/// frees the ledger's rank dimension, it never changes exported values).
void write_obs_json(std::ostream& os, Run& run, const Manifest& manifest);

}  // namespace pfsem::obs
