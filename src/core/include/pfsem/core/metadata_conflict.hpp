#pragma once
// EXTENSION (paper Section 7 future work): consistency requirements of
// *metadata* operations.
//
// The paper's conflict algorithm covers data operations only; its future
// work asks which applications additionally depend on strong *metadata*
// consistency — i.e. on namespace mutations (create/mkdir/unlink/rename)
// by one process being visible to later namespace observations (open of
// an existing file, stat, access, readdir) by another. PFSs like BatchFS
// and GekkoFS batch or decentralize metadata updates, so a cross-process
// namespace dependency is only safe if the program synchronizes it (or
// the PFS flushes on the relevant boundary).
//
// We extract every namespace mutation/observation from the POSIX trace,
// pair each observation with the nearest preceding mutation of the same
// path by a different process, and (optionally) check each dependency
// against the happens-before order — unsynchronized dependencies are the
// metadata analogue of a data race.

#include <map>
#include <vector>

#include "pfsem/core/happens_before.hpp"
#include "pfsem/trace/bundle.hpp"

namespace pfsem::core {

enum class NsOpKind : std::uint8_t { Mutate, Observe };

/// One namespace-affecting operation. The path is carried as its
/// interned id; resolve against the bundle's PathTable for display.
struct NsOp {
  SimTime t = 0;
  Rank rank = kNoRank;
  trace::Func func = trace::Func::open;
  FileId file = kNoFile;
  NsOpKind kind = NsOpKind::Observe;
  /// Hard observations *require* the name to exist (open without O_CREAT,
  /// readdir); soft ones are successful stat/access probes whose callers
  /// typically tolerate ENOENT and retry (polling).
  bool hard = false;
};

/// A cross-process namespace dependency: `observe` can only behave
/// correctly if it sees the effect of `mutate`.
struct MetadataDependency {
  NsOp mutate;
  NsOp observe;
  bool synchronized = true;  ///< ordered by happens-before (when hb given)
};

struct MetadataConflictReport {
  std::vector<MetadataDependency> dependencies;
  std::uint64_t cross_process = 0;
  std::uint64_t unsynchronized = 0;
  std::uint64_t hard_cross_process = 0;
  std::uint64_t hard_unsynchronized = 0;
  /// Distinct paths (by interned id) involved in cross-process
  /// dependencies, with their dependency counts.
  std::map<FileId, std::uint64_t> paths;

  /// Safe on a lazily-consistent metadata PFS *provided* it publishes
  /// metadata on synchronization boundaries: every dependency whose
  /// caller requires the name to exist is program-ordered. (Soft
  /// stat/access probes degrade to extra polling, not incorrectness.)
  [[nodiscard]] bool lazy_metadata_safe() const {
    return hard_unsynchronized == 0;
  }
  /// No cross-process namespace dependencies at all: metadata consistency
  /// is irrelevant to this application.
  [[nodiscard]] bool metadata_independent() const { return cross_process == 0; }
};

struct MetadataConflictOptions {
  /// Max stored dependency examples, the first in trace order (counters
  /// stay exact).
  std::size_t max_examples = 256;
};

/// Extract namespace dependencies from a trace. Pass `hb` to classify
/// each dependency as synchronized or racy; with hb == nullptr every
/// dependency is reported as synchronized=true (unknown).
[[nodiscard]] MetadataConflictReport detect_metadata_dependencies(
    const trace::TraceBundle& bundle, const HappensBefore* hb = nullptr,
    MetadataConflictOptions opts = {});

}  // namespace pfsem::core
