#pragma once
// Semantics advisor — the paper's bottom line turned into an API: given a
// run's conflict report (and optionally a happens-before validation),
// recommend the weakest PFS consistency model the application can run on
// correctly (Sections 6.3, 7).

#include <string>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::core {

struct Advice {
  /// Weakest safe model, assuming the PFS orders same-process accesses
  /// correctly (true of every PFS the paper lists except BurstFS).
  vfs::ConsistencyModel weakest = vfs::ConsistencyModel::Session;
  /// Weakest safe model for a PFS with no same-process ordering either.
  vfs::ConsistencyModel weakest_strict = vfs::ConsistencyModel::Session;
  /// False if conflicting accesses were found that are not ordered by the
  /// program's synchronization — a data race; no semantics can fix that.
  bool race_free = true;
  /// Human-readable justification.
  std::string rationale;
};

/// Derive advice from the conflict report. Pass the HappensBefore checker
/// to additionally validate race-freedom (Section 5.2); pass nullptr to
/// assume race-freedom like the paper does after validation. `threads`
/// fans the happens-before checks out (1 = sequential, 0 = all cores).
[[nodiscard]] Advice advise(const ConflictReport& report,
                            const HappensBefore* hb = nullptr,
                            int threads = 1);

}  // namespace pfsem::core
