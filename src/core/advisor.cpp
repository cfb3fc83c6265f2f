#include "pfsem/core/advisor.hpp"

namespace pfsem::core {

namespace {

using vfs::ConsistencyModel;

/// Weakest model given which semantics show conflicts.
ConsistencyModel pick(bool no_pairs, bool session_conflicts,
                      bool commit_conflicts) {
  if (no_pairs) return ConsistencyModel::Eventual;
  if (!session_conflicts) return ConsistencyModel::Session;
  if (!commit_conflicts) return ConsistencyModel::Commit;
  return ConsistencyModel::Strong;
}

}  // namespace

Advice advise(const ConflictReport& report, const HappensBefore* hb) {
  Advice advice;
  if (hb) {
    const RaceCheck rc = validate_synchronization(report, *hb);
    advice.race_free = rc.racy == 0;
  }

  const bool no_pairs = report.potential_pairs == 0;
  // "Handled same-process ordering" view: only D conflicts matter.
  const bool session_d = report.session.waw_d || report.session.raw_d;
  const bool commit_d = report.commit.waw_d || report.commit.raw_d;
  advice.weakest = pick(no_pairs, session_d, commit_d);
  // Strict view: S conflicts count too (BurstFS-class PFS).
  advice.weakest_strict =
      pick(no_pairs, report.session.any(), report.commit.any());

  if (!advice.race_free) {
    advice.rationale =
        "conflicting accesses are not ordered by program synchronization: "
        "the outcome is non-deterministic even under POSIX semantics";
  } else if (no_pairs) {
    advice.rationale =
        "no overlapping write-involved accesses at all; even eventual "
        "consistency is safe";
  } else if (advice.weakest == ConsistencyModel::Session) {
    advice.rationale =
        report.session.any()
            ? "conflicts exist but involve a single process only; any PFS "
              "that orders same-process accesses (all studied except "
              "BurstFS) is safe with session semantics"
            : "no conflicts under session semantics";
  } else if (advice.weakest == ConsistencyModel::Commit) {
    advice.rationale =
        "cross-process conflicts under session semantics are cleared by "
        "commit operations (fsync/close) the application already performs";
  } else {
    advice.rationale =
        "cross-process conflicts persist even under commit semantics; "
        "strong (POSIX) semantics required";
  }
  return advice;
}

}  // namespace pfsem::core
