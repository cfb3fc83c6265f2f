#include "pfsem/core/conflict.hpp"

#include <algorithm>

#include "pfsem/core/overlap.hpp"

namespace pfsem::core {

namespace {

void note(ConflictMatrix& m, ConflictKind kind, bool same) {
  ++m.count;
  if (kind == ConflictKind::WAW) {
    (same ? m.waw_s : m.waw_d) = true;
  } else {
    (same ? m.raw_s : m.raw_d) = true;
  }
}

void merge(ConflictMatrix& into, const ConflictMatrix& part) {
  into.waw_s |= part.waw_s;
  into.waw_d |= part.waw_d;
  into.raw_s |= part.raw_s;
  into.raw_d |= part.raw_d;
  into.count += part.count;
}

}  // namespace

namespace detail {

/// The semantics conditions over one file's precomputed (canonical-order)
/// pairs. detect_conflicts appends the parts in file order.
ConflictReport evaluate_file(FileId file, std::span<const Access> accesses,
                             std::span<const OverlapPair> pairs,
                             const ConflictOptions& opts) {
  ConflictReport part;
  std::size_t kept_for_file = 0;
  for (const auto& p : pairs) {
    const Access* a = &accesses[p.first];
    const Access* b = &accesses[p.second];
    if (b->t < a->t || (b->t == a->t && b->rank < a->rank)) std::swap(a, b);
    if (a->type != AccessType::Write) continue;  // WAR never conflicts
    ++part.potential_pairs;

    const ConflictKind kind =
        b->type == AccessType::Write ? ConflictKind::WAW : ConflictKind::RAW;
    const bool same = a->rank == b->rank;

    // Commit condition: no commit by a's process in (t1, t2).
    const bool under_commit = a->t_commit > b->t;
    // Session condition: not (t1 < tclose1 < topen2 < t2).
    const bool under_session = !(a->t_close < b->t_open);

    if (!under_commit && !under_session) continue;
    if (under_commit) note(part.commit, kind, same);
    if (under_session) note(part.session, kind, same);
    if (kept_for_file < opts.max_examples_per_file) {
      Conflict c;
      c.file = file;
      c.first = *a;
      c.second = *b;
      c.kind = kind;
      c.same_process = same;
      c.under_commit = under_commit;
      c.under_session = under_session;
      part.conflicts.push_back(std::move(c));
      ++kept_for_file;
    }
  }
  return part;
}

}  // namespace detail

ConflictReport detect_conflicts(const AccessLog& log, ConflictOptions opts) {
  return detect_conflicts(log, detect_file_overlaps(log), opts);
}

ConflictReport detect_conflicts(const AccessLog& log, const FileOverlaps& pairs,
                                ConflictOptions opts) {
  ConflictReport report;
  for (std::size_t id = 0; id < log.files.size() && id < pairs.size(); ++id) {
    if (pairs[id].empty()) continue;
    const FileLog& fl = log.files[id];
    ConflictReport part =
        detail::evaluate_file(fl.file, fl.accesses, pairs[id], opts);
    std::move(part.conflicts.begin(), part.conflicts.end(),
              std::back_inserter(report.conflicts));
    merge(report.session, part.session);
    merge(report.commit, part.commit);
    report.potential_pairs += part.potential_pairs;
  }
  return report;
}

}  // namespace pfsem::core
