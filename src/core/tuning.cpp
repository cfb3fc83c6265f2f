#include "pfsem/core/tuning.hpp"

#include <string>
#include <vector>

#include "pfsem/core/overlap.hpp"

namespace pfsem::core {

namespace detail {

TuningFlags classify_pairs(const FileLog& fl,
                           std::span<const OverlapPair> pairs) {
  TuningFlags f;
  for (const auto& p : pairs) {
    const Access* a = &fl.accesses[p.first];
    const Access* b = &fl.accesses[p.second];
    if (b->t < a->t || (b->t == a->t && b->rank < a->rank)) std::swap(a, b);
    if (a->type != AccessType::Write) continue;
    f.any_pair = true;
    const bool same = a->rank == b->rank;
    if (a->t_commit > b->t) {
      ++f.commit_pairs;
      if (!same) f.commit_d = true;
    }
    if (!(a->t_close < b->t_open)) {
      ++f.session_pairs;
      if (!same) f.session_d = true;
    }
  }
  return f;
}

void append_tuning(TuningReport& out, std::string path, std::uint64_t bytes,
                   const TuningFlags& f) {
  using vfs::ConsistencyModel;
  FileTuning ft;
  ft.path = std::move(path);
  ft.bytes = bytes;
  ft.session_pairs = f.session_pairs;
  ft.commit_pairs = f.commit_pairs;
  if (!f.any_pair) {
    ft.weakest = ConsistencyModel::Eventual;
  } else if (!f.session_d) {
    ft.weakest = ConsistencyModel::Session;
  } else if (!f.commit_d) {
    ft.weakest = ConsistencyModel::Commit;
  } else {
    ft.weakest = ConsistencyModel::Strong;
  }
  out.total_bytes += ft.bytes;
  if (ft.weakest != ConsistencyModel::Strong) out.relaxed_bytes += ft.bytes;
  if (ft.weakest == ConsistencyModel::Eventual) out.eventual_bytes += ft.bytes;
  out.files.push_back(std::move(ft));
}

}  // namespace detail

namespace {

TuningReport assemble(const AccessLog& log,
                      const std::vector<detail::TuningFlags>& flags) {
  TuningReport out;
  // Output promises path order; flags are indexed by FileId.
  for (const FileId id : log.ids_by_path()) {
    const FileLog& fl = log.files[id];
    static const detail::TuningFlags kNone;
    const detail::TuningFlags& f = id < flags.size() ? flags[id] : kNone;
    detail::append_tuning(out, std::string(log.path(id)),
                          fl.read_bytes() + fl.write_bytes(), f);
  }
  return out;
}

}  // namespace

TuningReport per_file_tuning(const AccessLog& log) {
  return per_file_tuning(log, detect_file_overlaps(log));
}

TuningReport per_file_tuning(const AccessLog& log, const FileOverlaps& pairs) {
  std::vector<detail::TuningFlags> flags(log.files.size());
  for (std::size_t id = 0; id < log.files.size() && id < pairs.size(); ++id) {
    flags[id] = detail::classify_pairs(log.files[id], pairs[id]);
  }
  return assemble(log, flags);
}

}  // namespace pfsem::core
