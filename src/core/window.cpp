#include "pfsem/core/window.hpp"

#include <algorithm>
#include <utility>

#include "pfsem/core/overlap.hpp"

namespace pfsem::core {

FileWindowSummary summarize_file_pattern(FileId id, std::string_view path,
                                         const FileLog& fl,
                                         const PatternOptions& p) {
  FileWindowSummary s;
  s.file = id;
  s.report.path = std::string(path);
  for (const auto& a : fl.accesses) {
    if (a.type == AccessType::Read) {
      ++s.report.reads;
      s.report.read_bytes += a.ext.size();
    } else {
      ++s.report.writes;
      s.report.write_bytes += a.ext.size();
    }
  }
  s.report.layout = classify_file_layout(fl, p);
  s.local = local_transitions(fl);
  s.global = global_transitions(fl);
  s.family = file_family_stats(fl, p);
  return s;
}

FileWindowSummary summarize_file(FileId id, std::string_view path,
                                 const FileLog& fl,
                                 const WindowAnalysisOptions& w) {
  FileWindowSummary s = summarize_file_pattern(id, path, fl, w.pattern);

  // Pair computation shared by conflict + tuning, exactly as the
  // materialized path shares one detect_file_overlaps result (the same
  // per-file sweep).
  const std::vector<OverlapPair> pairs = detect_overlaps(fl.accesses, {});
  const ConflictReport part =
      detail::evaluate_file(id, fl.accesses, pairs, w.conflict);
  for (const auto& c : part.conflicts) {
    s.report.session_conflicts += c.under_session ? 1 : 0;
    s.report.commit_conflicts += c.under_commit ? 1 : 0;
  }

  s.tuning = detail::classify_pairs(fl, pairs);
  s.total_bytes = fl.read_bytes() + fl.write_bytes();
  return s;
}

namespace {

/// Active summaries in path order — the iteration order every
/// cross-file consumer (report map, family grouping, tuning rows)
/// promises to the user.
std::vector<const FileWindowSummary*> by_path(
    const std::vector<FileWindowSummary>& summaries) {
  std::vector<const FileWindowSummary*> out;
  out.reserve(summaries.size());
  for (const auto& s : summaries) {
    if (s.file != kNoFile) out.push_back(&s);
  }
  std::sort(out.begin(), out.end(),
            [](const FileWindowSummary* a, const FileWindowSummary* b) {
              return a->report.path < b->report.path;
            });
  return out;
}

}  // namespace

RunReport assemble_windowed_report(
    RecordStats stats, std::uint64_t records, int nranks,
    const std::vector<FileWindowSummary>& summaries) {
  RunReport rep;
  rep.nranks = nranks;
  rep.records = records;
  rep.function_counts = std::move(stats.function_counts);
  rep.layer_counts = std::move(stats.layer_counts);
  rep.read_sizes = stats.read_sizes;
  rep.write_sizes = stats.write_sizes;
  rep.span = rep.records > 0 ? stats.hi - stats.lo : 0;

  const std::vector<const FileWindowSummary*> active = by_path(summaries);
  std::vector<FamilyFileInput> inputs;
  inputs.reserve(active.size());
  for (const FileWindowSummary* s : active) {
    rep.files[s->report.path] = s->report;
    rep.local += s->local;
    rep.global += s->global;
    inputs.push_back({s->file, s->report.path, &s->family});
  }
  FileId dominant = kNoFile;
  rep.pattern = classify_families(inputs, nranks, &dominant);
  // The dominant file's layout was resolved with its summary.
  if (dominant != kNoFile) {
    rep.pattern.layout = summaries[dominant].report.layout;
  }
  return rep;
}

TuningReport assemble_windowed_tuning(
    const std::vector<FileWindowSummary>& summaries) {
  TuningReport out;
  for (const FileWindowSummary* s : by_path(summaries)) {
    detail::append_tuning(out, s->report.path, s->total_bytes, s->tuning);
  }
  return out;
}

}  // namespace pfsem::core
