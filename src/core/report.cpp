#include "pfsem/core/report.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

#include "pfsem/core/window.hpp"
#include "pfsem/util/table.hpp"

namespace pfsem::core {

void SizeHistogram::add(std::uint64_t size) {
  const std::size_t k =
      size <= 1 ? 0
                : std::min<std::size_t>(kBuckets - 1,
                                        static_cast<std::size_t>(
                                            std::bit_width(size) - 1));
  ++counts[k];
}

std::uint64_t SizeHistogram::total() const {
  std::uint64_t n = 0;
  for (auto c : counts) n += c;
  return n;
}

std::string SizeHistogram::bucket_label(std::size_t k) {
  auto human = [](std::uint64_t v) {
    if (v >= (1ull << 30)) return std::to_string(v >> 30) + "GiB";
    if (v >= (1ull << 20)) return std::to_string(v >> 20) + "MiB";
    if (v >= (1ull << 10)) return std::to_string(v >> 10) + "KiB";
    return std::to_string(v) + "B";
  };
  if (k == 0) return "0B-2B";
  if (k == kBuckets - 1) return ">=" + human(1ull << k);
  return human(1ull << k) + "-" + human(1ull << (k + 1));
}

void RecordStats::feed(const trace::Record& rec) {
  ++function_counts[rec.func];
  ++layer_counts[rec.layer];
  lo = std::min(lo, rec.tstart);
  hi = std::max(hi, rec.tend);
  if (rec.layer != trace::Layer::Posix) return;
  switch (rec.func) {
    case trace::Func::read:
    case trace::Func::pread:
      read_sizes.add(static_cast<std::uint64_t>(rec.ret));
      break;
    case trace::Func::write:
    case trace::Func::pwrite:
      write_sizes.add(static_cast<std::uint64_t>(rec.ret));
      break;
    default:
      break;
  }
}

RunReport build_report(const trace::TraceBundle& bundle, const AccessLog& log,
                       const ConflictReport& conflicts, int /*threads*/) {
  RecordStats stats;
  for (const auto& rec : bundle.records) stats.feed(rec);
  // Per-file summaries in FileId-indexed slots, folded exactly as the
  // windowed path folds them.
  std::vector<FileWindowSummary> summaries(log.files.size());
  for (const FileId id : log.active_ids()) {
    summaries[id] =
        summarize_file_pattern(id, log.path(id), log.files[id], {});
  }
  for (const auto& c : conflicts.conflicts) {
    if (c.file >= summaries.size() || summaries[c.file].file == kNoFile) {
      continue;
    }
    FileReport& fr = summaries[c.file].report;
    fr.session_conflicts += c.under_session ? 1 : 0;
    fr.commit_conflicts += c.under_commit ? 1 : 0;
  }
  return assemble_windowed_report(std::move(stats), bundle.records.size(),
                                  bundle.nranks, summaries);
}

void print_report(const RunReport& rep, std::ostream& os) {
  os << "== run report ==\n"
     << "ranks: " << rep.nranks << "   records: " << rep.records
     << "   traced span: " << fmt(to_seconds(rep.span), 3) << " s\n"
     << "pattern: " << rep.pattern.xy << " " << to_string(rep.pattern.layout)
     << "\n"
     << "transitions local c/m/r: " << fmt_pct(rep.local.frac_consecutive())
     << "/" << fmt_pct(rep.local.frac_monotonic()) << "/"
     << fmt_pct(rep.local.frac_random())
     << "   global: " << fmt_pct(rep.global.frac_consecutive()) << "/"
     << fmt_pct(rep.global.frac_monotonic()) << "/"
     << fmt_pct(rep.global.frac_random()) << "\n";

  os << "\nfunction counters:\n";
  Table fc({"function", "layer-of-call", "count"});
  for (const auto& [func, count] : rep.function_counts) {
    // Layer shown is the function's own API layer.
    fc.add_row({std::string(trace::to_string(func)), "", std::to_string(count)});
  }
  fc.print(os);

  os << "\nrequest sizes:\n";
  Table hist({"bucket", "reads", "writes"});
  for (std::size_t k = 0; k < SizeHistogram::kBuckets; ++k) {
    if (rep.read_sizes.counts[k] == 0 && rep.write_sizes.counts[k] == 0) {
      continue;
    }
    hist.add_row({SizeHistogram::bucket_label(k),
                  std::to_string(rep.read_sizes.counts[k]),
                  std::to_string(rep.write_sizes.counts[k])});
  }
  hist.print(os);

  os << "\nper-file summary:\n";
  Table files({"file", "reads", "writes", "read bytes", "write bytes",
               "layout", "session conf.", "commit conf."});
  for (const auto& [path, fr] : rep.files) {
    files.add_row({path, std::to_string(fr.reads), std::to_string(fr.writes),
                   std::to_string(fr.read_bytes),
                   std::to_string(fr.write_bytes),
                   std::string(to_string(fr.layout)),
                   std::to_string(fr.session_conflicts),
                   std::to_string(fr.commit_conflicts)});
  }
  files.print(os);

  if (rep.degraded) {
    os << "\n";
    print_degraded(*rep.degraded, os);
  }

  if (rep.obs_summary) {
    os << "\n" << *rep.obs_summary;
  }
}

void print_degraded(const DegradedSummary& d, std::ostream& os) {
  os << "== degraded mode ==\n";
  Table t({"counter", "value"});
  t.add_row({"transient faults injected", std::to_string(d.faults_injected)});
  t.add_row({"  of which EIO", std::to_string(d.faults_eio)});
  t.add_row({"  of which ENOSPC", std::to_string(d.faults_enospc)});
  t.add_row({"retries consumed", std::to_string(d.retries)});
  t.add_row({"give-ups (budget exhausted)", std::to_string(d.giveups)});
  t.add_row({"MPI messages dropped", std::to_string(d.mpi_drops)});
  t.add_row({"transfers slowed (OST)", std::to_string(d.slowed_transfers)});
  t.add_row({"writes delayed (visibility)", std::to_string(d.delayed_writes)});
  t.add_row({"writes lost to crashes", std::to_string(d.writes_lost)});
  std::string ranks;
  for (const int r : d.crashed_ranks) {
    if (!ranks.empty()) ranks += ", ";
    ranks += std::to_string(r);
  }
  t.add_row({"ranks crashed", ranks.empty() ? "none" : ranks});
  t.print(os);
  if (d.server_crashes > 0 || d.server_restarts > 0) {
    os << "\n== server fault domains ==\n";
    Table s({"counter", "value"});
    std::string names;
    for (const std::string& n : d.crashed_servers) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    s.add_row({"servers crashed", names.empty() ? "none" : names});
    s.add_row({"server restarts", std::to_string(d.server_restarts)});
    s.add_row({"MDS failovers (standby promoted)",
               std::to_string(d.mds_failovers)});
    s.add_row({"client ops redirected", std::to_string(d.failover_redirects)});
    s.add_row({"degraded reads (holes over dead OSTs)",
               std::to_string(d.degraded_reads)});
    s.print(os);
    os << "surviving semantics: metadata ops ride promoted standby replicas; "
          "reads over a dead data server return holes (degraded reads); "
          "writes stay durable via client write-behind\n";
  }
  os << (d.analysis_truncated()
             ? "analysis: TRUNCATED (at least one rank crashed; per-file "
               "counters and conflicts describe a partial run)\n"
             : "analysis: valid (no rank crashed; faults were absorbed)\n");
}

}  // namespace pfsem::core
