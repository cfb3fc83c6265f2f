// Scaling harness for the capture and analysis pipeline. Unlike the
// google-benchmark binaries this one emits a machine-readable
// BENCH_perf.json so the numbers live in the repository:
//
//   bench_perf_scaling [--out FILE]    full sizes, write JSON (default
//                                      BENCH_perf.json in the cwd)
//   bench_perf_scaling --check         small sizes, assert correctness
//                                      and the speedup floors
//
// Experiments:
//   sweep          sweep-line vs the paper's Algorithm-1 scan on an
//                  adversarial long-lived-read log — the single-thread
//                  algorithmic win;
//   reconstruction interned vs string-keyed record grouping;
//   capture        bucketed-ring scheduler vs the heap-scheduler oracle,
//                  both on the one emitter, on an adversarial
//                  delay(0)-heavy workload (--check floor: >=2x, and the
//                  two bundles must be byte-identical);
//   run_to_report  a registered app (FLASH-fbs) driven end to end —
//                  capture + full report — at ranks 64/256/1024, on both
//                  the materialized and the chunked streaming pipeline
//                  (the apps::spill_app/drain_spill driver behind
//                  `pfsem report --stream`), with peak RSS per pipeline
//                  measured in a fresh subprocess each (--scale64k
//                  appends a 65536-rank streaming-only point;
//                  materializing it would need the whole record array in
//                  memory at once, and a 131072-rank pF3D-IO streaming
//                  point that must complete under the 65536-rank point's
//                  RSS — twice the ranks in less memory).
//   memory_scaling full-log vs windowed analysis peak RSS on a synthetic
//                  phased N-N checkpoint trace fed straight into the
//                  analyzer (full-log = no per-file budgets, so nothing
//                  retires before finish), at ranks 1024/4096/16384 in
//                  fresh subprocesses — windowed memory must be bounded
//                  by the live window, not the trace (>=2x below full-log
//                  at 16384 ranks, enforced at record time; --scale64k
//                  adds 131072-rank windowed under 65536-rank full-log).
//   cluster_failover  a read-heavy app (LBANN) on the multi-server
//                  PfsCluster, healthy vs one crashed MDS + one crashed
//                  OST: wall throughput, simulated time-to-recover
//                  (completion-time overhead of failover backoffs), and
//                  the degraded-read count.
//   obs_overhead   the same FLASH-fbs run->report pipeline with
//                  observability off, with the metrics registry wired in,
//                  and with metrics + the cost-attribution ledger —
//                  interleaved so a load spike hits all three arms
//                  (--check: an arm fails when its median paired ratio
//                  to off is >= 1.05 and its median lies above off's
//                  upper quartile; over 1.05 without that separation it
//                  prints "unresolved" and passes).
//
// Subprocess mode (used internally for RSS measurement, and by the
// stream_rss_bounded ctest entry):
//   bench_perf_scaling --rss-probe stream|materialize RANKS [APP]
//                  run the FLASH-fbs (or APP) run->report pipeline once
//                  in the given mode and print one line of key=value
//                  pairs including this process's getrusage peak RSS
//                  (rss_kb), that peak when capture ended
//                  (capture_peak_kb) and the heap still in use then
//                  (capture_heap_kb, from glibc's mallinfo2; the value
//                  reads "unmeasurable" elsewhere). The difference of
//                  the two capture keys is capture's transient share.
//   bench_perf_scaling --rss-probe phased|phased-windowed RANKS
//                  the memory_scaling analysis, full-log or windowed.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <utility>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "capture_kernel.hpp"

#include "pfsem/apps/driver.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/sim/engine.hpp"
#include "pfsem/trace/collector.hpp"
#include "pfsem/util/rng.hpp"

namespace {

using namespace pfsem;

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Best-of-k wall time of `fn` in seconds.
template <typename Fn>
double best_of(int k, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < k; ++i) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

/// Adversarial single-file log for the sweep-vs-scan comparison: n mostly
/// long-lived reads and a few writes. The scan's stop condition is
/// begin-order, so it visits ~n^2/2 read-read candidates that the
/// default writes_only filter then rejects; the sweep never visits them.
std::vector<core::Access> long_reads(std::size_t n) {
  std::vector<core::Access> v;
  v.reserve(n);
  constexpr std::size_t kWriters = 16;
  for (std::size_t i = 0; i < n; ++i) {
    core::Access a;
    a.rank = static_cast<Rank>(i % 64);
    a.t = static_cast<SimTime>(i);
    if (i % std::max<std::size_t>(n / kWriters, 1) == 0) {
      a.type = core::AccessType::Write;
      a.ext = {static_cast<Offset>(i), static_cast<Offset>(i) + 4096};
    } else {
      a.type = core::AccessType::Read;
      a.ext = {static_cast<Offset>(i), 1'000'000'000};
    }
    v.push_back(a);
  }
  return v;
}

/// Synthetic raw trace for the intern-vs-string grouping experiment:
/// `nrecords` data records spread round-robin over `nfiles` paths with
/// realistic path lengths (directory prefix + numbered leaf).
trace::TraceBundle make_bundle(std::size_t nfiles, std::size_t nrecords) {
  trace::TraceBundle bundle;
  bundle.nranks = 64;
  std::vector<FileId> ids;
  ids.reserve(nfiles);
  for (std::size_t f = 0; f < nfiles; ++f) {
    ids.push_back(bundle.intern("/scratch/project/run.0042/output/ckpt." +
                                std::to_string(f) + ".h5"));
  }
  Rng rng(99);
  for (std::size_t i = 0; i < nrecords; ++i) {
    trace::Record rec;
    rec.tstart = static_cast<SimTime>(i * 10);
    rec.tend = rec.tstart + 5;
    rec.rank = static_cast<Rank>(rng.below(64));
    rec.layer = trace::Layer::Posix;
    rec.func = trace::Func::pwrite;
    rec.offset = static_cast<std::int64_t>(rng.below(1u << 20)) * 4096;
    rec.count = 4096;
    rec.ret = 4096;
    rec.file = ids[i % nfiles];
    bundle.records.push_back(std::move(rec));
  }
  return bundle;
}

/// Per-record file grouping the way the retired design did it: resolve
/// every record to its path string and look the string up in a
/// string-keyed ordered map (what `AccessLog` used to be built on).
std::size_t group_by_string(const trace::TraceBundle& bundle) {
  std::map<std::string, std::vector<const trace::Record*>> groups;
  for (const auto& rec : bundle.records) {
    groups[std::string(bundle.path_of(rec))].push_back(&rec);
  }
  return groups.size();
}

/// The same grouping on the interned representation: the FileId indexes a
/// dense vector directly, no hashing or string compares per record.
std::size_t group_by_id(const trace::TraceBundle& bundle) {
  std::vector<std::vector<const trace::Record*>> groups(bundle.paths.size());
  for (const auto& rec : bundle.records) {
    groups[rec.file].push_back(&rec);
  }
  std::size_t active = 0;
  for (const auto& g : groups) active += !g.empty();
  return active;
}

// The capture-path kernel lives in capture_kernel.cpp (own TU so the
// timed coroutine loop's codegen is independent of this driver's size);
// see capture_kernel.hpp.
using pfsem_bench::CaptureRun;
using pfsem_bench::run_capture;

/// One end-to-end run→report point: capture FLASH-fbs at `ranks`, then
/// the full analysis + report.
struct RunToReportPoint {
  std::string app = "FLASH-fbs";
  int ranks = 0;
  std::size_t records = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
  // Chunked streaming pipeline (same workload, spill → merge → stream
  // analysis) plus peak RSS for both pipelines, each measured in a fresh
  // subprocess so neither allocator high-water pollutes the other.
  double stream_capture_seconds = 0;
  double stream_analysis_seconds = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t stream_peak_buffered = 0;
  long stream_rss_kb = 0;
  long materialized_rss_kb = 0;
  bool streaming_only = false;
  // The streaming analysis's live window: RSS bounded by it, so ranks can
  // keep doubling past the full-log ceiling.
  std::uint64_t live_peak = 0;
  std::uint64_t retired = 0;
};

/// This process's peak resident set, as the kernel accounts it (KiB on
/// Linux).
long current_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// The heap this process has in use (KiB): arena chunks plus mmapped
/// ones, or "unmeasurable" without glibc's mallinfo2().
std::string heap_in_use_kb() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = ::mallinfo2();
  return std::to_string((mi.uordblks + mi.hblkhd) / 1024);
#else
  return "unmeasurable";
#endif
}

std::string materialized_report_text(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log);
  const auto conflicts = core::detect_conflicts(log, pairs, {});
  const auto rep = core::build_report(bundle, log, conflicts);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

/// The streaming run→report pipeline, timed phase by phase through the
/// driver `pfsem report --stream` runs: the spill half (capture into a
/// 64 MiB-ceiling store, harness destroyed) is the capture, the windowed
/// drain plus the report the analysis.
struct StreamRun {
  std::uint64_t records = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_buffered = 0;
  std::uint64_t live_peak = 0;  ///< live-window high-water (files)
  std::uint64_t retired = 0;    ///< accesses freed mid-stream
  long capture_peak_kb = 0;     ///< peak RSS when the spill half returned
  std::string capture_heap_kb;  ///< heap in use then (heap_in_use_kb)
  std::string report;
};

/// Fill `out`'s analysis fields from a finished windowed analysis.
void take_windowed(core::StreamAnalyzer::WindowedResult res, StreamRun& out) {
  out.records = res.records;
  out.peak_buffered = res.peak_buffered;
  out.live_peak = res.peak_live_files;
  out.retired = res.retired_accesses;
  const auto rep = core::assemble_windowed_report(
      std::move(res.stats), res.records, res.nranks, res.summaries);
  std::ostringstream os;
  core::print_report(rep, os);
  out.report = std::move(os).str();  // no second copy of a per-file table
}

StreamRun stream_run_to_report(const apps::AppInfo& info, int ranks) {
  StreamRun out;
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  double t0 = now_seconds();
  auto run = apps::spill_app(info, cfg, trace::SpillStore::kDefaultCeiling);
  out.capture_seconds = now_seconds() - t0;
  out.capture_peak_kb = current_rss_kb();
  out.capture_heap_kb = heap_in_use_kb();
  out.spill_bytes = run.store->bytes();
  t0 = now_seconds();
  take_windowed(apps::drain_spill(run), out);
  out.analysis_seconds = now_seconds() - t0;
  return out;
}

// Phased N-N checkpoint trace for the memory_scaling experiment: every
// rank writes one private file per phase (kPhasedWrites sequential
// pwrites), phases strictly one after another — the dominant checkpoint
// cadence of the paper's Table 2 apps. The records are synthesized
// straight into the analyzer (like the other synthetic experiments),
// so the probe's RSS measures the *analysis* — full AccessLog vs live
// window — without a simulator's per-rank coroutine state drowning it.
constexpr int kPhasedPhases = 8;
constexpr int kPhasedWrites = 48;
constexpr std::int64_t kPhasedChunk = 65'536;

trace::PathTable phased_paths(int ranks) {
  trace::PathTable paths;
  for (int p = 0; p < kPhasedPhases; ++p) {
    for (int r = 0; r < ranks; ++r) {
      paths.intern("ckpt." + std::to_string(p) + "." + std::to_string(r));
    }
  }
  return paths;
}

/// Posix records per rank per phase: open + writes + close.
constexpr int kPhasedOps = kPhasedWrites + 2;

/// Emit the phased trace in emission order (ranks advance in lockstep;
/// per-rank tstarts are monotone, which is all the reorder buffer needs).
template <typename Fn>
std::uint64_t phased_records(int ranks, Fn&& emit) {
  std::uint64_t n = 0;
  for (int p = 0; p < kPhasedPhases; ++p) {
    for (int i = 0; i < kPhasedOps; ++i) {
      for (int r = 0; r < ranks; ++r) {
        trace::Record rec;
        rec.tstart = static_cast<SimTime>(p * kPhasedOps + i) * 1'000'000 +
                     static_cast<SimTime>(r);
        rec.tend = rec.tstart + 500;
        rec.rank = static_cast<Rank>(r);
        rec.layer = trace::Layer::Posix;
        rec.fd = 3;
        rec.file = static_cast<FileId>(p * ranks + r);
        if (i == 0) {
          rec.func = trace::Func::open;
          rec.flags = trace::kCreate | trace::kTrunc | trace::kWrOnly;
          rec.ret = 3;
        } else if (i == kPhasedOps - 1) {
          rec.func = trace::Func::close;
          rec.ret = 0;
        } else {
          rec.func = trace::Func::pwrite;
          rec.offset = static_cast<std::int64_t>(i - 1) * kPhasedChunk;
          rec.count = kPhasedChunk;
          rec.ret = kPhasedChunk;
        }
        emit(rec);
        ++n;
      }
    }
  }
  return n;
}

/// Feed the phased trace through the streaming analyzer and report what
/// the probes need. The full-log arm gives the analyzer no per-file
/// budgets, so nothing retires before finish and it holds the whole log;
/// the windowed arm gives it the exact budgets.
StreamRun phased_analysis(int ranks, bool windowed) {
  StreamRun out;
  const std::size_t nfiles =
      static_cast<std::size_t>(kPhasedPhases) * static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> rank_counts(
      static_cast<std::size_t>(ranks),
      static_cast<std::uint64_t>(kPhasedPhases) * kPhasedOps);
  std::vector<std::uint32_t> hints(nfiles, kPhasedOps);
  const double t0 = now_seconds();
  core::StreamAnalyzer analyzer(ranks, phased_paths(ranks),
                                std::move(rank_counts), hints);
  if (windowed) {
    analyzer.enable_window({},
                           std::vector<std::uint64_t>(nfiles, kPhasedOps));
  }
  (void)phased_records(
      ranks, [&](const trace::Record& rec) { analyzer.feed(rec); });
  take_windowed(analyzer.finish_windowed(), out);
  out.analysis_seconds = now_seconds() - t0;
  return out;
}

/// Child mode for --rss-probe: one pipeline run, one line of key=value
/// output including this process's peak RSS, and for stream|materialize
/// its peak when capture ended and the heap still in use then
/// (capture_peak_kb, capture_heap_kb: the stream_rss_bounded test takes
/// the last "rss_kb=" on the line, so no other key may contain it).
int rss_probe_main(const std::string& mode, int ranks,
                   const std::string& app) {
  if (mode == "phased" || mode == "phased-windowed") {
    const auto s = phased_analysis(ranks, mode == "phased-windowed");
    std::cout << "records=" << s.records << " rss_kb=" << current_rss_kb()
              << " spill_bytes=0 peak_buffered=" << s.peak_buffered
              << " live_peak=" << s.live_peak << " retired=" << s.retired
              << " capture_seconds=0 analysis_seconds=" << s.analysis_seconds
              << "\n";
    return s.report.empty() ? 1 : 0;
  }
  const auto* flash = apps::find_app(app);
  if (flash == nullptr) return 1;
  if (mode == "stream") {
    const auto s = stream_run_to_report(*flash, ranks);
    std::cout << "records=" << s.records << " rss_kb=" << current_rss_kb()
              << " capture_peak_kb=" << s.capture_peak_kb
              << " capture_heap_kb=" << s.capture_heap_kb
              << " spill_bytes=" << s.spill_bytes
              << " peak_buffered=" << s.peak_buffered
              << " live_peak=" << s.live_peak << " retired=" << s.retired
              << " capture_seconds=" << s.capture_seconds
              << " analysis_seconds=" << s.analysis_seconds << "\n";
    return s.report.empty() ? 1 : 0;
  }
  if (mode == "materialize") {
    apps::AppConfig cfg;
    cfg.nranks = ranks;
    cfg.ranks_per_node = std::max(1, ranks / 8);
    double t0 = now_seconds();
    const auto bundle = apps::run_app(*flash, cfg);
    const double cap = now_seconds() - t0;
    const long capture_peak_kb = current_rss_kb();
    const std::string capture_heap_kb = heap_in_use_kb();
    t0 = now_seconds();
    const auto text = materialized_report_text(bundle);
    const double ana = now_seconds() - t0;
    std::cout << "records=" << bundle.records.size()
              << " rss_kb=" << current_rss_kb()
              << " capture_peak_kb=" << capture_peak_kb
              << " capture_heap_kb=" << capture_heap_kb
              << " spill_bytes=0 peak_buffered=0 capture_seconds=" << cap
              << " analysis_seconds=" << ana << "\n";
    return text.empty() ? 1 : 0;
  }
  std::cerr << "usage: bench_perf_scaling --rss-probe "
               "stream|materialize|phased|phased-windowed RANKS "
               "[APP]\n";
  return 2;
}

struct ProbeResult {
  bool ok = false;
  std::uint64_t records = 0;
  long rss_kb = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_buffered = 0;
  std::uint64_t live_peak = 0;
  std::uint64_t retired = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
};

/// Re-exec this binary as an --rss-probe child and parse its one-line
/// report. A fresh process per measurement is the only way getrusage's
/// high-water mark means anything.
ProbeResult probe_pipeline(const std::string& mode, int ranks,
                           const std::string& app = "FLASH-fbs") {
  ProbeResult r;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return r;
  exe[n] = '\0';
  const std::string cmd = std::string(exe) + " --rss-probe " + mode + " " +
                          std::to_string(ranks) + " '" + app +
                          "' 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char line[512] = {};
  const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
  const int rc = ::pclose(pipe);
  if (!got || rc != 0) return r;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    try {
      if (key == "records") r.records = std::stoull(val);
      else if (key == "rss_kb") r.rss_kb = std::stol(val);
      else if (key == "spill_bytes") r.spill_bytes = std::stoull(val);
      else if (key == "peak_buffered") r.peak_buffered = std::stoull(val);
      else if (key == "live_peak") r.live_peak = std::stoull(val);
      else if (key == "retired") r.retired = std::stoull(val);
      else if (key == "capture_seconds") r.capture_seconds = std::stod(val);
      else if (key == "analysis_seconds") r.analysis_seconds = std::stod(val);
    } catch (const std::exception&) {
      return r;
    }
  }
  r.ok = true;
  return r;
}

RunToReportPoint run_to_report(const apps::AppInfo& info, int ranks,
                               int reps) {
  RunToReportPoint pt;
  pt.ranks = ranks;
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);

  // One estimator for both pipelines: the capture and analysis times of
  // the rep whose sum is smallest, never phases from different reps.
  std::string report_text;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    double t0 = now_seconds();
    const auto bundle = apps::run_app(info, cfg);
    const double capture = now_seconds() - t0;
    t0 = now_seconds();
    auto text = materialized_report_text(bundle);
    const double analysis = now_seconds() - t0;
    if (text.empty()) std::abort();
    if (capture + analysis < best) {
      best = capture + analysis;
      pt.capture_seconds = capture;
      pt.analysis_seconds = analysis;
      pt.records = bundle.records.size();
      report_text = std::move(text);
    }
  }

  // The streaming pipeline on the identical workload; its report must be
  // byte-identical (the differential tests enforce this broadly, the
  // bench re-checks the exact configuration it publishes numbers for).
  StreamRun stream;
  best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto s = stream_run_to_report(info, ranks);
    if (s.capture_seconds + s.analysis_seconds < best) {
      best = s.capture_seconds + s.analysis_seconds;
      stream = std::move(s);
    }
  }
  if (stream.report != report_text) {
    std::cerr << "FAIL: streaming report differs from materialized at ranks="
              << ranks << "\n";
    std::abort();
  }
  pt.stream_capture_seconds = stream.capture_seconds;
  pt.stream_analysis_seconds = stream.analysis_seconds;
  pt.spill_bytes = stream.spill_bytes;
  pt.stream_peak_buffered = stream.peak_buffered;
  pt.live_peak = stream.live_peak;
  pt.retired = stream.retired;
  return pt;
}

/// One obs_overhead sample: the full run->report pipeline (capture +
/// materialized analysis + report) at the given observability level —
/// 0 = off, 1 = metrics registry, 2 = metrics + cost-attribution ledger.
/// A fresh obs::Run per sample keeps each timed iteration identical
/// (metrics and ledger rows accumulate across a Run's lifetime).
double obs_overhead_run(const apps::AppInfo& info, int ranks, int level,
                        std::string* report_out) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  obs::Run run(obs::Config{.metrics = level >= 1,
                           .tracing = false,
                           .ledger = level >= 2});
  if (level >= 1) cfg.obs = &run;
  const double t0 = now_seconds();
  const auto bundle = apps::run_app(info, cfg);
  const auto text = materialized_report_text(bundle);
  const double dt = now_seconds() - t0;
  if (text.empty()) std::abort();  // keep the report alive
  if (level >= 2 && run.ledger.empty()) std::abort();
  if (report_out != nullptr) *report_out = text;
  return dt;
}

int run(bool check, bool scale64k, const std::string& out_path,
        const std::string& sha, const std::string& timestamp,
        const std::string& host) {
  const std::size_t adversarial_n = check ? 8'192 : 16'384;
  const int reps = check ? 2 : 3;

  // --- experiment 1: sweep vs scan on the adversarial log ---------------
  const auto adv = long_reads(adversarial_n);
  std::vector<core::OverlapPair> sweep_pairs, scan_pairs;
  // Interleaved best-of (sweep, scan, sweep, scan, ...): a transient load
  // spike on a shared host hits both sides instead of biasing the ratio
  // the --check floor asserts on. Check mode takes an extra rep — the
  // floor sits close to the single-core margin, so one noisy sample must
  // never decide it.
  double sweep_s = 1e300, scan_s = 1e300;
  for (int rep = 0; rep < (check ? 4 : reps); ++rep) {
    double t0 = now_seconds();
    sweep_pairs = core::detect_overlaps(adv);
    sweep_s = std::min(sweep_s, now_seconds() - t0);
    t0 = now_seconds();
    scan_pairs = core::detect_overlaps_scan(adv);
    scan_s = std::min(scan_s, now_seconds() - t0);
  }
  if (sweep_pairs != scan_pairs) {
    std::cerr << "FAIL: sweep and scan disagree on the adversarial log\n";
    return 1;
  }
  const double sweep_speedup = scan_s / sweep_s;
  std::cout << "sweep " << sweep_s << " s   scan " << scan_s
            << " s   speedup " << sweep_speedup << "x\n";

  // --- experiment 2: interned vs string-keyed record grouping -----------
  // The refactor's core claim: resolving each record's file by FileId into
  // a dense column beats hashing/comparing its path string into a
  // string-keyed map (the retired reconstruction hot path).
  const std::size_t rec_files = check ? 512 : 2'048;
  const std::size_t rec_records = check ? 400'000 : 4'000'000;
  const auto bundle = make_bundle(rec_files, rec_records);
  std::size_t string_groups = 0, id_groups = 0;
  const double string_s =
      best_of(reps, [&] { string_groups = group_by_string(bundle); });
  const double interned_s =
      best_of(reps, [&] { id_groups = group_by_id(bundle); });
  if (string_groups != id_groups) {
    std::cerr << "FAIL: interned grouping found " << id_groups
              << " files, string grouping found " << string_groups << "\n";
    return 1;
  }
  const double intern_speedup = string_s / interned_s;
  std::cout << "reconstruction grouping: string-keyed " << string_s
            << " s   interned " << interned_s << " s   speedup "
            << intern_speedup << "x\n";

  // --- experiment 3: capture — bucketed scheduler vs heap oracle -------
  // Both arms run the one emitter; the heap scheduler is the test-only
  // oracle. The bucketed scheduler must produce the exact same compact
  // bytes and beat it >=2x on this delay(0)-heavy workload.
  const int cap_roots = check ? 32'768 : 65'536;
  const int cap_rounds = check ? 8 : 16;
  // Interleave the repetitions (bucketed, heap, bucketed, heap, ...) and
  // keep each side's best so a transient load spike on a shared host hits
  // both schedulers instead of biasing one of them.
  CaptureRun cap_bucketed, cap_heap;
  for (int rep = 0; rep < (check ? 4 : reps); ++rep) {
    auto b =
        run_capture(sim::SchedulerKind::Bucketed, cap_roots, cap_rounds, 1);
    auto h = run_capture(sim::SchedulerKind::Heap, cap_roots, cap_rounds, 1);
    if (rep == 0) {
      cap_bucketed = std::move(b);
      cap_heap = std::move(h);
    } else {
      cap_bucketed.seconds = std::min(cap_bucketed.seconds, b.seconds);
      cap_heap.seconds = std::min(cap_heap.seconds, h.seconds);
    }
  }
  if (cap_bucketed.compact_bytes != cap_heap.compact_bytes) {
    std::cerr << "FAIL: bucketed and heap schedulers produced different "
                 "bundles\n";
    return 1;
  }
  const double capture_speedup = cap_heap.seconds / cap_bucketed.seconds;
  std::cout << "capture (" << cap_bucketed.events << " events): bucketed "
            << cap_bucketed.seconds << " s   heap " << cap_heap.seconds
            << " s   speedup " << capture_speedup << "x\n";

  // --- experiment 4: end-to-end run -> report on a registered app -------
  const auto* flash = apps::find_app("FLASH-fbs");
  if (flash == nullptr) {
    std::cerr << "FAIL: FLASH-fbs not in the registry\n";
    return 1;
  }
  std::vector<RunToReportPoint> r2r;
  for (const int ranks : check ? std::vector<int>{64}
                               : std::vector<int>{64, 256, 1024}) {
    auto pt = run_to_report(*flash, ranks, check ? 1 : 2);
    if (!check) {
      // Peak RSS per pipeline, each in its own child process so one
      // pipeline's allocator high-water can't shadow the other's.
      const auto sp = probe_pipeline("stream", ranks);
      const auto mp = probe_pipeline("materialize", ranks);
      if (sp.ok) pt.stream_rss_kb = sp.rss_kb;
      if (mp.ok) pt.materialized_rss_kb = mp.rss_kb;
    }
    std::cout << "run_to_report FLASH-fbs ranks=" << pt.ranks << "  records="
              << pt.records << "  capture " << pt.capture_seconds
              << " s   analysis " << pt.analysis_seconds
              << " s   stream capture " << pt.stream_capture_seconds
              << " s + analysis " << pt.stream_analysis_seconds
              << " s (spill " << pt.spill_bytes << " B, rss "
              << pt.stream_rss_kb << " vs " << pt.materialized_rss_kb
              << " KiB)\n";
    r2r.push_back(pt);
  }
  if (scale64k) {
    // 65536 ranks is streaming-only territory: the materialized pipeline
    // would hold the whole ~26M-record array in memory at once. The point
    // comes entirely from a subprocess probe so its RSS is honest too.
    const int big = 65'536;
    std::cout << "run_to_report FLASH-fbs ranks=" << big
              << " (streaming-only, subprocess)...\n";
    const auto sp = probe_pipeline("stream", big);
    if (!sp.ok) {
      std::cerr << "FAIL: 65536-rank streaming probe did not complete\n";
      return 1;
    }
    RunToReportPoint pt;
    pt.ranks = big;
    pt.records = sp.records;
    pt.stream_capture_seconds = sp.capture_seconds;
    pt.stream_analysis_seconds = sp.analysis_seconds;
    pt.spill_bytes = sp.spill_bytes;
    pt.stream_peak_buffered = sp.peak_buffered;
    pt.stream_rss_kb = sp.rss_kb;
    pt.streaming_only = true;
    pt.live_peak = sp.live_peak;
    pt.retired = sp.retired;
    std::cout << "run_to_report FLASH-fbs ranks=" << pt.ranks << "  records="
              << pt.records << "  stream capture " << pt.stream_capture_seconds
              << " s + analysis " << pt.stream_analysis_seconds
              << " s (spill " << pt.spill_bytes << " B, rss "
              << pt.stream_rss_kb << " KiB)\n";
    r2r.push_back(pt);

    // Twice the ranks in less memory: an end-to-end run at 131072 ranks
    // must fit under the RSS the 65536-rank point above needed.
    // FLASH's RSS at this scale is collective-state, not log (its POSIX
    // I/O funnels through 6 aggregators), so the point uses pF3D-IO —
    // file-per-process POSIX, the paper's N-N checkpoint kernel — whose
    // trace grows with every rank. Enforced here, not just recorded.
    const int huge = 131'072;
    std::cout << "run_to_report pF3D-IO ranks=" << huge
              << " (streaming-only, subprocess)...\n";
    const auto wp = probe_pipeline("stream", huge, "pF3D-IO");
    if (!wp.ok) {
      std::cerr << "FAIL: 131072-rank streaming probe did not complete\n";
      return 1;
    }
    if (wp.rss_kb >= sp.rss_kb) {
      std::cerr << "FAIL: pF3D-IO stream RSS at " << huge << " ranks ("
                << wp.rss_kb << " KiB) not below the FLASH-fbs stream RSS at "
                << big << " ranks (" << sp.rss_kb << " KiB)\n";
      return 1;
    }
    RunToReportPoint wpt;
    wpt.app = "pF3D-IO";
    wpt.ranks = huge;
    wpt.records = wp.records;
    wpt.stream_capture_seconds = wp.capture_seconds;
    wpt.stream_analysis_seconds = wp.analysis_seconds;
    wpt.spill_bytes = wp.spill_bytes;
    wpt.stream_peak_buffered = wp.peak_buffered;
    wpt.stream_rss_kb = wp.rss_kb;
    wpt.streaming_only = true;
    wpt.live_peak = wp.live_peak;
    wpt.retired = wp.retired;
    std::cout << "run_to_report " << wpt.app << " ranks=" << wpt.ranks
              << "  records=" << wpt.records << "  stream capture "
              << wpt.stream_capture_seconds << " s + analysis "
              << wpt.stream_analysis_seconds << " s (spill " << wpt.spill_bytes
              << " B, rss " << wpt.stream_rss_kb << " KiB, live peak "
              << wpt.live_peak << " files, retired " << wpt.retired
              << " accesses)\n";
    r2r.push_back(wpt);
  }

  // --- experiment 4c: memory scaling — full-log vs windowed analysis ----
  // The tentpole claim in one curve: with per-file retirement the
  // analyzer's resident set is bounded by the live window (one checkpoint
  // generation of the phased N-N trace), not the trace, so the
  // windowed/full-log RSS gap widens with rank count. Every point is a
  // fresh subprocess feeding the synthesized trace straight into the
  // analyzer — no simulator, so the probe measures the analysis alone.
  struct MemoryPoint {
    int ranks = 0;
    ProbeResult full;
    ProbeResult windowed;
  };
  std::vector<MemoryPoint> mem;
  {
    // Identity first: full-log, windowed, and the materialized oracle on
    // the identical phased trace (the differential tests cover every
    // registered app; the bench re-checks the workload it publishes
    // numbers for, against the third pipeline too).
    const int id_ranks = check ? 64 : 256;
    const auto full = phased_analysis(id_ranks, false);
    const auto win = phased_analysis(id_ranks, true);
    trace::TraceBundle oracle;
    oracle.nranks = id_ranks;
    for (int p = 0; p < kPhasedPhases; ++p) {
      for (int r = 0; r < id_ranks; ++r) {
        (void)oracle.intern("ckpt." + std::to_string(p) + "." +
                            std::to_string(r));
      }
    }
    (void)phased_records(id_ranks, [&](const trace::Record& rec) {
      oracle.records.push_back(rec);
    });
    const auto oracle_text = materialized_report_text(oracle);
    if (full.report != oracle_text || win.report != oracle_text) {
      std::cerr << "FAIL: phased-trace reports disagree (full-log vs "
                   "windowed vs materialized oracle) at ranks="
                << id_ranks << "\n";
      return 1;
    }
    if (win.retired == 0 ||
        win.live_peak >= static_cast<std::size_t>(kPhasedPhases) *
                             static_cast<std::size_t>(id_ranks)) {
      std::cerr << "FAIL: windowed analysis must retire files mid-stream "
                   "(live peak " << win.live_peak << " of "
                << kPhasedPhases * id_ranks << " files, retired "
                << win.retired << ")\n";
      return 1;
    }
    std::cout << "memory_scaling identity ranks=" << id_ranks
              << "  all three pipelines byte-identical (live peak "
              << win.live_peak << " files, retired " << win.retired
              << " accesses)\n";
  }
  ProbeResult ms_full_64k, ms_win_128k;
  if (!check) {
    for (const int ranks : {1024, 4096, 16384}) {
      MemoryPoint pt;
      pt.ranks = ranks;
      pt.full = probe_pipeline("phased", ranks);
      pt.windowed = probe_pipeline("phased-windowed", ranks);
      if (!pt.full.ok || !pt.windowed.ok) {
        std::cerr << "FAIL: memory_scaling probe did not complete at ranks="
                  << ranks << "\n";
        return 1;
      }
      std::cout << "memory_scaling ranks=" << ranks << "  full-log rss "
                << pt.full.rss_kb << " KiB   windowed rss "
                << pt.windowed.rss_kb << " KiB ("
                << static_cast<double>(pt.full.rss_kb) /
                       static_cast<double>(pt.windowed.rss_kb)
                << "x, live peak " << pt.windowed.live_peak
                << " files, retired " << pt.windowed.retired << ")\n";
      mem.push_back(pt);
    }
    // The headline bound: at 16384 ranks the windowed analyzer must hold
    // at least 2x below the full-log path.
    const auto& last = mem.back();
    if (last.windowed.rss_kb * 2 > last.full.rss_kb) {
      std::cerr << "FAIL: windowed RSS at 16384 ranks ("
                << last.windowed.rss_kb
                << " KiB) not >=2x below full-log stream ("
                << last.full.rss_kb << " KiB)\n";
      return 1;
    }
    if (scale64k) {
      // Double the ranks in less memory: the windowed analyzer at 131072
      // ranks must fit under what the full-log path spent on 65536.
      std::cout << "memory_scaling scale points (subprocess)...\n";
      ms_full_64k = probe_pipeline("phased", 65'536);
      ms_win_128k = probe_pipeline("phased-windowed", 131'072);
      if (!ms_full_64k.ok || !ms_win_128k.ok) {
        std::cerr << "FAIL: memory_scaling scale probe did not complete\n";
        return 1;
      }
      if (ms_win_128k.rss_kb >= ms_full_64k.rss_kb) {
        std::cerr << "FAIL: windowed RSS at 131072 ranks ("
                  << ms_win_128k.rss_kb
                  << " KiB) not below the full-log RSS at 65536 ranks ("
                  << ms_full_64k.rss_kb << " KiB)\n";
        return 1;
      }
      std::cout << "memory_scaling ranks=65536 full-log rss "
                << ms_full_64k.rss_kb << " KiB   ranks=131072 windowed rss "
                << ms_win_128k.rss_kb << " KiB (live peak "
                << ms_win_128k.live_peak << " files)\n";
    }
  }

  // --- experiment 5: cluster failover — degraded vs healthy -------------
  // The same workload on the multi-server backend, healthy and with one
  // MDS plus one OST crashed early in the run. Time-to-recover shows up
  // as the simulated completion-time overhead (failover backoff + holes);
  // wall throughput shows the capture-side cost of the degraded path.
  const auto* lbann = apps::find_app("LBANN");
  if (lbann == nullptr) {
    std::cerr << "FAIL: LBANN not in the registry\n";
    return 1;
  }
  apps::AppConfig cl_cfg;
  cl_cfg.nranks = check ? 64 : 256;
  cl_cfg.ranks_per_node = cl_cfg.nranks / 8;
  vfs::ClusterConfig cl_topo;
  cl_topo.mds_count = 2;
  cl_topo.ost_count = 4;
  auto sim_end = [](const trace::TraceBundle& b) {
    SimTime end = 0;
    for (const auto& r : b.records) end = std::max(end, r.tend);
    return end;
  };
  trace::TraceBundle cl_healthy;
  const double cl_healthy_s = best_of(
      reps, [&] { cl_healthy = apps::run_app(*lbann, cl_cfg, cl_topo); });
  apps::FaultSetup cl_setup;
  cl_setup.plan =
      fault::FaultPlan::parse("crash_mds:id=0,t=1ms; crash_ost:id=1,t=1ms");
  cl_setup.seed = 5;
  fault::FaultStats cl_stats;
  trace::TraceBundle cl_degraded;
  const double cl_degraded_s = best_of(reps, [&] {
    cl_degraded =
        apps::run_app(*lbann, cl_cfg, cl_topo, {}, &cl_setup, &cl_stats);
  });
  const SimTime cl_recover =
      sim_end(cl_degraded) - sim_end(cl_healthy);
  std::cout << "cluster_failover LBANN ranks=" << cl_cfg.nranks
            << "  healthy " << cl_healthy_s << " s   degraded "
            << cl_degraded_s << " s   sim overhead " << cl_recover
            << " ns   redirects " << cl_stats.failover_redirects
            << "   degraded reads " << cl_stats.degraded_reads << "\n";

  // --- experiment 6: observability overhead ----------------------------
  // The pure-observer contract bounds what obs may change (nothing, byte
  // for byte); this bounds what it may cost. Same pipeline three ways —
  // obs off, metrics registry wired in, metrics + the cost-attribution
  // ledger. The true overhead is small (Ledger::record allocates
  // nothing on the hot path), but preemption bursts on a loaded CI host
  // swing short samples by several percent. 256 ranks keeps each sample
  // long enough that one burst stays small relative to it, and reps
  // interleave the three arms. An arm's overhead is the median of its
  // per-rep paired ratios to off (adjacent samples share a load regime).
  // The gate fails an arm only when that overhead reaches the 5% bound
  // *and* the arm's median sample lies above off's upper quartile, i.e.
  // the gap is wider than off's own spread; a ratio over the bound
  // without that separation is printed as unresolved and passes.
  const int obs_ranks = 256;
  const int obs_reps = check ? 9 : 5;
  constexpr double kObsBound = 0.05;
  std::string obs_off_text, obs_on_text, obs_ledger_text;
  std::vector<double> obs_off_t, obs_on_t, obs_ledger_t;
  std::vector<double> obs_on_ratio, obs_ledger_ratio;
  const auto quantile = [](std::vector<double> v, std::size_t num,
                           std::size_t den) {
    std::sort(v.begin(), v.end());
    return v[v.size() * num / den];
  };
  const auto median = [&](const std::vector<double>& v) {
    return quantile(v, 1, 2);
  };
  // Check mode gets one escalation: if the first evaluation lands above
  // the bound (a sustained load window can corrupt a whole round), take
  // another full round of reps and judge the combined sample.
  for (int attempt = 0; attempt < (check ? 2 : 1); ++attempt) {
    for (int rep = 0; rep < obs_reps; ++rep) {
      const bool first = attempt == 0 && rep == 0;
      std::string* t0 = first ? &obs_off_text : nullptr;
      std::string* t1 = first ? &obs_on_text : nullptr;
      std::string* t2 = first ? &obs_ledger_text : nullptr;
      // Each sample is the quicker of two back-to-back runs, so one
      // preemption burst does not make it an outlier.
      const auto sample = [&](int level, std::string* text) {
        return std::min(obs_overhead_run(*flash, obs_ranks, level, text),
                        obs_overhead_run(*flash, obs_ranks, level, nullptr));
      };
      const double off = sample(0, t0);
      const double on = sample(1, t1);
      const double led = sample(2, t2);
      obs_off_t.push_back(off);
      obs_on_t.push_back(on);
      obs_ledger_t.push_back(led);
      obs_on_ratio.push_back(on / off);
      obs_ledger_ratio.push_back(led / off);
    }
    if (median(obs_on_ratio) - 1.0 < kObsBound &&
        median(obs_ledger_ratio) - 1.0 < kObsBound) {
      break;
    }
  }
  const double obs_off_s = median(obs_off_t);
  const double obs_on_s = median(obs_on_t);
  const double obs_ledger_s = median(obs_ledger_t);
  const double obs_on_overhead = median(obs_on_ratio) - 1.0;
  const double obs_ledger_overhead = median(obs_ledger_ratio) - 1.0;
  const double obs_off_q3 = quantile(obs_off_t, 3, 4);
  // "" within the bound, "unresolved" over it but inside off's spread,
  // "over" over it and resolved against noise.
  const auto obs_verdict = [&](double overhead, double arm_s) {
    if (overhead < kObsBound) return "";
    return arm_s > obs_off_q3 ? "over" : "unresolved";
  };
  const std::string obs_on_verdict = obs_verdict(obs_on_overhead, obs_on_s);
  const std::string obs_ledger_verdict =
      obs_verdict(obs_ledger_overhead, obs_ledger_s);
  if (obs_on_text != obs_off_text || obs_ledger_text != obs_off_text) {
    std::cerr << "FAIL: report changed with observability wired in "
                 "(pure-observer contract violated)\n";
    return 1;
  }
  const auto verdict_note = [](const std::string& v) {
    return v.empty() ? std::string{} : ", " + v;
  };
  std::cout << "obs_overhead FLASH-fbs ranks=" << obs_ranks << " reps="
            << obs_off_t.size() << "  median off " << obs_off_s
            << " s   metrics " << obs_on_s << " s (" << obs_on_overhead * 100
            << "%" << verdict_note(obs_on_verdict) << ")   +ledger "
            << obs_ledger_s << " s (" << obs_ledger_overhead * 100 << "%"
            << verdict_note(obs_ledger_verdict) << ")\n";

  if (check) {
    if (obs_on_verdict == "over" || obs_ledger_verdict == "over") {
      std::cerr << "FAIL: observability overhead above the 5% bound "
                   "(metrics " << obs_on_overhead * 100 << "%, +ledger "
                << obs_ledger_overhead * 100
                << "%; median above off's upper quartile "
                << obs_off_q3 << " s)\n";
      return 1;
    }
    if (cl_degraded.records.empty() || cl_stats.mds_failovers != 1 ||
        cl_stats.failover_redirects < 1) {
      std::cerr << "FAIL: cluster failover run must complete degraded with "
                   "one standby promotion (got failovers="
                << cl_stats.mds_failovers
                << ", redirects=" << cl_stats.failover_redirects << ")\n";
      return 1;
    }
    if (cl_stats.degraded_reads == 0) {
      std::cerr << "FAIL: LBANN reads over the dead OST must be degraded\n";
      return 1;
    }
    // Speedup bounds: the algorithmic sweep-vs-scan win holds on any
    // machine.
    if (sweep_speedup < 5.0) {
      std::cerr << "FAIL: sweep-vs-scan speedup " << sweep_speedup
                << "x below the 5x bound\n";
      return 1;
    }
    // Dense FileId indexing must beat per-record string-map lookups on any
    // host; 1.5x is a deliberately loose floor (typically 5-20x).
    if (intern_speedup < 1.5) {
      std::cerr << "FAIL: interned grouping speedup " << intern_speedup
                << "x below the 1.5x bound\n";
      return 1;
    }
    // The capture floor is algorithmic too: O(1) bucket ops vs O(log n)
    // heap ops on a ~16Ki-deep pending set, so it holds on any host.
    if (capture_speedup < 2.0) {
      std::cerr << "FAIL: capture speedup " << capture_speedup
                << "x below the 2x bound\n";
      return 1;
    }
    std::cout << "CHECK PASSED\n";
    return 0;
  }

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  os << "{\n"
     << "  \"git_sha\": \"" << sha << "\",\n"
     << "  \"timestamp\": \"" << timestamp << "\",\n"
     << "  \"host\": \"" << host << "\",\n"
     << "  \"sweep_vs_scan\": {\n"
     << "    \"accesses\": " << adversarial_n << ",\n"
     << "    \"sweep_seconds\": " << sweep_s << ",\n"
     << "    \"scan_seconds\": " << scan_s << ",\n"
     << "    \"speedup\": " << sweep_speedup << "\n"
     << "  },\n"
     << "  \"reconstruction_grouping\": {\n"
     << "    \"files\": " << rec_files << ",\n"
     << "    \"records\": " << rec_records << ",\n"
     << "    \"string_keyed_seconds\": " << string_s << ",\n"
     << "    \"interned_seconds\": " << interned_s << ",\n"
     << "    \"speedup\": " << intern_speedup << "\n"
     << "  },\n"
     << "  \"capture_path\": {\n"
     << "    \"roots\": " << cap_roots << ",\n"
     << "    \"rounds\": " << cap_rounds << ",\n"
     << "    \"events\": " << cap_bucketed.events << ",\n"
     << "    \"bucketed_seconds\": " << cap_bucketed.seconds << ",\n"
     << "    \"heap_seconds\": " << cap_heap.seconds << ",\n"
     << "    \"speedup\": " << capture_speedup << "\n"
     << "  },\n"
     << "  \"run_to_report\": {\n"
     << "    \"app\": \"FLASH-fbs\",\n"
     << "    \"points\": [";
  for (std::size_t i = 0; i < r2r.size(); ++i) {
    const auto& pt = r2r[i];
    os << (i ? ", " : "") << "{\"app\": \"" << pt.app
       << "\", \"ranks\": " << pt.ranks
       << ", \"records\": " << pt.records
       << ", \"streaming_only\": " << (pt.streaming_only ? "true" : "false");
    if (!pt.streaming_only) {
      os << ", \"capture_seconds\": " << pt.capture_seconds
         << ", \"analysis_seconds\": " << pt.analysis_seconds;
    }
    os << ", \"stream_capture_seconds\": " << pt.stream_capture_seconds
       << ", \"stream_analysis_seconds\": " << pt.stream_analysis_seconds
       << ", \"spill_bytes\": " << pt.spill_bytes
       << ", \"stream_peak_buffered\": " << pt.stream_peak_buffered
       << ", \"stream_rss_kb\": " << pt.stream_rss_kb;
    if (!pt.streaming_only) {
      os << ", \"materialized_rss_kb\": " << pt.materialized_rss_kb;
    }
    os << ", \"live_peak_files\": " << pt.live_peak
       << ", \"retired_accesses\": " << pt.retired << "}";
  }
  os << "]\n"
     << "  },\n"
     << "  \"memory_scaling\": {\n"
     << "    \"workload\": \"phased N-N checkpoint (synthetic trace, "
        "analysis only)\",\n"
     << "    \"phases\": " << kPhasedPhases << ",\n"
     << "    \"writes_per_rank_per_phase\": " << kPhasedWrites << ",\n"
     << "    \"points\": [";
  for (std::size_t i = 0; i < mem.size(); ++i) {
    const auto& pt = mem[i];
    os << (i ? ", " : "") << "{\"ranks\": " << pt.ranks
       << ", \"records\": " << pt.full.records
       << ", \"full_log_rss_kb\": " << pt.full.rss_kb
       << ", \"windowed_rss_kb\": " << pt.windowed.rss_kb
       << ", \"rss_ratio\": "
       << static_cast<double>(pt.full.rss_kb) /
              static_cast<double>(pt.windowed.rss_kb)
       << ", \"live_peak_files\": " << pt.windowed.live_peak
       << ", \"retired_accesses\": " << pt.windowed.retired
       << ", \"windowed_capture_seconds\": " << pt.windowed.capture_seconds
       << ", \"windowed_analysis_seconds\": " << pt.windowed.analysis_seconds
       << "}";
  }
  os << "]";
  if (ms_full_64k.ok && ms_win_128k.ok) {
    os << ",\n"
       << "    \"scale\": {\"full_log_ranks\": 65536, \"full_log_rss_kb\": "
       << ms_full_64k.rss_kb
       << ", \"windowed_ranks\": 131072, \"windowed_rss_kb\": "
       << ms_win_128k.rss_kb
       << ", \"windowed_live_peak_files\": " << ms_win_128k.live_peak << "}";
  }
  os << "\n"
     << "  },\n"
     << "  \"obs_overhead\": {\n"
     << "    \"app\": \"FLASH-fbs\",\n"
     << "    \"ranks\": " << obs_ranks << ",\n"
     << "    \"reps\": " << obs_reps << ",\n"
     << "    \"off_seconds\": " << obs_off_s << ",\n"
     << "    \"metrics_seconds\": " << obs_on_s << ",\n"
     << "    \"metrics_ledger_seconds\": " << obs_ledger_s << ",\n"
     << "    \"metrics_overhead\": " << obs_on_overhead << ",\n"
     << "    \"metrics_ledger_overhead\": " << obs_ledger_overhead << "\n"
     << "  },\n"
     << "  \"cluster_failover\": {\n"
     << "    \"app\": \"LBANN\",\n"
     << "    \"ranks\": " << cl_cfg.nranks << ",\n"
     << "    \"mds\": " << cl_topo.mds_count << ",\n"
     << "    \"ost\": " << cl_topo.ost_count << ",\n"
     << "    \"healthy_seconds\": " << cl_healthy_s << ",\n"
     << "    \"degraded_seconds\": " << cl_degraded_s << ",\n"
     << "    \"healthy_records_per_second\": "
     << static_cast<double>(cl_healthy.records.size()) / cl_healthy_s << ",\n"
     << "    \"degraded_records_per_second\": "
     << static_cast<double>(cl_degraded.records.size()) / cl_degraded_s
     << ",\n"
     << "    \"healthy_sim_end_ns\": " << sim_end(cl_healthy) << ",\n"
     << "    \"degraded_sim_end_ns\": " << sim_end(cl_degraded) << ",\n"
     << "    \"recover_overhead_sim_ns\": " << cl_recover << ",\n"
     << "    \"mds_failovers\": " << cl_stats.mds_failovers << ",\n"
     << "    \"failover_redirects\": " << cl_stats.failover_redirects << ",\n"
     << "    \"degraded_reads\": " << cl_stats.degraded_reads << "\n"
     << "  }\n"
     << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool scale64k = false;
  std::string out = "BENCH_perf.json";
  std::string sha = "unknown";
  std::string timestamp = "unknown";
  std::string host = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--scale64k") == 0) {
      scale64k = true;
    } else if (std::strcmp(argv[i], "--rss-probe") == 0 && i + 2 < argc) {
      const std::string mode = argv[i + 1];
      const int ranks = std::atoi(argv[i + 2]);
      if (ranks < 1) {
        std::cerr << "--rss-probe: RANKS must be >= 1\n";
        return 2;
      }
      const std::string app = i + 3 < argc ? argv[i + 3] : "FLASH-fbs";
      return rss_probe_main(mode, ranks, app);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--sha") == 0 && i + 1 < argc) {
      sha = argv[++i];
    } else if (std::strcmp(argv[i], "--timestamp") == 0 && i + 1 < argc) {
      timestamp = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else {
      std::cerr << "usage: bench_perf_scaling [--check] [--scale64k] "
                   "[--out FILE] [--sha SHA] [--timestamp TS] [--host NAME] "
                   "| --rss-probe stream|materialize|phased|phased-windowed "
                   "RANKS [APP]\n";
      return 2;
    }
  }
  return run(check, scale64k, out, sha, timestamp, host);
}
