// pfsem — command-line front end to the toolkit.
//
//   pfsem list                         list bundled application models
//   pfsem run <config> [options]       simulate + full analysis report
//   pfsem trace <config> <out.trc>     simulate and save the trace (the
//                                      spilled chunk stream's bytes)
//   pfsem analyze <trace.trc>          analyze a saved trace
//   pfsem report <config|trace.trc>    full Recorder-style run report
//   pfsem advise <config|trace.trc>    weakest-safe-model verdict only
//   pfsem tune <config|trace.trc>      per-file consistency tuning report
//   pfsem remedy <config|trace.trc>    minimal commit insertions clearing
//                                      cross-process conflicts
//   pfsem obs-diff A.json B.json       compare two --obs-json dumps and
//                                      exit nonzero on regression
//
// Options for run/trace/advise/tune on a config:
//   --ranks N        MPI ranks (default 64)
//   --skew NS        max injected clock skew in ns (default 0)
//   --seed S         workload seed
//   --faults SPEC    fault plan (see docs/faults.md), e.g.
//                    "eio:p=0.01,ops=write;crash:rank=3,t=2ms"
//   --mds N          metadata servers: run on the multi-server PfsCluster
//                    backend with N namespace shards (see docs/topology.md)
//   --ost M          data servers for the cluster backend
//   --stripe K       stripe block size, power of two; K/M suffixes are
//                    KiB/MiB (default 64K). Implies the cluster backend.
//   --fault-seed S   fault-injection seed (default 1)
//   --retries N      I/O retries per op after the first attempt (default 0)
//   --threads N      analysis threads (N >= 1; omit for all hardware
//                    threads; output is byte-identical for every N)
//   --stream         report/tune: chunked streaming pipeline —
//                    records spill to a bounded store as they are
//                    captured and the analysis consumes them
//                    incrementally, so peak memory stays flat in rank
//                    count. Output is byte-identical to the default
//                    materialized path (see docs/performance.md). The
//                    analysis is windowed: per-file overlap/conflict/
//                    pattern/tuning run the moment the stream frontier
//                    retires a file, and its accesses are freed, so
//                    memory is bounded by the *live* file window rather
//                    than the whole log. `trace` always captures
//                    this way, so it accepts --stream as a no-op.
//   --chunk-records N  records the capture hands the spill per batch
//                    (default 4096); the trace's chunks are a fixed size,
//                    so the bytes written do not depend on it
//   --spill-mem MB   in-memory spill ceiling before chunks go to a temp
//                    file (default 64; at most SIZE_MAX >> 20)
//   --obs            observability: print the run's metrics summary
//   --obs-out FILE   write the stable metrics dump (byte-identical across
//                    --threads; see docs/observability.md)
//   --obs-trace FILE write a Chrome trace_event JSON timeline (load in
//                    ui.perfetto.dev or chrome://tracing)
//   --obs-ledger     cost-attribution ledger: per-(file × rank × op-class)
//                    stall/lock/RPC/byte rows; adds a top-N costliest
//                    files table to --obs / report output
//   --obs-json FILE  versioned structured JSON export (manifest + metric
//                    catalogue + ledger rows); implies --obs-ledger.
//                    Feed two of these to `pfsem obs-diff`.
// Every obs output flag accepts `-` for stdout, and file destinations
// are opened (and thus validated) before the simulation starts.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "pfsem/exec/pool.hpp"
#include "pfsem/obs/diff.hpp"
#include "pfsem/obs/export.hpp"
#include "pfsem/obs/obs.hpp"

#include "pfsem/apps/driver.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/metadata_census.hpp"
#include "pfsem/core/metadata_conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/core/remedy.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/tuning.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/table.hpp"

// Short commit hash baked in by src/tools/CMakeLists.txt for the JSON
// export manifest; "unknown" outside a git checkout.
#ifndef PFSEM_GIT_SHA
#define PFSEM_GIT_SHA "unknown"
#endif

namespace {

using namespace pfsem;

struct Options {
  int ranks = 64;
  SimDuration skew = 0;
  std::uint64_t seed = 42;
  bool strict = false;   // remedy: include same-process conflicts
  std::string faults;    // fault plan spec ("" = fault-free)
  std::uint64_t fault_seed = 1;
  // Multi-server topology (--mds/--ost/--stripe); any flag names a
  // topology instead of the single-server preset (fault-free output is
  // byte-identical either way).
  bool cluster = false;
  int mds = 1;
  int ost = 1;
  Offset stripe = 64u << 10;
  int retries = 0;  // retries per op after the first attempt
  int threads = 0;  // analysis threads (0 = all hardware threads)
  // Chunked streaming pipeline (--stream: report and tune; always on
  // for trace).
  bool stream = false;
  std::size_t chunk_records = apps::AppConfig{}.stream_chunk_records;
  std::size_t spill_mem_mb = 64;
  // Observability (--obs / --obs-out / --obs-trace / --obs-ledger /
  // --obs-json).
  bool obs_print = false;     // print the metrics summary
  bool obs_ledger = false;    // cost-attribution ledger (--obs-json implies)
  std::string obs_out;        // stable metrics dump destination ("" = none)
  std::string obs_trace;      // Chrome trace JSON destination ("" = none)
  std::string obs_json;       // structured JSON export destination ("" = none)
  std::string subject;        // argv[2]: config name or trace path (manifest)
  // The run context outlives simulation AND analysis (shared so Options
  // stays copyable; obs::Run itself is not).
  std::shared_ptr<obs::Run> obs_run;
  // Output destinations, opened at parse time so an unwritable path fails
  // before the simulation runs ("-" aliases stdout, non-owning). The
  // trace sink stays open for the whole run under --stream: the tracer
  // flushes spans into it at chunk boundaries instead of buffering.
  std::shared_ptr<std::ostream> obs_out_os;
  std::shared_ptr<std::ostream> obs_trace_os;
  std::shared_ptr<std::ostream> obs_json_os;
  // Filled by obtain() when the run executed under fault injection.
  bool ran_faults = false;
  fault::FaultStats fault_stats;
};

int usage() {
  std::cerr << "usage: pfsem <command> [args]\n"
               "  pfsem list\n"
               "  pfsem run <config> [--ranks N] [--skew NS] [--seed S]\n"
               "            [--faults SPEC] [--fault-seed S] [--retries N]\n"
               "  pfsem trace <config> <out.trc> [options]\n"
               "  pfsem analyze <trace.trc>\n"
               "  pfsem report <config|trace.trc> [options]\n"
               "  pfsem advise <config|trace.trc> [options]\n"
               "  pfsem tune <config|trace.trc> [options]\n"
               "  pfsem remedy <config|trace.trc> [--strict] [options]\n"
               "  pfsem obs-diff <a.json> <b.json> [--threshold F]\n"
               "common options: --threads N (N >= 1; omit for all cores),\n"
               "                --obs, --obs-out <file>, --obs-trace <file>,\n"
               "                --obs-ledger, --obs-json <file> ('-' = "
               "stdout),\n"
               "                --mds N --ost M --stripe K (multi-server "
               "cluster backend)\n"
               "report/tune: --stream [--chunk-records N] "
               "[--spill-mem MB]\n"
               "                (chunked streaming pipeline with windowed "
               "analysis;\n"
               "                output is byte-identical)\n"
               "trace: [--chunk-records N] [--spill-mem MB] (it always "
               "streams)\n";
  return 2;
}

/// Parse a --stripe value: BYTES with an optional K/M (KiB/MiB) suffix;
/// must come out a positive power of two.
Offset parse_stripe(const std::string& s) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    throw Error("--stripe wants BYTES[K|M], got '" + s + "'");
  }
  const std::string suffix = s.substr(pos);
  if (suffix == "K" || suffix == "k") v <<= 10;
  else if (suffix == "M" || suffix == "m") v <<= 20;
  else if (!suffix.empty()) {
    throw Error("--stripe wants BYTES[K|M], got '" + s + "'");
  }
  if (v == 0 || (v & (v - 1)) != 0) {
    throw Error("--stripe wants a positive power-of-two block size, got '" +
                s + "'");
  }
  return static_cast<Offset>(v);
}

/// Open an observability output destination at option-parse time, so a
/// bad path fails with a clear error *before* the simulation runs. "-"
/// aliases stdout (non-owning).
std::shared_ptr<std::ostream> open_obs_sink(const std::string& path,
                                            const std::string& flag) {
  if (path == "-") {
    return {std::shared_ptr<std::ostream>{}, &std::cout};
  }
  auto os = std::make_shared<std::ofstream>(path);
  if (!*os) {
    throw Error(flag + ": cannot open '" + path + "' for writing");
  }
  return std::shared_ptr<std::ostream>(std::move(os));
}

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  if (argc > 2) opt.subject = argv[2];
  // `trace` has one path, the streaming capture; --stream selects nothing.
  opt.stream = std::strcmp(argv[1], "trace") == 0;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--ranks") opt.ranks = std::stoi(next());
    else if (a == "--skew") opt.skew = std::stoll(next());
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--strict") opt.strict = true;
    else if (a == "--faults") opt.faults = next();
    else if (a == "--fault-seed") opt.fault_seed = std::stoull(next());
    else if (a == "--mds") {
      opt.mds = std::stoi(next());
      opt.cluster = true;
      if (opt.mds < 1) {
        throw Error("--mds wants at least one metadata server, got " +
                    std::to_string(opt.mds));
      }
    }
    else if (a == "--ost") {
      opt.ost = std::stoi(next());
      opt.cluster = true;
      if (opt.ost < 1) {
        throw Error("--ost wants at least one data server, got " +
                    std::to_string(opt.ost));
      }
    }
    else if (a == "--stripe") {
      opt.stripe = parse_stripe(next());
      opt.cluster = true;
    }
    else if (a == "--retries") opt.retries = std::stoi(next());
    else if (a == "--threads") {
      opt.threads = std::stoi(next());
      if (opt.threads <= 0) {
        throw Error("--threads wants a positive thread count, got " +
                    std::to_string(opt.threads) +
                    " (omit the flag to use all hardware threads)");
      }
    }
    else if (a == "--stream") opt.stream = true;
    else if (a == "--chunk-records") {
      const long long v = std::stoll(next());
      if (v < 1) {
        throw Error("--chunk-records wants a positive record count, got " +
                    std::to_string(v));
      }
      opt.chunk_records = static_cast<std::size_t>(v);
    }
    else if (a == "--spill-mem") {
      const long long v = std::stoll(next());
      if (v < 1) {
        throw Error("--spill-mem wants a positive MiB ceiling, got " +
                    std::to_string(v));
      }
      // The ceiling is kept in bytes; a larger MiB count would wrap.
      if (static_cast<unsigned long long>(v) > (SIZE_MAX >> 20)) {
        throw Error("--spill-mem " + std::to_string(v) +
                    " MiB does not fit in a byte count (at most " +
                    std::to_string(SIZE_MAX >> 20) + ")");
      }
      opt.spill_mem_mb = static_cast<std::size_t>(v);
    }
    else if (a == "--obs") opt.obs_print = true;
    else if (a == "--obs-ledger") opt.obs_ledger = true;
    else if (a == "--obs-out") opt.obs_out = next();
    else if (a == "--obs-trace") opt.obs_trace = next();
    else if (a == "--obs-json") opt.obs_json = next();
    else throw Error("unknown option " + a);
  }
  if (!opt.obs_json.empty()) opt.obs_ledger = true;  // the export needs rows
  if (opt.obs_print || opt.obs_ledger || !opt.obs_out.empty() ||
      !opt.obs_trace.empty() || !opt.obs_json.empty()) {
    opt.obs_run = std::make_shared<obs::Run>(
        obs::Config{.metrics = true, .tracing = !opt.obs_trace.empty(),
                    .ledger = opt.obs_ledger});
    // The analysis pool is wired globally (pools are transient objects
    // created inside the analysis functions).
    exec::set_observer(opt.obs_run.get());
    // Open every file destination now: an unwritable path should fail
    // up front, not after the full simulation has run.
    if (!opt.obs_out.empty()) {
      opt.obs_out_os = open_obs_sink(opt.obs_out, "--obs-out");
    }
    if (!opt.obs_json.empty()) {
      opt.obs_json_os = open_obs_sink(opt.obs_json, "--obs-json");
    }
    if (!opt.obs_trace.empty()) {
      opt.obs_trace_os = open_obs_sink(opt.obs_trace, "--obs-trace");
      if (opt.stream) {
        // Streaming runs flush spans at chunk boundaries, so the trace
        // sink must accept writes for the whole run.
        opt.obs_run->tracer.stream_to(opt.obs_trace_os.get());
      }
    }
  }
  return opt;
}

/// Run manifest for the structured JSON export: the knobs that produced
/// this dump. Deliberately outside the dump's "stable" section — it
/// records exactly the parameters (threads, stream) the stable
/// metrics are invariant to.
obs::Manifest make_manifest(const Options& opt) {
  obs::Manifest m;
  m.emplace_back("tool", "pfsem");
  m.emplace_back("git_sha", PFSEM_GIT_SHA);
  m.emplace_back("subject", opt.subject);
  m.emplace_back("ranks", std::to_string(opt.ranks));
  m.emplace_back("seed", std::to_string(opt.seed));
  m.emplace_back("threads", std::to_string(opt.threads));
  m.emplace_back("stream", opt.stream ? "1" : "0");
  m.emplace_back("window", opt.stream ? "1" : "0");
  m.emplace_back("faults", opt.faults);
  if (opt.cluster) {
    m.emplace_back("mds", std::to_string(opt.mds));
    m.emplace_back("ost", std::to_string(opt.ost));
    m.emplace_back("stripe", std::to_string(opt.stripe));
  }
  return m;
}

/// Write the --obs-out / --obs-trace / --obs-json artifacts and print
/// the summary. Call once per command, after all analysis is done.
void finish_obs(const Options& opt) {
  if (opt.obs_run == nullptr) return;
  if (opt.obs_out_os != nullptr) {
    opt.obs_run->metrics.dump(*opt.obs_out_os);
    opt.obs_out_os->flush();
    if (!*opt.obs_out_os) throw Error("cannot write " + opt.obs_out);
  }
  if (opt.obs_trace_os != nullptr) {
    if (opt.obs_run->tracer.streaming()) {
      opt.obs_run->tracer.finish_stream();
    } else {
      opt.obs_run->tracer.write_chrome_json(*opt.obs_trace_os);
    }
    opt.obs_trace_os->flush();
    if (!*opt.obs_trace_os) throw Error("cannot write " + opt.obs_trace);
  }
  if (opt.obs_json_os != nullptr) {
    obs::write_obs_json(*opt.obs_json_os, *opt.obs_run, make_manifest(opt));
    opt.obs_json_os->flush();
    if (!*opt.obs_json_os) throw Error("cannot write " + opt.obs_json);
  }
  if (opt.obs_print) {
    std::cout << "\n" << obs::summary(*opt.obs_run);
  }
  exec::set_observer(nullptr);
}

/// Everything a named-config simulation needs, shared between the
/// materialized and the streaming entry points.
struct SimSetup {
  apps::AppConfig cfg;
  std::vector<sim::ClockModel> clocks;
  apps::FaultSetup setup;
  bool has_faults = false;
};

SimSetup make_setup(Options& opt) {
  SimSetup s;
  s.cfg.nranks = opt.ranks;
  s.cfg.ranks_per_node = std::max(1, opt.ranks / 8);
  s.cfg.seed = opt.seed;
  s.cfg.obs = opt.obs_run.get();
  s.cfg.stream_chunk_records = opt.chunk_records;
  if (opt.skew > 0) {
    s.clocks = sim::make_skewed_clocks(opt.ranks, opt.skew, 100.0, opt.seed);
  }
  if (!opt.faults.empty()) {
    s.setup.plan = fault::FaultPlan::parse(opt.faults);
    s.setup.seed = opt.fault_seed;
    s.setup.retry.max_attempts = opt.retries + 1;
    s.has_faults = true;
    opt.ran_faults = true;
  }
  return s;
}

/// The simulated PFS: the single-server preset unless a topology flag
/// named one.
apps::Backend make_backend(const Options& opt) {
  if (!opt.cluster) return vfs::PfsConfig{};
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = opt.mds;
  ccfg.ost_count = opt.ost;
  ccfg.stripe = opt.stripe;
  return ccfg;
}

/// A saved trace to read: simulation flags are rejected, and so is a
/// path that does not open.
std::ifstream open_saved(const std::string& what, const Options& opt) {
  require(opt.faults.empty(),
          "--faults needs a named config to simulate, not a saved trace");
  require(!opt.cluster,
          "--mds/--ost/--stripe need a named config to simulate, not a "
          "saved trace");
  std::ifstream is(what, std::ios::binary);
  if (!is) throw Error("'" + what + "' is neither a known config nor a readable trace file");
  return is;
}

/// Obtain a trace either by simulating a named config or loading a file.
trace::TraceBundle obtain(const std::string& what, Options& opt) {
  if (const auto* info = apps::find_app(what)) {
    SimSetup s = make_setup(opt);
    return apps::run_app(*info, s.cfg, make_backend(opt), std::move(s.clocks),
                         s.has_faults ? &s.setup : nullptr, &opt.fault_stats);
  }
  auto is = open_saved(what, opt);
  return trace::read_chunks(is);
}

/// Spill a named config's records through the streaming driver. The
/// harness (and the simulated file system) is gone when this returns, so
/// capture and analysis memory never coexist.
apps::SpilledRun spill_config(const apps::AppInfo& info, Options& opt) {
  SimSetup s = make_setup(opt);
  return apps::spill_app(info, s.cfg, opt.spill_mem_mb << 20, make_backend(opt),
                         std::move(s.clocks),
                         s.has_faults ? &s.setup : nullptr, &opt.fault_stats);
}

/// `report|tune <subject> --stream`: windowed streaming analysis of a
/// named config (spilled, then drained) or of a saved trace.
core::StreamAnalyzer::WindowedResult stream_windowed(const std::string& what,
                                                     Options& opt) {
  if (const auto* info = apps::find_app(what)) {
    auto run = spill_config(*info, opt);
    return apps::drain_spill(run);
  }
  auto is = open_saved(what, opt);
  return apps::drain(is, opt.obs_run.get());
}

void print_report(const trace::TraceBundle& bundle, int threads) {
  const auto log = core::reconstruct_accesses(bundle);
  // Sweep every file once; conflict detection reuses the pairs.
  const auto pairs = core::detect_file_overlaps(log, {}, threads);
  const auto report = core::detect_conflicts(log, pairs, {.threads = threads});
  const auto pattern = core::classify_high_level(log, bundle.nranks);
  const auto local = core::local_pattern(log, threads);
  const auto global = core::global_pattern(log, threads);
  const auto census = core::census_metadata(bundle);
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, bundle.nranks),
                               bundle.nranks);
  const auto advice = core::advise(report, &hb, threads);
  const auto meta =
      core::detect_metadata_dependencies(bundle, &hb, {.threads = threads});

  std::cout << "ranks: " << bundle.nranks
            << "   records: " << bundle.records.size()
            << "   files: " << log.file_count() << "\n";
  std::cout << "pattern: " << pattern.xy << " "
            << core::to_string(pattern.layout) << " (dominant "
            << pattern.dominant_file << ")\n";
  std::cout << "transitions  local: " << fmt_pct(local.frac_consecutive())
            << " consecutive / " << fmt_pct(local.frac_random())
            << " random   global: " << fmt_pct(global.frac_consecutive())
            << " consecutive / " << fmt_pct(global.frac_random()) << " random\n";
  auto classes = [](const core::ConflictMatrix& m) {
    std::string s;
    if (m.waw_s) s += "WAW-S ";
    if (m.waw_d) s += "WAW-D ";
    if (m.raw_s) s += "RAW-S ";
    if (m.raw_d) s += "RAW-D ";
    return s.empty() ? std::string("none") : s;
  };
  std::cout << "conflicts   session: " << classes(report.session)
            << "  commit: " << classes(report.commit) << "\n";
  std::cout << "data races: " << (advice.race_free ? "none" : "PRESENT") << "\n";
  std::cout << "metadata deps: " << meta.cross_process << " cross-process, "
            << meta.unsynchronized << " not MPI-ordered\n";
  std::cout << "metadata ops used: " << census.distinct_ops() << "\n";
  std::cout << "verdict: weakest safe model = " << vfs::to_string(advice.weakest)
            << "\n  " << advice.rationale << "\n";
}

void print_tuning(const core::TuningReport& tuning) {
  Table t({"file", "weakest model", "bytes", "session pairs", "commit pairs"});
  for (const auto& f : tuning.files) {
    t.add_row({f.path, vfs::to_string(f.weakest), std::to_string(f.bytes),
               std::to_string(f.session_pairs), std::to_string(f.commit_pairs)});
  }
  t.print(std::cout);
  std::cout << "\n" << fmt_pct(tuning.relaxed_fraction())
            << " of accessed bytes tolerate weaker-than-POSIX semantics; "
            << fmt_pct(tuning.eventual_fraction())
            << " even tolerate eventual consistency.\n";
}

void print_tuning(const trace::TraceBundle& bundle, int threads) {
  const auto log = core::reconstruct_accesses(bundle);
  print_tuning(core::per_file_tuning(log, threads));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "list") {
      Table t({"Configuration", "Application", "I/O Library"});
      for (const auto& info : apps::registry()) {
        t.add_row({info.name, info.app, info.iolib});
      }
      t.print(std::cout);
      return 0;
    }
    if (cmd == "obs-diff" && argc >= 4) {
      obs::DiffOptions dopt;
      for (int i = 4; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--threshold") {
          if (i + 1 >= argc) throw Error("missing value for --threshold");
          dopt.threshold = std::stod(argv[++i]);
          if (dopt.threshold < 0) {
            throw Error("--threshold wants a non-negative fraction");
          }
        } else {
          throw Error("unknown option " + a);
        }
      }
      auto slurp = [](const char* path) {
        std::ifstream is(path, std::ios::binary);
        if (!is) throw Error(std::string("cannot read ") + path);
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
      };
      const auto res = obs::diff_obs_json(slurp(argv[2]), slurp(argv[3]), dopt);
      for (const auto& n : res.notes) std::cout << "note: " << n << "\n";
      if (res.ok) {
        std::cout << "obs-diff: OK — no regressions\n";
        return 0;
      }
      for (const auto& r : res.regressions) {
        std::cout << "REGRESSION: " << r << "\n";
      }
      std::cout << "obs-diff: " << res.regressions.size()
                << " regression(s)\n";
      return 1;
    }
    if (cmd == "run" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      require(!opt.stream, "--stream is supported by report, trace, and tune only");
      print_report(obtain(argv[2], opt), opt.threads);
      if (opt.ran_faults) {
        std::cout << "\n";
        core::print_degraded(apps::degraded_summary(opt.fault_stats),
                             std::cout);
      }
      finish_obs(opt);
      return 0;
    }
    if (cmd == "trace" && argc >= 4) {
      auto opt = parse_options(argc, argv, 4);
      const auto* info = apps::find_app(argv[2]);
      require(info != nullptr, "trace simulates a named config (got '" +
                                   std::string(argv[2]) + "')");
      const auto run = spill_config(*info, opt);
      {
        // The file is created only once there is a trace to write. The
        // spill is the trace: copy its bytes out.
        std::ofstream os(argv[3], std::ios::binary);
        if (os) os << run.store->open_read()->rdbuf();
        if (!os) throw Error(std::string("cannot write ") + argv[3]);
      }
      std::cout << "wrote " << run.meta.records << " records to " << argv[3]
                << "\n";
      if (opt.ran_faults) {
        core::print_degraded(apps::degraded_summary(opt.fault_stats),
                             std::cout);
      }
      finish_obs(opt);
      return 0;
    }
    if (cmd == "analyze" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      require(!opt.stream, "--stream is supported by report, trace, and tune only");
      print_report(obtain(argv[2], opt), opt.threads);
      finish_obs(opt);
      return 0;
    }
    if (cmd == "report" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      core::RunReport rep;
      if (opt.stream) {
        auto res = stream_windowed(argv[2], opt);
        rep = core::assemble_windowed_report(std::move(res.stats), res.records,
                                             res.nranks, res.summaries);
      } else {
        const auto bundle = obtain(argv[2], opt);
        const auto log = core::reconstruct_accesses(bundle);
        const auto pairs = core::detect_file_overlaps(log, {}, opt.threads);
        const auto conflicts =
            core::detect_conflicts(log, pairs, {.threads = opt.threads});
        rep = core::build_report(bundle, log, conflicts, opt.threads);
      }
      if (opt.ran_faults) {
        rep.degraded = apps::degraded_summary(opt.fault_stats);
      }
      if (opt.obs_run != nullptr && opt.obs_print) {
        // Rendered into the report body (instead of the trailing print).
        rep.obs_summary = obs::summary(*opt.obs_run);
        opt.obs_print = false;
      }
      core::print_report(rep, std::cout);
      finish_obs(opt);
      return 0;
    }
    if (cmd == "advise" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      require(!opt.stream, "--stream is supported by report, trace, and tune only");
      const auto bundle = obtain(argv[2], opt);
      const auto log = core::reconstruct_accesses(bundle);
      const auto report = core::detect_conflicts(
          log, core::ConflictOptions{.threads = opt.threads});
      const core::HappensBefore hb(
          trace::decode_comm(bundle.comm, bundle.nranks), bundle.nranks);
      const auto advice = core::advise(report, &hb, opt.threads);
      std::cout << vfs::to_string(advice.weakest) << "\n" << advice.rationale
                << "\n";
      finish_obs(opt);
      return 0;
    }
    if (cmd == "tune" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      if (opt.stream) {
        const auto res = stream_windowed(argv[2], opt);
        print_tuning(core::assemble_windowed_tuning(res.summaries));
      } else {
        const auto bundle = obtain(argv[2], opt);
        print_tuning(bundle, opt.threads);
      }
      finish_obs(opt);
      return 0;
    }
    if (cmd == "remedy" && argc >= 3) {
      auto opt = parse_options(argc, argv, 3);
      require(!opt.stream, "--stream is supported by report, trace, and tune only");
      const auto bundle = obtain(argv[2], opt);
      const auto log = core::reconstruct_accesses(bundle);
      const core::RemedyOptions ropt{.strict = opt.strict};
      const auto plan = core::suggest_commits(log, ropt);
      if (plan.commits.empty()) {
        std::cout << "no commit insertions needed: no cross-process "
                     "commit-semantics conflicts (or the program already "
                     "commits in every window)\n";
      } else {
        Table t({"file", "process", "insert fsync after (s)",
                 "and before (s)", "pairs cleared"});
        for (const auto& c : plan.commits) {
          t.add_row({c.path, std::to_string(c.rank),
                     fmt(to_seconds(c.after), 6), fmt(to_seconds(c.before), 6),
                     std::to_string(c.pairs_cleared)});
        }
        t.print(std::cout);
        const auto left = core::verify_plan(log, plan, ropt);
        std::cout << "\nafter applying the plan: "
                  << (left.any() ? "conflicts REMAIN" : "no conflicts remain")
                  << "\n";
      }
      if (plan.uncoverable > 0) {
        std::cout << plan.uncoverable
                  << " pair(s) have no insertion window (accesses adjacent "
                     "in time)\n";
      }
      finish_obs(opt);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "pfsem: " << e.what() << "\n";
    return 1;
  }
}
