// pfsem_e2e — the end-to-end benchmark: how long pfsem takes from an
// application run to its consistency-model report, and how much memory
// that takes, on four workloads that stress different layers. See
// README.md for the metrics, the workloads and how to compare commits.
//
//   pfsem_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--ranks N] [--trace-out FILE] [--out FILE]
//             [--sha S --timestamp T --host H]
//       Run reps of NAME for S seconds (at least three), each in a fresh
//       child process — all untraced, or (--trace 1) alternately untraced
//       and traced — then (stream workloads) one materialized-oracle rep.
//       Checks every report, prints a summary, and prints one JSON object
//       as the last line: the end-to-end metrics with --trace 0, the
//       per-layer ones with --trace 1. --trace-out writes the first traced
//       rep's Chrome trace; --out writes every statistic, stamped with
//       --sha/--timestamp/--host.
//   pfsem_e2e --smoke [--benchmark-json FILE]
//       Every workload at 64 ranks, one rep, traced and untraced; checks
//       that the decorators are transparent and that every name in FILE
//       is a workload or a metric this binary prints.
//   pfsem_e2e --list
//       Workload names, one per line.
//   pfsem_e2e --rep --workload NAME --seed N --trace 0|1 [--oracle] ...
//       Internal: one rep in this process, results as key=value lines.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/util/error.hpp"
#include "pipeline.hpp"

extern char** environ;

namespace pfsem_e2e {
namespace {

struct Workload {
  const char* name;
  const char* app;
  int ranks;
  Pipeline pipeline;
  Backend backend;
};

// Sizes keep one rep near two seconds on a 4-core host, so a run of a
// few tens of seconds holds enough reps for a steady median.
const Workload kWorkloads[] = {
    // Collective HDF5 -> MPI-IO into shared files: capture is most of the
    // time, and its per-record cost grows with ranks.
    {"flash_collective", "FLASH-fbs", 2048, Pipeline::Materialized,
     Backend::Pfs},
    // The same capture streamed, so the pair isolates the streaming
    // pipeline: chunk encode, decode, reorder, windowed analysis.
    {"flash_stream", "FLASH-fbs", 2048, Pipeline::Stream, Backend::Pfs},
    // File per process: state that scales with ranks (reorder frontier,
    // a live window of one file per rank) and the vfs write path.
    {"pf3d_nn_stream", "pF3D-IO", 16384, Pipeline::Stream, Backend::Pfs},
    // Every rank reads one shared dataset on the multi-server front end:
    // the vfs read path, and the heaviest reconstruct and build_report.
    {"lbann_read_cluster", "LBANN", 4096, Pipeline::Materialized,
     Backend::Cluster},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* to_string(Pipeline p) {
  return p == Pipeline::Materialized ? "materialized" : "stream";
}
const char* to_string(Backend b) {
  return b == Backend::Pfs ? "Pfs" : "PfsCluster(2 MDS, 4 OST)";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"run_to_report_s", "s"},
    {"records_per_s", "records/s"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

// Per-layer metrics of the traced reps. Each is defined for both
// pipelines (README.md gives the per-pipeline meaning); the finer spans
// of one pipeline (chunk decode, stream feed, overlap, ...) are in the
// summary and the Chrome trace.
const MetricDef kPerLayer[] = {
    {"apps.harness_ctor_s", "s"},
    {"apps.capture_s", "s"},
    {"apps.capture_self_s", "s"},
    {"apps.harness_teardown_s", "s"},
    {"vfs.meta_calls", "count"},
    {"vfs.meta_s", "s"},
    {"vfs.data_calls", "count"},
    {"vfs.data_s", "s"},
    {"vfs.call_p50_ns", "ns"},
    {"vfs.call_p99_ns", "ns"},
    {"trace.handoff_s", "s"},
    {"trace.bytes_per_record", "B"},
    {"core.ingest_s", "s"},
    {"core.analysis_s", "s"},
    {"core.print_report_s", "s"},
    {"core.live_peak_files", "count"},
    {"core.reorder_peak_records", "count"},
    {"records", "count"},
    {"files", "count"},
    {"bench.unattributed_s", "s"},
    {"bench.unattributed_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

/// A child that neither finishes nor fails within this many seconds is
/// killed, so one hung rep cannot hold a run past its time limit.
constexpr unsigned kChildLimitSeconds = 150;

/// Shortest text that reads back as exactly `v`: every digit measured.
std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mean of the samples within half a percent (in rank) of quantile q: a
/// percentile estimate that does not snap to the clock's resolution.
double smoothed_quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto center = static_cast<std::size_t>(q * static_cast<double>(n - 1));
  const std::size_t half = std::max<std::size_t>(1, n / 200);
  const std::size_t lo = center > half ? center - half : 0;
  const std::size_t hi = std::min(n - 1, center + half);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

// --- one rep (child process) ------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20;
  bool trace = false;
  int ranks = 0;  ///< 0: the workload's size
  std::string trace_out;
  std::string out;
  std::string sha, timestamp, host;
  bool oracle = false;
};

std::map<std::string, double> layer_metrics(const SpanLog& log,
                                            const RepResult& r) {
  std::map<std::string, double> m;
  m["apps.harness_ctor_s"] = log.total_s("apps.harness_ctor");
  m["apps.capture_s"] = log.total_s("apps.capture");
  m["apps.capture_self_s"] = log.self_s("apps.capture");
  m["apps.harness_teardown_s"] = log.total_s("apps.harness_teardown");
  m["vfs.meta_calls"] = static_cast<double>(log.calls("vfs.meta"));
  m["vfs.meta_s"] = log.total_s("vfs.meta");
  m["vfs.data_calls"] = static_cast<double>(log.calls("vfs.data"));
  m["vfs.data_s"] = log.total_s("vfs.data");
  m["vfs.call_p50_ns"] = smoothed_quantile(r.vfs_call_ns, 0.50);
  m["vfs.call_p99_ns"] = smoothed_quantile(r.vfs_call_ns, 0.99);
  // Records leaving the collector: the take, plus (stream) the chunk
  // encoding the collector's batches triggered during capture.
  m["trace.handoff_s"] =
      log.total_s("trace.handoff") + log.total_s("trace.sink");
  m["trace.bytes_per_record"] = r.bytes_per_record;
  m["core.ingest_s"] = log.total_s("core.ingest");
  m["core.analysis_s"] = log.total_s("core.analysis");
  m["core.print_report_s"] = log.total_s("core.print_report");
  m["core.live_peak_files"] = static_cast<double>(r.live_peak_files);
  m["core.reorder_peak_records"] = static_cast<double>(r.reorder_peak_records);
  m["records"] = static_cast<double>(r.records);
  m["files"] = static_cast<double>(r.files);
  // The phases tile the rep; what they leave uncovered is the rep's self.
  m["bench.unattributed_s"] = log.self_s("rep");
  m["bench.unattributed_share"] = log.self_s("rep") / log.total_s("rep");
  return m;
}

int rep_main(const Args& a) {
  alarm(kChildLimitSeconds);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "pfsem_e2e: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  SpanLog log;
  RunSpec spec;
  spec.app = w->app;
  spec.ranks = a.ranks > 0 ? a.ranks : w->ranks;
  spec.seed = a.seed;
  spec.pipeline = a.oracle ? Pipeline::Materialized : w->pipeline;
  spec.backend = w->backend;
  spec.log = a.trace ? &log : nullptr;
  const RepResult r = run_to_report(spec);

  std::cout << "report_hash=" << fnv1a(r.report) << ':' << r.report.size()
            << "\nexpect=" << (r.expectation_error.empty() ? "ok" : r.expectation_error)
            << "\nrecords=" << r.records << "\nsetup_s=" << fmt(r.setup_s)
            << "\nrun_to_report_s=" << fmt(r.run_to_report_s) << "\n";
  if (a.trace) {
    for (const auto& [name, v] : layer_metrics(log, r)) {
      std::cout << "m." << name << '=' << fmt(v) << "\n";
    }
    std::set<std::string> seen;
    for (const auto& sp : log.spans()) {
      if (!seen.insert(sp.name).second) continue;
      std::cout << "span." << sp.name << '=' << fmt(log.total_s(sp.name)) << ' '
                << fmt(log.self_s(sp.name)) << ' ' << log.calls(sp.name) << "\n";
    }
    if (!a.trace_out.empty()) {
      std::ofstream os(a.trace_out);
      log.write_chrome_trace(os);
      if (!os) {
        std::cerr << "pfsem_e2e: cannot write " << a.trace_out << "\n";
        return 1;
      }
    }
  }
  return 0;
}

// --- the driver -------------------------------------------------------

struct Child {
  bool ok = false;  ///< exited 0
  std::string error;
  std::map<std::string, std::string> kv;
  double rss_mb = 0;
  double wall_s = 0;
};

/// Run this binary as a --rep child and collect its key=value lines and
/// its peak RSS (the kernel's high-water mark of a fresh process).
Child spawn_rep(const Workload& w, const Args& a, bool traced, bool oracle,
                bool write_trace) {
  Child c;
  std::vector<std::string> args = {
      "pfsem_e2e", "--rep", "--workload", w.name, "--seed",
      std::to_string(a.seed), "--trace", traced ? "1" : "0"};
  if (a.ranks > 0) args.insert(args.end(), {"--ranks", std::to_string(a.ranks)});
  if (oracle) args.emplace_back("--oracle");
  if (write_trace && !a.trace_out.empty()) {
    args.insert(args.end(), {"--trace-out", a.trace_out});
  }
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    c.error = "pipe: " + std::string(std::strerror(errno));
    return c;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    c.error = "posix_spawn: " + std::string(std::strerror(rc));
    return c;
  }
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.wall_s = seconds(Clock::now() - t0);
  c.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) c.kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  c.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!c.ok) {
    c.error = WIFSIGNALED(status)
                  ? "killed by signal " + std::to_string(WTERMSIG(status))
                  : "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return c;
}

double num(const Child& c, const std::string& key) {
  const auto it = c.kv.find(key);
  if (it == c.kv.end()) return std::nan("");
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    return std::nan("");
  }
}

/// Median and quartiles as Python's statistics.quantiles(v, n=4) gives
/// them (the default 'exclusive' method), plus the range.
struct Stat {
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

Stat summarize(std::vector<double> v) {
  Stat s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

struct DriveResult {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Stat> e2e;
  std::map<std::string, double> layers;  ///< traced rep (--trace 1)
  std::vector<std::string> spans;        ///< "name total self calls"
  int ranks = 0;
  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
};

DriveResult drive(const Workload& w, const Args& a) {
  DriveResult d;
  d.ranks = a.ranks > 0 ? a.ranks : w.ranks;
  std::string ref_hash;
  // Check one child: it must exit 0, meet the registry's expectation,
  // and print the same report as every other rep of this seed.
  const auto check = [&](const Child& c, const std::string& label,
                         const char* differs) {
    ++d.attempted;
    std::string why = c.ok ? "" : c.error;
    const auto expect = c.kv.find("expect");
    const auto hash = c.kv.find("report_hash");
    if (why.empty() && (expect == c.kv.end() || hash == c.kv.end())) {
      why = "incomplete output";
    }
    if (why.empty() && expect->second != "ok") {
      why = "expectation: " + expect->second;
    }
    if (why.empty()) {
      if (ref_hash.empty()) ref_hash = hash->second;
      if (hash->second != ref_hash) why = differs;
    }
    if (!why.empty()) {
      ++d.failed;
      d.problems.push_back(label + ": " + why);
    }
    return why.empty();
  };

  // Closed loop: one rep at a time, each in a fresh process, until the
  // next rep would overrun the measuring time (three reps at least). With
  // --trace 1 the reps alternate untraced and traced, and the tracing
  // overhead is the median ratio of each traced rep to the untraced rep
  // just before it, so a change in host load hits both sides of a ratio.
  const std::size_t min_reps = a.seconds > 0 ? 3 : (a.trace ? 2 : 1);
  const auto start = Clock::now();
  std::vector<double> run_s, rps, rss, setup, walls, overhead;
  std::map<std::string, std::vector<double>> layers;
  for (int i = 0;; ++i) {
    const double elapsed = seconds(Clock::now() - start);
    if (walls.size() >= min_reps &&
        elapsed + summarize(walls).median > a.seconds) {
      break;
    }
    const bool traced = a.trace && i % 2 == 1;
    const Child c = spawn_rep(w, a, traced, false, traced && layers.empty());
    walls.push_back(c.wall_s);
    if (!check(c, (traced ? "traced rep " : "rep ") + std::to_string(i),
               "report differs from rep 0")) {
      continue;
    }
    const double t = num(c, "run_to_report_s");
    if (traced) {
      if (!run_s.empty()) overhead.push_back(t / run_s.back() - 1);
      // Spans are shown from the first traced rep, which wrote the trace.
      const bool first = layers.empty();
      for (const auto& [k, v] : c.kv) {
        if (k.rfind("m.", 0) == 0) layers[k.substr(2)].push_back(num(c, k));
        if (first && k.rfind("span.", 0) == 0) {
          d.spans.push_back(k.substr(5) + " " + v);
        }
      }
      continue;
    }
    run_s.push_back(t);
    rps.push_back(num(c, "records") / t);
    rss.push_back(c.rss_mb);
    setup.push_back(num(c, "setup_s"));
  }
  d.e2e["run_to_report_s"] = summarize(run_s);
  d.e2e["records_per_s"] = summarize(rps);
  d.e2e["peak_rss_mb"] = summarize(rss);
  d.e2e["setup_s"] = summarize(setup);

  if (a.trace) {
    // Each layer metric is its median over the traced reps.
    for (const auto& [name, v] : layers) d.layers[name] = summarize(v).median;
    if (!overhead.empty()) {
      d.layers["bench.trace_overhead"] = summarize(overhead).median;
    }
    for (const auto& m : kPerLayer) {
      if (d.layers.count(m.name) == 0) {
        d.problems.push_back(std::string("traced reps: no ") + m.name);
      }
    }
  }
  if (w.pipeline == Pipeline::Stream) {
    (void)check(spawn_rep(w, a, false, true, false), "materialized oracle",
                "stream report differs from the materialized oracle");
  }
  if (run_s.empty()) d.problems.push_back("no rep succeeded");
  return d;
}

void print_summary(const Workload& w, const Args& a, const DriveResult& d) {
  std::cout << "workload " << w.name << ": " << w.app << ", " << d.ranks
            << " ranks, " << to_string(w.pipeline) << ", "
            << to_string(w.backend) << ", seed " << a.seed
            << ", analysis threads " << kAnalysisThreads << "\n";
  for (const auto& m : kEndToEnd) {
    const Stat& s = d.e2e.at(m.name);
    std::cout << "  " << std::left << std::setw(18) << m.name << std::right
              << " median " << fmt(s.median) << " " << m.unit << "  min "
              << s.min << "  max " << s.max << "  iqr " << s.q3 - s.q1
              << "  n " << s.n << "\n";
  }
  if (!d.spans.empty()) {
    std::cout << "  traced rep spans (name total_s self_s calls):\n";
    for (const auto& s : d.spans) std::cout << "    " << s << "\n";
  }
  for (const auto& [name, v] : d.layers) {
    std::cout << "  " << name << " = " << fmt(v) << "\n";
  }
  for (const auto& p : d.problems) std::cout << "  FAIL " << p << "\n";
  std::cout << "  attempted " << d.attempted << ", failed " << d.failed
            << ", correct " << (d.correct() ? "yes" : "no") << "\n";
}

/// The contract line: the end-to-end metrics (untraced) or the per-layer
/// metrics (traced), medians as measured.
std::string result_json(const Args& a, const DriveResult& d) {
  std::ostringstream os;
  os << "{\"correct\": " << (d.correct() ? "true" : "false")
     << ", \"attempted\": " << d.attempted << ", \"failed\": " << d.failed
     << ", \"metrics\": {";
  const char* sep = "";
  const auto emit = [&](const MetricDef& m, double v) {
    os << sep << '"' << m.name << "\": {\"value\": " << fmt(v)
       << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  };
  if (a.trace) {
    for (const auto& m : kPerLayer) emit(m, d.layers.at(m.name));
  } else {
    for (const auto& m : kEndToEnd) emit(m, d.e2e.at(m.name).median);
  }
  os << "}}";
  return os.str();
}

bool write_results(const Workload& w, const Args& a, const DriveResult& d) {
  std::ofstream os(a.out);
  os << "{\n  \"workload\": \"" << w.name << "\",\n  \"app\": \"" << w.app
     << "\",\n  \"ranks\": " << d.ranks << ",\n  \"pipeline\": \""
     << to_string(w.pipeline) << "\",\n  \"seed\": " << a.seed
     << ",\n  \"git_sha\": \"" << a.sha << "\",\n  \"timestamp\": \""
     << a.timestamp << "\",\n  \"host\": \"" << a.host
     << "\",\n  \"correct\": " << (d.correct() ? "true" : "false")
     << ",\n  \"attempted\": " << d.attempted << ",\n  \"failed\": " << d.failed
     << ",\n  \"end_to_end\": {";
  const char* sep = "\n";
  for (const auto& m : kEndToEnd) {
    const Stat& s = d.e2e.at(m.name);
    os << sep << "    \"" << m.name << "\": {\"unit\": \"" << m.unit
       << "\", \"median\": " << fmt(s.median) << ", \"min\": " << fmt(s.min)
       << ", \"max\": " << fmt(s.max) << ", \"iqr\": " << fmt(s.q3 - s.q1)
       << ", \"n\": " << s.n << "}";
    sep = ",\n";
  }
  os << "\n  },\n  \"per_layer\": {";
  sep = "\n";
  for (const auto& m : kPerLayer) {
    const auto it = d.layers.find(m.name);
    if (it == d.layers.end()) continue;
    os << sep << "    \"" << m.name << "\": {\"unit\": \"" << m.unit
       << "\", \"value\": " << fmt(it->second) << "}";
    sep = ",\n";
  }
  os << "\n  }\n}\n";
  return static_cast<bool>(os);
}

int drive_main(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "pfsem_e2e: unknown workload '" << a.workload
              << "' (--list shows them)\n";
    return 2;
  }
  const DriveResult d = drive(*w, a);
  print_summary(*w, a, d);
  if (d.e2e.at("run_to_report_s").n == 0 ||
      (a.trace && d.layers.size() != std::size(kPerLayer))) {
    return 1;  // nothing measured: no result line
  }
  if (!a.out.empty() && !write_results(*w, a, d)) {
    std::cerr << "pfsem_e2e: cannot write " << a.out << "\n";
    return 1;
  }
  std::cout << result_json(a, d) << std::endl;
  return d.correct() ? 0 : 1;
}

// --- smoke test ---------------------------------------------------------

int smoke_main(const std::string& benchmark_json) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::cout << "FAIL " << what << "\n";
    ++failures;
  };
  std::set<std::string> printed;
  for (const auto& w : kWorkloads) {
    printed.insert(w.name);
    // The driver end to end, untraced and traced, at a tiny size.
    for (const bool trace : {false, true}) {
      Args a;
      a.workload = w.name;
      a.seconds = 0;
      a.trace = trace;
      a.ranks = 64;
      const DriveResult d = drive(w, a);
      print_summary(w, a, d);
      if (!d.correct()) {
        fail(std::string(w.name) + ": correctness checks");
        continue;
      }
      const std::string line = result_json(a, d);
      for (const auto& m : trace ? std::span<const MetricDef>(kPerLayer)
                                 : std::span<const MetricDef>(kEndToEnd)) {
        if (line.find(std::string("\"") + m.name + "\": {\"value\": ") !=
            std::string::npos) {
          printed.insert(m.name);
        }
      }
    }
    // Transparency: the decorated capture (TimedFs, and TimedSink on
    // stream workloads) must hand the analysis the very same bytes.
    RunSpec spec;
    spec.app = w.app;
    spec.ranks = 64;
    spec.pipeline = w.pipeline;
    spec.backend = w.backend;
    spec.keep_capture = true;
    const RepResult plain = run_to_report(spec);
    SpanLog log;
    spec.log = &log;
    const RepResult timed = run_to_report(spec);
    if (plain.capture.empty() || plain.capture != timed.capture) {
      fail(std::string(w.name) + ": decorated capture bytes differ");
    }
    if (plain.report != timed.report) {
      fail(std::string(w.name) + ": decorated report text differs");
    }
  }
  if (!benchmark_json.empty()) {
    std::ifstream is(benchmark_json);
    std::stringstream ss;
    ss << is.rdbuf();
    if (!is) fail("cannot read " + benchmark_json);
    const std::string text = ss.str();
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), name_re);
         it != std::sregex_iterator(); ++it) {
      if (printed.count((*it)[1]) == 0) {
        fail(benchmark_json + " names '" + (*it)[1].str() +
             "', which no run printed");
      }
    }
  }
  std::cout << (failures == 0 ? "smoke: ok\n" : "smoke: FAILED\n");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: pfsem_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--ranks N]\n"
               "                 [--trace-out FILE] [--out FILE] [--sha S] "
               "[--timestamp T] [--host H]\n"
               "       pfsem_e2e --smoke [--benchmark-json FILE]\n"
               "       pfsem_e2e --list\n";
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  bool rep = false, smoke = false, list = false;
  std::string benchmark_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw pfsem::Error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--seconds") a.seconds = std::stod(next());
    else if (arg == "--trace") a.trace = next() != "0";
    else if (arg == "--ranks") a.ranks = std::stoi(next());
    else if (arg == "--trace-out") a.trace_out = next();
    else if (arg == "--out") a.out = next();
    else if (arg == "--sha") a.sha = next();
    else if (arg == "--timestamp") a.timestamp = next();
    else if (arg == "--host") a.host = next();
    else if (arg == "--oracle") a.oracle = true;
    else if (arg == "--rep") rep = true;
    else if (arg == "--smoke") smoke = true;
    else if (arg == "--benchmark-json") benchmark_json = next();
    else if (arg == "--list") list = true;
    else return usage();
  }
  if (list) {
    for (const auto& w : kWorkloads) std::cout << w.name << "\n";
    return 0;
  }
  if (smoke) return smoke_main(benchmark_json);
  if (a.workload.empty()) return usage();
  return rep ? rep_main(a) : drive_main(a);
}

}  // namespace
}  // namespace pfsem_e2e

int main(int argc, char** argv) {
  try {
    return pfsem_e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pfsem_e2e: " << e.what() << "\n";
    return 1;
  }
}
