// Randomized differential tests for the overlap engines: across seeded
// generated logs (including adversarial long-lived intervals, empty
// extents, and dense clusters) the sweep-line engine, the paper's
// Algorithm-1 scan, and the naive O(n^2) oracle must agree pair-for-pair;
// and conflict detection, tuning and the CLI text computed from shared
// precomputed pairs must match the self-contained calls.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/tuning.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem {
namespace {

using core::Access;
using core::AccessType;

/// One random access log; the seed selects among several shapes so the
/// suite exercises sparse, dense, long-lived, and degenerate inputs.
std::vector<Access> random_accesses(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 1 + rng.below(300);
  const int shape = static_cast<int>(seed % 4);
  std::vector<Access> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Access a;
    a.rank = static_cast<Rank>(rng.below(8));
    a.t = static_cast<SimTime>(i);
    a.type = rng.chance(0.5) ? AccessType::Write : AccessType::Read;
    const Offset begin = static_cast<Offset>(rng.below(2000));
    switch (shape) {
      case 0:  // short extents, heavy collisions
        a.ext = {begin, begin + 1 + rng.below(30)};
        break;
      case 1:  // adversarial: long-lived intervals spanning most others
        a.ext = {begin, begin + 1500 + rng.below(500)};
        if (rng.chance(0.8)) a.type = AccessType::Read;
        break;
      case 2:  // mixed, with empty and zero-length extents sprinkled in
        if (rng.chance(0.15)) {
          a.ext = {begin, begin};  // empty: must never pair
        } else {
          a.ext = {begin, begin + rng.below(200)};
        }
        break;
      default:  // mostly-disjoint strided segments + a shared header
        if (rng.chance(0.1)) {
          a.ext = {0, 64};
        } else {
          a.ext = {static_cast<Offset>(i) * 256,
                   static_cast<Offset>(i) * 256 + 200};
        }
        break;
    }
    v.push_back(a);
  }
  return v;
}

TEST(OverlapDiff, SweepEqualsScanEqualsNaiveAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const auto v = random_accesses(seed);
    for (const bool writes_only : {true, false}) {
      const core::OverlapOptions opts{.writes_only = writes_only};
      const auto sweep = core::detect_overlaps(v, opts);
      const auto scan = core::detect_overlaps_scan(v, opts);
      const auto naive = core::detect_overlaps_naive(v, opts);
      ASSERT_EQ(sweep, naive)
          << "sweep vs naive, seed=" << seed << " writes_only=" << writes_only;
      ASSERT_EQ(scan, naive)
          << "scan vs naive, seed=" << seed << " writes_only=" << writes_only;
    }
  }
}

/// A multi-file log built from the random generator, with open/close and
/// commit windows so the semantics conditions are exercised too.
core::AccessLog random_log(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  core::AccessLog log;
  log.nranks = 8;
  const std::size_t nfiles = 1 + rng.below(6);
  for (std::size_t f = 0; f < nfiles; ++f) {
    auto& fl = log.file("f" + std::to_string(f));
    auto v = random_accesses(seed * 101 + f);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i].t = static_cast<SimTime>(i * 10);
      v[i].t_open = 0;
      v[i].t_close = rng.chance(0.3)
                         ? v[i].t + static_cast<SimTime>(1 + rng.below(50))
                         : kTimeNever;
      v[i].t_commit = rng.chance(0.3)
                          ? v[i].t + static_cast<SimTime>(1 + rng.below(50))
                          : kTimeNever;
    }
    fl.accesses = std::move(v);
  }
  return log;
}

std::string fingerprint(const core::ConflictReport& r) {
  std::ostringstream os;
  os << r.potential_pairs << '|' << r.session.count << r.session.waw_s
     << r.session.waw_d << r.session.raw_s << r.session.raw_d << '|'
     << r.commit.count << r.commit.waw_s << r.commit.waw_d << r.commit.raw_s
     << r.commit.raw_d << '\n';
  for (const auto& c : r.conflicts) {
    os << c.file << ' ' << c.first.rank << ' ' << c.first.t << ' '
       << c.first.ext.begin << ' ' << c.first.ext.end << ' ' << c.second.rank
       << ' ' << c.second.t << ' ' << c.second.ext.begin << ' '
       << c.second.ext.end << ' ' << static_cast<int>(c.kind) << ' '
       << c.same_process << c.under_commit << c.under_session << '\n';
  }
  return os.str();
}

TEST(ConflictDiff, PrecomputedPairsMatchDirectDetection) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto log = random_log(seed + 500);
    const auto direct = core::detect_conflicts(log);
    const auto pairs = core::detect_file_overlaps(log);
    const auto reused = core::detect_conflicts(log, pairs);
    ASSERT_EQ(fingerprint(reused), fingerprint(direct)) << "seed=" << seed;
    // Tuning through the same precomputed pairs matches the direct path.
    const auto t_direct = core::per_file_tuning(log);
    const auto t_reused = core::per_file_tuning(log, pairs);
    ASSERT_EQ(t_reused.files.size(), t_direct.files.size());
    for (std::size_t i = 0; i < t_direct.files.size(); ++i) {
      ASSERT_EQ(t_reused.files[i].weakest, t_direct.files[i].weakest)
          << t_direct.files[i].path;
      ASSERT_EQ(t_reused.files[i].session_pairs,
                t_direct.files[i].session_pairs);
      ASSERT_EQ(t_reused.files[i].commit_pairs, t_direct.files[i].commit_pairs);
    }
  }
}

/// Everything the CLI can print — report, advise, tune — rendered from
/// one set of per-file overlap pairs.
std::string cli_text(const trace::TraceBundle& bundle,
                     const core::AccessLog& log,
                     const core::ConflictReport& conflicts,
                     const core::TuningReport& tuning) {
  std::ostringstream os;
  core::print_report(core::build_report(bundle, log, conflicts), os);
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, bundle.nranks),
                               bundle.nranks);
  const auto advice = core::advise(conflicts, &hb);
  os << vfs::to_string(advice.weakest) << '|'
     << vfs::to_string(advice.weakest_strict) << '|' << advice.race_free << '|'
     << advice.rationale << '\n';
  for (const auto& f : tuning.files) {
    os << f.path << ' ' << vfs::to_string(f.weakest) << ' ' << f.bytes << ' '
       << f.session_pairs << ' ' << f.commit_pairs << '\n';
  }
  os << tuning.total_bytes << '|' << tuning.relaxed_bytes << '|'
     << tuning.eventual_fraction() << '\n';
  return os.str();
}

TEST(PipelineDiff, EveryRegisteredAppReportsByteIdenticalFromPrecomputedPairs) {
  // Conflict detection and tuning can share one set of per-file pairs.
  // For every registered app, the text printed from the sweep's shared
  // pairs, and from pairs the paper's Algorithm-1 scan found, must match
  // what the self-contained calls print.
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  for (const auto& info : apps::registry()) {
    const auto bundle = apps::run_app(info, cfg);
    const auto log = core::reconstruct_accesses(bundle);
    const std::string direct = cli_text(bundle, log, core::detect_conflicts(log),
                                        core::per_file_tuning(log));
    core::FileOverlaps sweep = core::detect_file_overlaps(log);
    core::FileOverlaps scan(log.files.size());
    for (std::size_t id = 0; id < log.files.size(); ++id) {
      scan[id] = core::detect_overlaps_scan(log.files[id].accesses);
    }
    for (const auto* pairs : {&sweep, &scan}) {
      ASSERT_EQ(cli_text(bundle, log, core::detect_conflicts(log, *pairs),
                         core::per_file_tuning(log, *pairs)),
                direct)
          << info.name << (pairs == &scan ? " (scan pairs)" : " (sweep pairs)");
    }
  }
}

}  // namespace
}  // namespace pfsem
