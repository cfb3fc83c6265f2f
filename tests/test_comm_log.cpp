// Randomized comm logs through every comm-log form. A captured log
// travels as bytes (EncodedCommLog) from the collector through the
// chunk stream's trailer, and decode_comm() builds the structs that
// HappensBefore reads. Fixed seeds, bounded sizes: the generator makes
// p2p messages and every collective kind, rooted kinds over random
// subgroups, and the checks are
//   * write_comm(decode_comm(x)) == x, byte for byte, and decoding
//     returns the generated events;
//   * a saved trace and a spill's trailer return x unchanged;
//   * HappensBefore built from the decoded log answers every ordered()
//     query as one built from the generator's CommLog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/core/happens_before.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"

namespace pfsem {
namespace {

using trace::CollectiveEvent;
using trace::CollectiveKind;
using trace::CommLog;
using trace::EncodedCommLog;
using trace::P2PEvent;

/// A random legal comm log over `nranks` ranks with `events` events, in
/// completion order on one global clock (as the simulator emits them).
CommLog random_comm_log(std::mt19937_64& rng, int nranks,
                        std::size_t events) {
  const auto below = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  const auto rank = [&] { return static_cast<Rank>(below(nranks)); };
  CommLog log;
  SimTime t = static_cast<SimTime>(below(1000)) - 500;  // may start < 0
  std::vector<Rank> all(static_cast<std::size_t>(nranks));
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < events; ++i) {
    t += static_cast<SimTime>(below(5'000));
    if (nranks > 1 && below(3) == 0) {
      P2PEvent e;
      e.src = rank();
      do {
        e.dst = rank();
      } while (e.dst == e.src);
      e.tag = static_cast<std::int32_t>(
          rng() % (std::uint64_t{1} << 32));  // the whole int32 range
      e.bytes = below(4) == 0 ? rng() : below(1 << 20);
      e.t_send_start = t;
      e.t_send_end = t + static_cast<SimTime>(below(300));
      e.t_recv_start = t + static_cast<SimTime>(below(200));
      e.t_recv_end = e.t_recv_start + static_cast<SimTime>(below(400));
      t = std::max(e.t_send_end, e.t_recv_end);
      log.p2p.push_back(e);
      continue;
    }
    CollectiveEvent c;
    c.kind = static_cast<CollectiveKind>(below(trace::kCollectiveKindCount));
    std::shuffle(all.begin(), all.end(), rng);
    const auto members = 1 + below(static_cast<std::uint64_t>(nranks));
    c.root = trace::is_rooted(c.kind) ? all[below(members)] : kNoRank;
    SimTime last_enter = t;
    for (std::uint64_t m = 0; m < members; ++m) {
      const SimTime enter = t + static_cast<SimTime>(below(1'000));
      c.arrivals.push_back({all[m], enter, 0});
      last_enter = std::max(last_enter, enter);
    }
    for (auto& a : c.arrivals) {
      a.t_exit = last_enter + static_cast<SimTime>(below(1'000));
      t = std::max(t, a.t_exit);
    }
    log.collectives.push_back(std::move(c));
  }
  return log;
}

void expect_same_events(const CommLog& got, const CommLog& want) {
  ASSERT_EQ(got.p2p.size(), want.p2p.size());
  for (std::size_t i = 0; i < got.p2p.size(); ++i) {
    const auto& a = got.p2p[i];
    const auto& b = want.p2p[i];
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.t_send_start, b.t_send_start);
    EXPECT_EQ(a.t_send_end, b.t_send_end);
    EXPECT_EQ(a.t_recv_start, b.t_recv_start);
    EXPECT_EQ(a.t_recv_end, b.t_recv_end);
  }
  ASSERT_EQ(got.collectives.size(), want.collectives.size());
  for (std::size_t i = 0; i < got.collectives.size(); ++i) {
    const auto& a = got.collectives[i];
    const auto& b = want.collectives[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.root, b.root);
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
    for (std::size_t j = 0; j < a.arrivals.size(); ++j) {
      EXPECT_EQ(a.arrivals[j].rank, b.arrivals[j].rank);
      EXPECT_EQ(a.arrivals[j].t_enter, b.arrivals[j].t_enter);
      EXPECT_EQ(a.arrivals[j].t_exit, b.arrivals[j].t_exit);
    }
  }
}

/// The comm log the chunk stream's trailer carries back for a
/// record-free trace holding `comm`: through a saved trace's bytes, and
/// through a spill's trailer read without the records.
EncodedCommLog via_saved_trace(const EncodedCommLog& comm, int nranks) {
  trace::TraceBundle b;
  b.nranks = nranks;
  b.comm = comm;
  std::stringstream ss;
  trace::write_compact(b, ss);
  return trace::read_chunks(ss).comm;
}

EncodedCommLog via_chunk_trailer(const EncodedCommLog& comm, int nranks) {
  trace::SpillStore store;
  trace::ChunkWriter writer(store, nranks);
  trace::StreamMeta meta;
  meta.nranks = nranks;
  meta.comm = comm;
  writer.finish(meta);
  const auto in = store.open_read();
  trace::ChunkReader reader(*in);
  trace::Record rec;
  EXPECT_FALSE(reader.next(rec));
  EncodedCommLog kept;
  reader.read_trailer(&kept);
  return kept;
}

TEST(CommLogRandomized, EveryFormCarriesTheSameBytes) {
  std::size_t events = 0;
  for (const int nranks : {1, 2, 7, 64}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      std::mt19937_64 rng(seed * 1'000'003 + static_cast<std::uint64_t>(nranks));
      const auto log = random_comm_log(rng, nranks, rng() % 120);
      events += log.p2p.size() + log.collectives.size();
      const auto bytes = trace::write_comm(log);
      const auto decoded = trace::decode_comm(bytes, nranks);
      expect_same_events(decoded, log);
      ASSERT_EQ(trace::write_comm(decoded), bytes)
          << "nranks " << nranks << " seed " << seed;
      ASSERT_EQ(via_saved_trace(bytes, nranks), bytes);
      ASSERT_EQ(via_chunk_trailer(bytes, nranks), bytes);
    }
  }
  EXPECT_GT(events, 5'000u);
}

TEST(CommLogRandomized, HappensBeforeAnswersAlikeFromDecodedBytes) {
  for (const int nranks : {2, 7, 64}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      std::mt19937_64 rng(seed * 7'919 + static_cast<std::uint64_t>(nranks));
      const auto log = random_comm_log(rng, nranks, 40 + rng() % 80);
      const core::HappensBefore want(log, nranks);
      const core::HappensBefore got(
          trace::decode_comm(trace::write_comm(log), nranks), nranks);
      // Query at the log's own event times (where the answers change)
      // and at random times around them.
      std::vector<SimTime> times;
      for (const auto& e : log.p2p) {
        times.insert(times.end(), {e.t_send_start, e.t_recv_end});
      }
      for (const auto& c : log.collectives) {
        for (const auto& a : c.arrivals) {
          times.insert(times.end(), {a.t_enter, a.t_exit});
        }
      }
      ASSERT_FALSE(times.empty());
      std::uint64_t ordered = 0;
      for (int q = 0; q < 2'000; ++q) {
        const auto pick = [&] {
          const SimTime t = times[rng() % times.size()];
          return t + static_cast<SimTime>(rng() % 3) - 1;
        };
        const auto r1 = static_cast<Rank>(rng() % static_cast<unsigned>(nranks));
        const auto r2 = static_cast<Rank>(rng() % static_cast<unsigned>(nranks));
        const SimTime t1 = pick();
        const SimTime t2 = pick();
        const bool answer = want.ordered(r1, t1, r2, t2);
        ASSERT_EQ(got.ordered(r1, t1, r2, t2), answer)
            << "nranks " << nranks << " seed " << seed << " query " << q;
        ordered += answer ? 1 : 0;
      }
      EXPECT_GT(ordered, 0u) << "nranks " << nranks << " seed " << seed;
    }
  }
}

TEST(CommLogRandomized, ExtremeTimesRoundTripThroughEveryForm) {
  // Times are stored as deltas; any int64 pair must survive, including
  // ones whose difference does not fit an int64.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  CommLog log;
  log.p2p.push_back({0, 1, std::numeric_limits<std::int32_t>::min(),
                     std::numeric_limits<std::uint64_t>::max(), kMax, kMin,
                     kMin, kMax});
  log.collectives.push_back(
      {CollectiveKind::Gather, 1, {{1, kMax, kMin}, {0, kMin, kMax}}});
  const auto bytes = trace::write_comm(log);
  expect_same_events(trace::decode_comm(bytes, 2), log);
  EXPECT_EQ(via_saved_trace(bytes, 2), bytes);
  EXPECT_EQ(via_chunk_trailer(bytes, 2), bytes);
}

TEST(CommLogRandomized, DecodeRejectsMalformedBytes) {
  std::mt19937_64 rng(5);
  const auto bytes = trace::write_comm(random_comm_log(rng, 4, 60));
  ASSERT_GT(bytes.p2p_count, 0u);
  ASSERT_GT(bytes.collective_count, 0u);
  // A rank count too small for the events, counts that disagree with
  // their sections, and trailing bytes all throw.
  EXPECT_THROW((void)trace::decode_comm(bytes, 1), Error);
  for (const bool p2p : {true, false}) {
    auto fewer = bytes;
    auto more = bytes;
    auto trailing = bytes;
    (p2p ? fewer.p2p_count : fewer.collective_count) -= 1;
    (p2p ? more.p2p_count : more.collective_count) += 1;
    (p2p ? trailing.p2p : trailing.collectives).push_back('\0');
    EXPECT_THROW((void)trace::decode_comm(fewer, 4), Error) << p2p;
    EXPECT_THROW((void)trace::decode_comm(more, 4), Error) << p2p;
    EXPECT_THROW((void)trace::decode_comm(trailing, 4), Error) << p2p;
  }
}

}  // namespace
}  // namespace pfsem
