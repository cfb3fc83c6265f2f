// Unit tests for happens-before reconstruction over matched communication
// events (Section 5.2 validation machinery).

#include <gtest/gtest.h>

#include <algorithm>

#include "pfsem/core/happens_before.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::core {
namespace {

using trace::CollectiveEvent;
using trace::CollectiveKind;
using trace::CommLog;
using trace::P2PEvent;

CollectiveEvent collective(CollectiveKind kind, Rank root,
                           std::vector<std::array<SimTime, 2>> windows) {
  CollectiveEvent ev;
  ev.kind = kind;
  ev.root = root;
  for (std::size_t r = 0; r < windows.size(); ++r) {
    ev.arrivals.push_back(
        {static_cast<Rank>(r), windows[r][0], windows[r][1]});
  }
  return ev;
}

TEST(HappensBefore, SameRankIsProgramOrder) {
  CommLog log;
  HappensBefore hb(log, 4);
  EXPECT_TRUE(hb.ordered(2, 100, 2, 200));
  EXPECT_TRUE(hb.ordered(2, 100, 2, 100));
  EXPECT_FALSE(hb.ordered(2, 200, 2, 100));
}

TEST(HappensBefore, NoCommunicationNoOrder) {
  CommLog log;
  HappensBefore hb(log, 4);
  EXPECT_FALSE(hb.ordered(0, 100, 1, 10'000));
  EXPECT_FALSE(hb.ordered(1, 100, 0, 10'000));
}

TEST(HappensBefore, BarrierOrdersAcrossIt) {
  CommLog log;
  log.collectives.push_back(collective(
      CollectiveKind::Barrier, kNoRank, {{500, 600}, {510, 600}, {520, 605}}));
  HappensBefore hb(log, 3);
  // Before-barrier on 0 precedes after-barrier on 1.
  EXPECT_TRUE(hb.ordered(0, 100, 1, 700));
  EXPECT_TRUE(hb.ordered(2, 100, 0, 700));
  // Both on the same side of the barrier: unordered.
  EXPECT_FALSE(hb.ordered(0, 100, 1, 200));
  EXPECT_FALSE(hb.ordered(0, 700, 1, 800));
  // The op after the barrier on 0 does not precede ops before it on 1.
  EXPECT_FALSE(hb.ordered(0, 700, 1, 100));
}

TEST(HappensBefore, SendRecvOrdersOneDirection) {
  CommLog log;
  log.p2p.push_back(P2PEvent{0, 1, 0, 64, 500, 550, 520, 560});
  HappensBefore hb(log, 2);
  EXPECT_TRUE(hb.ordered(0, 100, 1, 600)) << "pre-send precedes post-recv";
  EXPECT_FALSE(hb.ordered(1, 100, 0, 600)) << "no edge receiver->sender ops";
  EXPECT_FALSE(hb.ordered(0, 520, 1, 540))
      << "op after send start is not released by that send";
}

TEST(HappensBefore, TransitiveChainThroughIntermediate) {
  // 0 -> 1 (recv by 600), then 1 -> 2 (send at 700): op on 0 before 500
  // precedes op on 2 after 800.
  CommLog log;
  log.p2p.push_back(P2PEvent{0, 1, 0, 8, 500, 550, 520, 560});
  log.p2p.push_back(P2PEvent{1, 2, 0, 8, 700, 750, 720, 760});
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(0, 100, 2, 800));
  EXPECT_FALSE(hb.ordered(2, 100, 0, 800));
}

TEST(HappensBefore, ChainBrokenIfIntermediateSendsFirst) {
  // 1 sends to 2 *before* receiving from 0: no transitivity.
  CommLog log;
  log.p2p.push_back(P2PEvent{1, 2, 0, 8, 100, 150, 120, 160});
  log.p2p.push_back(P2PEvent{0, 1, 0, 8, 500, 550, 520, 560});
  HappensBefore hb(log, 3);
  EXPECT_FALSE(hb.ordered(0, 50, 2, 800));
}

TEST(HappensBefore, BcastOrdersRootToLeaves) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Bcast, 0,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(0, 100, 1, 700));
  EXPECT_TRUE(hb.ordered(0, 100, 2, 700));
  EXPECT_FALSE(hb.ordered(1, 100, 0, 700)) << "no leaf->root edge in bcast";
  EXPECT_FALSE(hb.ordered(1, 100, 2, 700)) << "no leaf->leaf edge in bcast";
}

TEST(HappensBefore, GatherOrdersLeavesToRoot) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Gather, 0,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(1, 100, 0, 700));
  EXPECT_TRUE(hb.ordered(2, 100, 0, 700));
  EXPECT_FALSE(hb.ordered(0, 100, 1, 700)) << "no root->leaf edge in gather";
}

TEST(HappensBefore, AllreduceOrdersEveryoneBothWays) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Allreduce, kNoRank,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  for (Rank a = 0; a < 3; ++a) {
    for (Rank b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(hb.ordered(a, 100, b, 700)) << a << "->" << b;
    }
  }
}

TEST(HappensBefore, SuccessiveBarriersAccumulate) {
  CommLog log;
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{100, 150}, {110, 150}}));
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{300, 350}, {310, 350}}));
  HappensBefore hb(log, 2);
  EXPECT_TRUE(hb.ordered(0, 50, 1, 200));
  EXPECT_TRUE(hb.ordered(0, 200, 1, 400)) << "second barrier orders the gap";
  EXPECT_FALSE(hb.ordered(0, 400, 1, 200));
}

TEST(HappensBefore, RejectsCollectivesNamingUnknownRanksOrKinds) {
  // Each of these indexes a per-rank table out of bounds if replayed.
  const auto build = [](CollectiveEvent ev) {
    CommLog log;
    log.collectives.push_back(std::move(ev));
    return HappensBefore(log, 2);
  };
  CollectiveEvent arrival = collective(CollectiveKind::Barrier, kNoRank,
                                       {{10, 20}, {10, 20}});
  arrival.arrivals[1].rank = 5;
  EXPECT_THROW((void)build(arrival), Error);
  arrival.arrivals[1].rank = -1;
  EXPECT_THROW((void)build(arrival), Error);

  for (const auto kind : {CollectiveKind::Bcast, CollectiveKind::Scatter,
                          CollectiveKind::Reduce, CollectiveKind::Gather}) {
    EXPECT_THROW((void)build(collective(kind, 2, {{10, 20}, {10, 20}})), Error)
        << trace::to_string(kind);
    EXPECT_THROW((void)build(collective(kind, kNoRank, {{10, 20}, {10, 20}})),
                 Error)
        << trace::to_string(kind);
  }
  EXPECT_THROW((void)build(collective(static_cast<CollectiveKind>(42), kNoRank,
                                      {{10, 20}, {10, 20}})),
               Error);
  // Rootless kinds carry no root to check.
  (void)build(collective(CollectiveKind::Allreduce, 99, {{10, 20}, {10, 20}}));
}

TEST(RaceCheckIntegration, SynchronizedAndRacyCounted) {
  // Conflict pair ordered by a barrier vs pair with no synchronization.
  CommLog log;
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{500, 550}, {505, 550}}));
  HappensBefore hb(log, 2);

  ConflictReport report;
  Conflict synced;
  synced.first.rank = 0;
  synced.first.t = 100;
  synced.second.rank = 1;
  synced.second.t = 600;
  report.conflicts.push_back(synced);
  Conflict racy;
  racy.first.rank = 0;
  racy.first.t = 600;   // after the barrier on 0
  racy.second.rank = 1;
  racy.second.t = 700;  // no sync between those two ops
  report.conflicts.push_back(racy);

  const auto rc = validate_synchronization(report, hb);
  EXPECT_EQ(rc.checked, 2u);
  EXPECT_EQ(rc.synchronized, 1u);
  EXPECT_EQ(rc.racy, 1u);
}

}  // namespace
}  // namespace pfsem::core
