// Unit tests for the simulated MPI layer: barrier/collective semantics,
// point-to-point matching, and the CommLog events the happens-before
// analysis consumes.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pfsem/mpi/world.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::mpi {
namespace {

struct Fixture {
  explicit Fixture(int nranks, WorldConfig cfg = {}) : collector(nranks) {
    cfg.nranks = nranks;
    world.emplace(engine, collector, cfg);
  }
  /// The captured comm log, decoded.
  [[nodiscard]] trace::CommLog comm() const {
    return trace::decode_comm(collector.bundle().comm, collector.nranks());
  }
  sim::Engine engine;
  trace::Collector collector;
  std::optional<World> world;
};

TEST(Barrier, NobodyLeavesBeforeLastArrives) {
  Fixture f(8);
  SimTime last_enter = 0;
  SimTime first_exit = kTimeNever;
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.engine.delay(100 * (r + 1));  // staggered arrivals
    last_enter = std::max(last_enter, f.engine.now());
    co_await f.world->barrier(r);
    first_exit = std::min(first_exit, f.engine.now());
  };
  for (Rank r = 0; r < 8; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  EXPECT_GE(first_exit, last_enter);
  const auto comm = f.comm();
  ASSERT_EQ(comm.collectives.size(), 1u);
  const auto& ev = comm.collectives[0];
  EXPECT_EQ(ev.kind, trace::CollectiveKind::Barrier);
  EXPECT_EQ(ev.arrivals.size(), 8u);
}

TEST(Barrier, SubgroupBarrierOnlyBlocksMembers) {
  Fixture f(8);
  const Group sub{0, 2, 4};
  bool outsider_done = false;
  auto member = [&](Rank r) -> sim::Task<void> {
    co_await f.world->barrier(r, sub);
  };
  auto outsider = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1);
    outsider_done = true;
    co_return;
  };
  for (Rank r : sub) f.engine.spawn(member(r));
  f.engine.spawn(outsider());
  f.engine.run();
  EXPECT_TRUE(outsider_done);
}

TEST(Barrier, BackToBackBarriersDoNotMixEpochs) {
  Fixture f(4);
  std::vector<int> exits;
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.engine.delay(static_cast<SimDuration>(r) * 50);
    co_await f.world->barrier(r);
    exits.push_back(1);
    co_await f.world->barrier(r);
    exits.push_back(2);
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  ASSERT_EQ(exits.size(), 8u);
  // All epoch-1 exits precede all epoch-2 exits.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(exits[static_cast<std::size_t>(i)], 1);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(exits[static_cast<std::size_t>(i)], 2);
  EXPECT_EQ(f.collector.bundle().comm.collective_count, 2u);
}

TEST(P2P, SendThenRecvMatches) {
  Fixture f(2);
  std::uint64_t got = 0;
  auto sender = [&]() -> sim::Task<void> { co_await f.world->send(0, 1, 5, 4096); };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1000);
    got = co_await f.world->recv(1, 0, 5);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, 4096u);
  const auto comm = f.comm();
  ASSERT_EQ(comm.p2p.size(), 1u);
  const auto& ev = comm.p2p[0];
  EXPECT_EQ(ev.src, 0);
  EXPECT_EQ(ev.dst, 1);
  EXPECT_EQ(ev.tag, 5);
  EXPECT_LT(ev.t_send_start, ev.t_recv_end);
}

TEST(P2P, RecvBeforeSendAlsoMatches) {
  Fixture f(2);
  std::uint64_t got = 0;
  auto receiver = [&]() -> sim::Task<void> { got = co_await f.world->recv(1, 0, 9); };
  auto sender = [&]() -> sim::Task<void> {
    co_await f.engine.delay(2000);
    co_await f.world->send(0, 1, 9, 128);
  };
  f.engine.spawn(receiver());
  f.engine.spawn(sender());
  f.engine.run();
  EXPECT_EQ(got, 128u);
}

TEST(P2P, TagsDoNotCrossMatch) {
  Fixture f(2);
  std::vector<std::uint64_t> got;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, /*tag=*/1, 111);
    co_await f.world->send(0, 1, /*tag=*/2, 222);
  };
  auto receiver = [&]() -> sim::Task<void> {
    // Receive tag 2 first; must not consume the tag-1 message.
    got.push_back(co_await f.world->recv(1, 0, 2));
    got.push_back(co_await f.world->recv(1, 0, 1));
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{222, 111}));
}

TEST(P2P, FifoPerChannelNonOvertaking) {
  Fixture f(2);
  std::vector<std::uint64_t> got;
  auto sender = [&]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= 3; ++i) co_await f.world->send(0, 1, 0, i);
  };
  auto receiver = [&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await f.world->recv(1, 0, 0));
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
}

// --- group positions ------------------------------------------------------

TEST(GroupPos, EveryShapeMapsMembersAndRejectsOutsiders) {
  const std::vector<Group> shapes = {
      {0, 1, 2, 3, 4, 5, 6, 7},  // the world
      {0, 1, 2},                 // identity prefix
      {2, 3, 4},                 // contiguous range
      {1, 3, 5},                 // sparse
      {5},                       // singleton
  };
  for (const Group& g : shapes) {
    SCOPED_TRACE("group of " + std::to_string(g.size()) + " from " +
                 std::to_string(g.front()));
    for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(group_pos(g, g[i]), i);
    for (Rank r = -2; r < 12; ++r) {
      if (std::find(g.begin(), g.end(), r) == g.end()) {
        EXPECT_THROW((void)group_pos(g, r), Error) << "rank " << r;
      }
    }
  }
  EXPECT_THROW((void)group_pos(Group{}, 0), Error);
}

// Members arrive out of rank order; the logged event and every exit time
// are pinned to the values the binary-search join produced, so the O(1)
// position paths change nothing observable.
TEST(GroupPos, BarrierOverEveryShapeKeepsExits) {
  struct Shape {
    Group group;
    std::vector<SimTime> exits;  // by group position
  };
  const std::vector<Shape> shapes = {
      {{0, 1, 2, 3, 4, 5, 6, 7},
       {11242, 9207, 11151, 9817, 12169, 8740, 9018, 12128}},
      {{0, 1, 2}, {9642, 8217, 10528}},
      {{2, 3, 4}, {10628, 9742, 8317}},
      {{1, 3, 5}, {8217, 9642, 10528}},
      {{5}, {6542}},
  };
  for (const Shape& shape : shapes) {
    const Group& g = shape.group;
    SCOPED_TRACE("group of " + std::to_string(g.size()) + " from " +
                 std::to_string(g.front()));
    Fixture f(8);
    std::vector<SimTime> exits(g.size(), -1);
    auto prog = [&](Rank r, std::size_t pos) -> sim::Task<void> {
      co_await f.engine.delay(100 * ((r * 5) % 7 + 1));
      co_await f.world->barrier(r, g);
      exits[pos] = f.engine.now();
    };
    for (std::size_t i = 0; i < g.size(); ++i) f.engine.spawn(prog(g[i], i));
    f.engine.run();
    EXPECT_EQ(exits, shape.exits);
    const auto log = f.comm().collectives;
    ASSERT_EQ(log.size(), 1u);
    std::vector<Rank> arrived;
    for (const auto& a : log[0].arrivals) {
      arrived.push_back(a.rank);
      EXPECT_EQ(a.t_exit, exits[group_pos(g, a.rank)]);
    }
    std::sort(arrived.begin(), arrived.end());
    EXPECT_EQ(arrived, g);
  }
}

TEST(Collectives, EachKindLogsMatchedEvent) {
  Fixture f(4);
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.world->bcast(r, 0, 1024);
    co_await f.world->reduce(r, 0, 64);
    co_await f.world->allreduce(r, 8);
    co_await f.world->gather(r, 0, 256);
    co_await f.world->allgather(r, 32);
    co_await f.world->scatter(r, 0, 128);
    co_await f.world->alltoall(r, 16);
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto log = f.comm().collectives;
  ASSERT_EQ(log.size(), 7u);
  using K = trace::CollectiveKind;
  EXPECT_EQ(log[0].kind, K::Bcast);
  EXPECT_EQ(log[0].root, 0);
  EXPECT_EQ(log[1].kind, K::Reduce);
  EXPECT_EQ(log[2].kind, K::Allreduce);
  EXPECT_EQ(log[3].kind, K::Gather);
  EXPECT_EQ(log[4].kind, K::Allgather);
  EXPECT_EQ(log[5].kind, K::Scatter);
  EXPECT_EQ(log[6].kind, K::Alltoall);
  for (const auto& ev : log) EXPECT_EQ(ev.arrivals.size(), 4u);
}

TEST(Collectives, MismatchedKindThrows) {
  Fixture f(2);
  auto a = [&]() -> sim::Task<void> { co_await f.world->bcast(0, 0, 8); };
  auto b = [&]() -> sim::Task<void> { co_await f.world->allreduce(1, 8); };
  f.engine.spawn(a());
  f.engine.spawn(b());
  EXPECT_THROW(f.engine.run(), Error);
}

TEST(Collectives, ExitJitterSpreadsRanks) {
  WorldConfig cfg;
  cfg.exit_jitter = 10'000;
  Fixture f(16, cfg);
  auto prog = [&](Rank r) -> sim::Task<void> { co_await f.world->barrier(r); };
  for (Rank r = 0; r < 16; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto comm = f.comm();
  const auto& ev = comm.collectives.at(0);
  std::set<SimTime> exits;
  for (const auto& a : ev.arrivals) exits.insert(a.t_exit);
  EXPECT_GT(exits.size(), 1u) << "jitter should spread exit times";
}

TEST(World, NodePlacement) {
  Fixture f(16, WorldConfig{.ranks_per_node = 4});
  EXPECT_EQ(f.world->node_of(0), 0);
  EXPECT_EQ(f.world->node_of(3), 0);
  EXPECT_EQ(f.world->node_of(4), 1);
  EXPECT_EQ(f.world->node_of(15), 3);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    Fixture f(8);
    auto prog = [&f](Rank r) -> sim::Task<void> {
      co_await f.world->barrier(r);
      co_await f.world->allreduce(r, 64);
      if (r == 0) co_await f.world->send(0, 1, 3, 99);
      if (r == 1) (void)co_await f.world->recv(1, 0, 3);
      co_await f.world->barrier(r);
    };
    for (Rank r = 0; r < 8; ++r) f.engine.spawn(prog(r));
    f.engine.run();
    return f.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(P2P, EagerSendCompletesWithoutReceiver) {
  Fixture f(2);
  SimTime send_done = 0;
  bool recv_done = false;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 0, 1024);  // below eager threshold
    send_done = f.engine.now();
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1'000'000);  // receiver shows up 1 ms later
    (void)co_await f.world->recv(1, 0, 0);
    recv_done = true;
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_TRUE(recv_done);
  EXPECT_LT(send_done, 1'000'000)
      << "eager send must not block on the late receiver";
}

TEST(P2P, LargeSendRendezvousesWithReceiver) {
  WorldConfig cfg;
  cfg.eager_threshold = 1024;
  Fixture f(2, cfg);
  SimTime send_done = 0;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 0, 1 << 20);  // above threshold
    send_done = f.engine.now();
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1'000'000);
    (void)co_await f.world->recv(1, 0, 0);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_GE(send_done, 1'000'000)
      << "rendezvous send completes only after the receive matches";
}

TEST(P2P, HappensBeforeEdgeLoggedForEagerToo) {
  Fixture f(2);
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 3, 64);
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(500'000);
    (void)co_await f.world->recv(1, 0, 3);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  const auto comm = f.comm();
  ASSERT_EQ(comm.p2p.size(), 1u);
  const auto& e = comm.p2p[0];
  EXPECT_LT(e.t_send_start, e.t_recv_end);
  EXPECT_GE(e.t_recv_start, 500'000);
}

}  // namespace
}  // namespace pfsem::mpi
