#include "pfsem/mpi/world.hpp"

#include <algorithm>
#include <bit>
#include <coroutine>
#include <functional>

#include "pfsem/fault/injector.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::mpi {

// ---------------------------------------------------------------------
// internal state

struct World::PendingCollective {
  trace::CollectiveKind kind{};
  Rank root = kNoRank;
  std::uint64_t max_bytes = 0;
  // Group positions are computed once per join and kept beside the
  // arrival and the waiter, so completion indexes `exits` directly.
  std::vector<trace::CollectiveArrival> arrivals;          // t_enter global
  std::vector<std::size_t> arrival_pos;                    // of arrivals[i]
  std::vector<std::pair<std::size_t, std::coroutine_handle<>>> waiters;
  std::vector<char> joined;                                // by group position
  std::vector<SimTime> exits;                              // by group position
};

struct World::Mailbox {
  struct PendingSend {
    std::uint64_t bytes = 0;
    SimTime t_start = 0;
    std::coroutine_handle<> handle;  // null for eager (buffered) sends
    SimTime t_send_end = 0;          // valid for eager sends
  };
  struct PendingRecv {
    SimTime t_start = 0;
    std::coroutine_handle<> handle;
    std::uint64_t* bytes_out = nullptr;
  };
  std::deque<PendingSend> sends;
  std::deque<PendingRecv> recvs;
};

std::size_t group_pos(const Group& g, Rank r) {
  constexpr const char* kNotMember = "rank not a member of collective group";
  require(!g.empty(), kNotMember);
  const std::size_t n = g.size();
  if (r >= 0 && static_cast<std::size_t>(r) < n &&
      g[static_cast<std::size_t>(r)] == r) {
    return static_cast<std::size_t>(r);
  }
  if (static_cast<std::size_t>(g.back() - g.front()) == n - 1) {
    require(r >= g.front() && r <= g.back(), kNotMember);
    return static_cast<std::size_t>(r - g.front());
  }
  auto it = std::lower_bound(g.begin(), g.end(), r);
  require(it != g.end() && *it == r, kNotMember);
  return static_cast<std::size_t>(it - g.begin());
}

World::World(sim::Engine& engine, trace::Collector& collector, WorldConfig cfg)
    : engine_(&engine), collector_(&collector), cfg_(cfg), rng_(cfg.seed) {
  require(cfg_.nranks > 0, "world needs at least one rank");
  require(cfg_.ranks_per_node > 0, "ranks_per_node must be positive");
  all_.resize(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) all_[static_cast<std::size_t>(r)] = r;
}

World::~World() = default;

SimDuration World::transfer_time(std::uint64_t bytes) const {
  return static_cast<SimDuration>(static_cast<double>(bytes) / cfg_.net_bytes_per_ns);
}

void World::check_alive(Rank r) const {
  if (injector_ != nullptr && injector_->crashed(r)) throw sim::TaskKilled(r);
}

// ---------------------------------------------------------------------
// point-to-point

sim::Task<void> World::send(Rank from, Rank to, int tag, std::uint64_t bytes) {
  require(from != to, "self-send is not supported");
  check_alive(from);
  if (injector_ != nullptr) {
    // Dropped message: the sender times out and retransmits, which shows
    // up as extra latency before the (reliable) protocol below runs.
    const SimDuration drop = injector_->mpi_delay(from, to, engine_->now());
    if (drop > 0) {
      co_await engine_->delay(drop);
      check_alive(from);
    }
  }
  auto key = std::tuple{from, to, tag};
  auto& slot = mailboxes_[key];
  if (!slot) slot = std::make_unique<Mailbox>();
  Mailbox& mb = *slot;
  const SimTime t0 = engine_->now();

  if (!mb.recvs.empty()) {
    // A receiver is already parked: match immediately (rendezvous).
    auto pr = mb.recvs.front();
    mb.recvs.pop_front();
    const SimTime t_recv_end =
        std::max(t0 + cfg_.p2p_latency, pr.t_start) + transfer_time(bytes);
    const SimTime t_send_end = t_recv_end;
    *pr.bytes_out = bytes;
    collector_->emit_p2p({from, to, tag, bytes, t0, t_send_end, pr.t_start, t_recv_end});
    engine_->schedule(t_recv_end, pr.handle);
    co_await engine_->delay(t_send_end - t0);
    co_return;
  }

  if (bytes <= cfg_.eager_threshold) {
    // Eager protocol: buffer the payload and complete locally; the
    // matching receive finishes the transfer later.
    const SimTime t_send_end = t0 + cfg_.p2p_latency;
    mb.sends.push_back({bytes, t0, {}, t_send_end});
    co_await engine_->delay(t_send_end - t0);
    co_return;
  }

  // Rendezvous: park until a matching receive arrives; the receiver
  // completes the match.
  struct SendWait {
    Mailbox* mb;
    std::uint64_t bytes;
    SimTime t_start;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      mb->sends.push_back({bytes, t_start, h, 0});
    }
    void await_resume() const noexcept {}
  };
  co_await SendWait{&mb, bytes, t0};
}

sim::Task<std::uint64_t> World::recv(Rank me, Rank from, int tag) {
  check_alive(me);
  auto key = std::tuple{from, me, tag};
  auto& slot = mailboxes_[key];
  if (!slot) slot = std::make_unique<Mailbox>();
  Mailbox& mb = *slot;
  const SimTime t0 = engine_->now();

  if (!mb.sends.empty()) {
    auto ps = mb.sends.front();
    mb.sends.pop_front();
    const SimTime t_recv_end =
        std::max(ps.t_start + cfg_.p2p_latency, t0) + transfer_time(ps.bytes);
    const SimTime t_send_end = ps.handle ? t_recv_end : ps.t_send_end;
    collector_->emit_p2p(
        {from, me, tag, ps.bytes, ps.t_start, t_send_end, t0, t_recv_end});
    if (ps.handle) engine_->schedule(t_send_end, ps.handle);
    co_await engine_->delay(t_recv_end - t0);
    co_return ps.bytes;
  }

  std::uint64_t bytes = 0;
  struct RecvWait {
    Mailbox* mb;
    SimTime t_start;
    std::uint64_t* out;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      mb->recvs.push_back({t_start, h, out});
    }
    void await_resume() const noexcept {}
  };
  co_await RecvWait{&mb, t0, &bytes};
  co_return bytes;
}

// ---------------------------------------------------------------------
// collectives

std::deque<std::unique_ptr<World::PendingCollective>>& World::queue_for(
    const Group& group) {
  // A collective group is sorted and duplicate-free, so one the size of
  // the world can only be the world itself — route it past the
  // content-keyed map, whose O(nranks) key compare per joining rank
  // would make every world collective O(nranks^2).
  if (group.size() == all_.size()) return world_pending_;
  return pending_[group];
}

World::PendingCollective& World::join_collective(const Group& group, Rank me,
                                                 std::size_t pos,
                                                 trace::CollectiveKind kind,
                                                 Rank root, std::uint64_t bytes,
                                                 SimTime t_enter) {
  auto& queue = queue_for(group);
  for (auto& p : queue) {
    if (!p->joined[pos]) {
      require(p->kind == kind && p->root == root,
              "collective mismatch: ranks joined different operations");
      p->joined[pos] = 1;
      p->max_bytes = std::max(p->max_bytes, bytes);
      p->arrivals.push_back({me, t_enter, 0});
      p->arrival_pos.push_back(pos);
      return *p;
    }
  }
  // Full content validation once per collective, on the rank that opens
  // it — an O(group) check per *join* would put world collectives right
  // back at O(nranks^2). Strictly increasing, because group_pos's
  // contiguous-range shortcut relies on the group having no duplicates.
  require(std::adjacent_find(group.begin(), group.end(),
                             std::greater_equal<Rank>()) == group.end(),
          "collective group must be sorted and non-empty");
  auto p = std::make_unique<PendingCollective>();
  p->kind = kind;
  p->root = root;
  p->max_bytes = bytes;
  p->joined.assign(group.size(), 0);
  p->joined[pos] = 1;
  p->arrivals.push_back({me, t_enter, 0});
  p->arrival_pos.push_back(pos);
  p->exits.assign(group.size(), 0);
  queue.push_back(std::move(p));
  return *queue.back();
}

void World::complete_collective(const Group& group, PendingCollective& p) {
  SimTime latest = 0;
  for (const auto& a : p.arrivals) latest = std::max(latest, a.t_enter);
  const int hops = std::bit_width(group.size() - 1);  // ceil(log2(P))
  const SimTime t_done = latest + cfg_.collective_base +
                         cfg_.collective_hop * hops + transfer_time(p.max_bytes);
  for (std::size_t i = 0; i < p.arrivals.size(); ++i) {
    const SimDuration jitter =
        cfg_.exit_jitter == 0
            ? 0
            : static_cast<SimDuration>(
                  rng_.below(static_cast<std::uint64_t>(cfg_.exit_jitter) + 1));
    p.arrivals[i].t_exit = t_done + jitter;
    p.exits[p.arrival_pos[i]] = p.arrivals[i].t_exit;
  }
  trace::CollectiveEvent ev;
  ev.kind = p.kind;
  ev.root = p.root;
  ev.arrivals = std::move(p.arrivals);  // `p` is erased right after
  collector_->emit_collective(std::move(ev));
  for (auto& [pos, handle] : p.waiters) engine_->schedule(p.exits[pos], handle);
}

sim::Task<void> World::collective(Rank me, trace::CollectiveKind kind, Rank root,
                                  std::uint64_t bytes, const Group& group) {
  check_alive(me);
  const SimTime t_enter = engine_->now();
  require(!group.empty(), "collective group must be sorted and non-empty");
  const std::size_t pos = group_pos(group, me);
  PendingCollective& p =
      join_collective(group, me, pos, kind, root, bytes, t_enter);
  if (p.arrivals.size() == group.size()) {
    complete_collective(group, p);
    const SimTime my_exit = p.exits[pos];
    // Remove the completed collective before suspending; `p` dies here.
    auto& queue = queue_for(group);
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->get() == &p) {
        queue.erase(it);
        break;
      }
    }
    co_await engine_->delay(my_exit - engine_->now());
    co_return;
  }
  struct CollectiveWait {
    PendingCollective* p;
    std::size_t pos;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { p->waiters.emplace_back(pos, h); }
    void await_resume() const noexcept {}
  };
  co_await CollectiveWait{&p, pos};
}

sim::Task<void> World::barrier(Rank me) { return barrier(me, all_); }

sim::Task<void> World::barrier(Rank me, const Group& group) {
  return collective(me, trace::CollectiveKind::Barrier, kNoRank, 0, group);
}

sim::Task<void> World::bcast(Rank me, Rank root, std::uint64_t bytes) {
  return collective(me, trace::CollectiveKind::Bcast, root, bytes, all_);
}

sim::Task<void> World::reduce(Rank me, Rank root, std::uint64_t bytes) {
  return collective(me, trace::CollectiveKind::Reduce, root, bytes, all_);
}

sim::Task<void> World::allreduce(Rank me, std::uint64_t bytes) {
  return collective(me, trace::CollectiveKind::Allreduce, kNoRank, bytes, all_);
}

sim::Task<void> World::gather(Rank me, Rank root, std::uint64_t bytes_each) {
  return gather(me, root, bytes_each, all_);
}

sim::Task<void> World::gather(Rank me, Rank root, std::uint64_t bytes_each,
                              const Group& group) {
  return collective(me, trace::CollectiveKind::Gather, root,
                    bytes_each * group.size(), group);
}

sim::Task<void> World::allgather(Rank me, std::uint64_t bytes_each) {
  return collective(me, trace::CollectiveKind::Allgather, kNoRank,
                    bytes_each * all_.size(), all_);
}

sim::Task<void> World::scatter(Rank me, Rank root, std::uint64_t bytes_each) {
  return collective(me, trace::CollectiveKind::Scatter, root,
                    bytes_each * all_.size(), all_);
}

sim::Task<void> World::alltoall(Rank me, std::uint64_t bytes_each) {
  return collective(me, trace::CollectiveKind::Alltoall, kNoRank,
                    bytes_each * all_.size(), all_);
}

}  // namespace pfsem::mpi
