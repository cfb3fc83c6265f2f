#include "pfsem/apps/harness.hpp"

#include <algorithm>

#include "pfsem/util/error.hpp"

namespace pfsem::apps {

Harness::Harness(AppConfig cfg, Backend backend,
                 std::vector<sim::ClockModel> clocks)
    : Harness(cfg,
              std::visit(
                  [](const auto& c) {
                    return std::make_unique<vfs::PfsCluster>(c);
                  },
                  backend),
              std::move(clocks)) {
  pfs_ = static_cast<vfs::PfsCluster*>(fs_.get());
  servers_ = std::holds_alternative<vfs::ClusterConfig>(backend);
  if (cfg_.obs != nullptr) pfs_->set_observer(cfg_.obs);
}

Harness::Harness(AppConfig cfg, std::unique_ptr<vfs::FileSystem> fs,
                 std::vector<sim::ClockModel> clocks)
    : cfg_(cfg),
      collector_(cfg_.nranks, std::move(clocks)),
      engine_(cfg_.scheduler),
      fs_(std::move(fs)),
      world_(engine_, collector_,
             mpi::WorldConfig{.nranks = cfg_.nranks,
                              .ranks_per_node = cfg_.ranks_per_node,
                              .seed = cfg_.seed}) {
  require(fs_ != nullptr, "Harness needs a file system backend");
  if (cfg_.obs != nullptr) {
    engine_.set_observer(cfg_.obs);
    collector_.set_observer(cfg_.obs);
  }
  // Streaming must be armed before reserve(): the collector caps the
  // pre-size to one chunk when it knows records stream out.
  if (cfg_.stream_sink != nullptr) {
    collector_.enable_streaming(cfg_.stream_sink, cfg_.stream_chunk_records);
  }
  // Pre-size the collector's record vector. The registered app models
  // emit a few records per rank per time step (open/write/close plus
  // library bookkeeping), so steps-derived guesses land within a small
  // factor.
  const std::size_t hint =
      static_cast<std::size_t>(std::max(cfg_.steps, 1)) * 4 + 32;
  collector_.reserve(cfg_.nranks, hint);
  rank_rngs_.reserve(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    rank_rngs_.emplace_back(cfg.seed * 1000003 + static_cast<std::uint64_t>(r));
  }
}

vfs::PfsCluster& Harness::pfs() {
  require(pfs_ != nullptr, "pfs(): a custom file-system backend is in use");
  return *pfs_;
}

sim::Engine::Delay Harness::compute(Rank r, SimDuration base) {
  // Operation-boundary crash check: a crashed rank never starts another
  // time step (iolib and mpi enforce the same at their entry points).
  if (injector_ != nullptr && injector_->crashed(r)) throw sim::TaskKilled(r);
  auto& rng = rank_rngs_[static_cast<std::size_t>(r)];
  const auto jitter =
      static_cast<SimDuration>(rng.below(static_cast<std::uint64_t>(base / 4 + 1)));
  return engine_.delay(base + jitter);
}

void Harness::set_faults(const fault::FaultPlan& plan,
                         std::uint64_t fault_seed) {
  // Server events need a named topology; fail loudly at arm time rather
  // than silently dropping an event mid-run.
  if (servers_) {
    plan.validate_topology(pfs_->config().mds_count,
                           pfs_->config().ost_count);
  } else {
    plan.validate_topology(0, 0);
  }
  injector_ =
      std::make_unique<fault::Injector>(plan, fault_seed, cfg_.ranks_per_node);
  injector_->set_observer(cfg_.obs);
  fs_->set_fault_injector(injector_.get());
  world_.set_fault_injector(injector_.get());
}

std::uint64_t Harness::shaped(std::uint64_t salt, Rank r, std::uint64_t lo,
                              std::uint64_t hi) const {
  require(hi >= lo, "shaped: bad range");
  // SplitMix64-style stateless hash of (seed, salt, rank).
  std::uint64_t z = cfg_.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(r) * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return lo + z % (hi - lo + 1);
}

void Harness::run(const std::function<sim::Task<void>(Rank)>& program) {
  if (injector_ != nullptr) {
    // One scheduler root per planned crash: at the crash instant, mark the
    // victim dead (every later op boundary kills its program) and discard
    // its non-durable writes per the active consistency model.
    for (const auto& [victim, when] : injector_->crash_schedule(cfg_.nranks)) {
      engine_.spawn(
          [](Harness* h, Rank rank, SimTime t) -> sim::Engine::Root {
            co_await h->engine_.delay(t);
            h->injector_->mark_crashed(rank, h->engine_.now());
            h->injector_->note_lost_writes(
                h->fs_->crash_rank(rank, h->engine_.now()));
          }(this, victim, when));
    }
    // One root per planned server crash/restart: fault domains flip state
    // at their simulated instants, in deterministic DES order (the
    // schedule is pre-sorted, and spawn order breaks time ties). Empty
    // unless servers_: set_faults rejected the events otherwise.
    for (const fault::ServerEvent& ev : injector_->server_schedule()) {
      engine_.spawn(
          [](Harness* h, fault::ServerEvent e) -> sim::Engine::Root {
            co_await h->engine_.delay(e.t);
            h->pfs_->apply_server_event(e, h->engine_.now());
          }(this, ev));
    }
  }
  // Every root points at the one program: it outlives engine_.run(),
  // and a failed run destroys the roots before run() rethrows. Each rank's
  // wrapper is the engine's root itself, so a rank costs one root frame.
  for (Rank r = 0; r < cfg_.nranks; ++r) {
    engine_.spawn(
        [](Harness* h, Rank rank,
           const std::function<sim::Task<void>(Rank)>* body)
            -> sim::Engine::Root {
          // The paper's methodology: a startup barrier defines time zero and
          // bounds clock skew before any traced I/O happens.
          co_await h->world().barrier(rank);
          obs::Run* const orun = h->cfg_.obs;
          const SimTime t0 = h->engine_.now();
          // Span even for crashed ranks: note the kill, emit, rethrow
          // (the emit is synchronous, so no co_await inside the catch).
          try {
            co_await (*body)(rank);
          } catch (const sim::TaskKilled&) {
            if (orun != nullptr && orun->tracing()) {
              orun->tracer.complete({obs::kPidHarness, rank}, "rank-program",
                                    t0, h->engine_.now() - t0, {"killed", 1});
            }
            throw;
          }
          if (orun != nullptr && orun->tracing()) {
            orun->tracer.complete({obs::kPidHarness, rank}, "rank-program", t0,
                                  h->engine_.now() - t0);
          }
        }(this, r, &program),
        /*label=*/r);
  }
  engine_.run();
  if (cfg_.obs != nullptr && pfs_ != nullptr) {
    // Publish the backend's introspection counters as gauges. Stable:
    // lock/OST traffic is a pure function of the simulated op sequence.
    auto& m = cfg_.obs->metrics;
    const vfs::LockStats& ls = pfs_->lock_stats();
    const vfs::OstStats& os = pfs_->ost_stats();
    m.set(cfg_.obs->vfs_lock_requests, static_cast<std::int64_t>(ls.requests));
    m.set(cfg_.obs->vfs_lock_revocations,
          static_cast<std::int64_t>(ls.revocations));
    m.set(cfg_.obs->vfs_meta_ops, static_cast<std::int64_t>(ls.meta_ops));
    m.set(cfg_.obs->vfs_ost_bytes, static_cast<std::int64_t>(os.total_bytes));
    const vfs::CompactionStats& cs = pfs_->compaction_stats();
    m.set(cfg_.obs->vfs_compacted_writes,
          static_cast<std::int64_t>(cs.folded_writes));
    m.set(cfg_.obs->vfs_compaction_passes,
          static_cast<std::int64_t>(cs.passes));
    if (servers_) {
      // Per-server gauges, registered dynamically (topology is a run
      // parameter, not part of the static catalogue). Stable: per-shard
      // routing and striping are pure functions of the op sequence.
      const auto& mds = pfs_->mds_states();
      for (std::size_t i = 0; i < mds.size(); ++i) {
        const std::string base = "vfs.mds" + std::to_string(i);
        m.set(m.gauge(base + ".meta_ops"),
              static_cast<std::int64_t>(mds[i].meta_ops));
        m.set(m.gauge(base + ".failovers"),
              static_cast<std::int64_t>(mds[i].failovers));
        m.set(m.gauge(base + ".up"), mds[i].up ? 1 : 0);
      }
      for (std::size_t i = 0; i < os.bytes.size(); ++i) {
        const std::string base = "vfs.ost" + std::to_string(i);
        m.set(m.gauge(base + ".bytes"),
              static_cast<std::int64_t>(os.bytes[i]));
        m.set(m.gauge(base + ".up"),
              pfs_->ost_states()[i].up ? 1 : 0);
      }
    }
  }
  if (cfg_.obs != nullptr && cfg_.obs->ledger_on()) {
    // Resolve ledger FileIds to paths for display/export. The ledger never
    // interns (that would perturb FileId assignment under obs-on); it only
    // mirrors the collector's table after the run.
    for (FileId f = 0; f < collector_.path_count(); ++f) {
      cfg_.obs->ledger.note_path(f, std::string(collector_.path_view(f)));
    }
  }
}

core::DegradedSummary degraded_summary(const fault::FaultStats& stats) {
  core::DegradedSummary d;
  d.faults_injected = stats.transient_faults;
  d.faults_eio = stats.faults_eio;
  d.faults_enospc = stats.faults_enospc;
  d.retries = stats.retries;
  d.giveups = stats.giveups;
  d.mpi_drops = stats.mpi_drops;
  d.slowed_transfers = stats.slowed_transfers;
  d.delayed_writes = stats.delayed_writes;
  d.writes_lost = stats.writes_lost;
  d.crashed_ranks.assign(stats.crashed_ranks.begin(),
                         stats.crashed_ranks.end());
  d.server_crashes = stats.server_crashes;
  d.server_restarts = stats.server_restarts;
  d.mds_failovers = stats.mds_failovers;
  d.failover_redirects = stats.failover_redirects;
  d.degraded_reads = stats.degraded_reads;
  d.crashed_servers = stats.crashed_servers;
  return d;
}

}  // namespace pfsem::apps
