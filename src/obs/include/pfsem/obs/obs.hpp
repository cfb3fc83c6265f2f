#pragma once
// pfsem::obs — built-in observability for the capture/analysis stack.
//
// One obs::Run is the per-run observability context: a deterministic
// MetricsRegistry plus a span/event Tracer, with every hot-path handle
// pre-registered as a plain struct field so instrumented code pays one
// branch on a pre-fetched handle when observability is disabled and one
// array add when it is enabled.
//
// Wiring: everything is off by default. A caller that wants
// observability constructs a Run and hands its address to the stack
// (apps::AppConfig::obs wires the harness, engine, collector, injector,
// and iolib facades). Components never own the Run; the driver (CLI,
// test) does.
//
// See docs/observability.md for the metric catalogue, the span schema,
// and the determinism contract.

#include <string>

#include "pfsem/obs/ledger.hpp"
#include "pfsem/obs/metrics.hpp"
#include "pfsem/obs/tracer.hpp"

namespace pfsem::obs {

struct Config {
  /// Record counters/gauges/histograms and the run summary.
  bool metrics = false;
  /// Record timeline spans/events for Chrome-trace export. Costs one
  /// in-memory Event per I/O record; enable for runs you will look at.
  bool tracing = false;
  /// Record per-(FileId × rank × op-class) cost rows (obs/ledger.hpp).
  /// Costs one vfs counter snapshot pair plus one sorted-vector update
  /// per traced call; the structured JSON export (--obs-json) needs it.
  bool ledger = false;

  [[nodiscard]] bool any() const { return metrics || tracing || ledger; }
};

struct Run {
  explicit Run(Config c);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Config cfg;
  MetricsRegistry metrics;
  Tracer tracer;
  /// Cost-attribution rows (filled only when cfg.ledger; see ledger.hpp).
  Ledger ledger;

  [[nodiscard]] bool tracing() const { return cfg.tracing; }
  [[nodiscard]] bool ledger_on() const { return cfg.ledger; }

  // --- pre-registered handles (the metric catalogue) --------------------
  // sim::Engine
  Counter sim_events;        ///< events dispatched (stable)
  Counter sim_roots;         ///< root tasks spawned (stable)
  Counter sim_roots_killed;  ///< roots terminated by TaskKilled (stable)
  Gauge sim_end_time;        ///< simulated time when run() drained (stable)
  Counter sim_ring_pops;     ///< near-time ring dispatches (volatile)
  Counter sim_heap_pops;     ///< heap dispatches (volatile)
  Counter sim_heap_scheduled;  ///< events routed to the far-future heap (volatile)
  Counter sim_compactions;   ///< bucket consumed-prefix compactions (volatile)
  // trace::Collector
  Counter trace_records;  ///< records captured (stable)
  Gauge trace_files;      ///< paths interned at take() (stable)
  Counter trace_handoffs;  ///< batches handed to the stream sink (volatile)
  Gauge trace_handoff_bytes;  ///< largest hand-off, in bytes (volatile)
  // iolib / vfs (fed from the collector's emit stream + retry loops)
  Counter io_ops;         ///< every traced call (stable)
  Counter io_reads;       ///< POSIX-layer read/pread (stable)
  Counter io_writes;      ///< POSIX-layer write/pwrite (stable)
  Counter io_meta;        ///< metadata/utility calls (stable)
  Counter io_read_bytes;  ///< bytes returned by POSIX-layer reads (stable)
  Counter io_write_bytes;  ///< bytes written by POSIX-layer writes (stable)
  Hist io_read_size;      ///< POSIX-layer read request sizes (stable)
  Hist io_write_size;     ///< POSIX-layer write request sizes (stable)
  Counter io_retries;     ///< retry attempts consumed (stable)
  Counter io_giveups;     ///< ops that exhausted their retry budget (stable)
  // mpi (fed from the collector's matched-event stream)
  Counter mpi_p2p;          ///< matched point-to-point events (stable)
  Counter mpi_collectives;  ///< matched collectives (stable)
  // vfs::PfsCluster (published by the harness after the run)
  Gauge vfs_lock_requests;     ///< MDS lock acquisitions (stable)
  Gauge vfs_lock_revocations;  ///< conflicting holders called back (stable)
  Gauge vfs_meta_ops;          ///< metadata-server round trips (stable)
  Gauge vfs_ost_bytes;         ///< bytes transferred across all OSTs (stable)
  Gauge vfs_compacted_writes;  ///< writes folded into base extent maps (stable)
  Gauge vfs_compaction_passes;  ///< compaction passes that folded writes (stable)
  // core::StreamAnalyzer live window (analysis-side; the materialized
  // oracle never sets them, so they must stay out of the stable dump)
  Gauge window_live_files;        ///< peak files live in the window (volatile)
  Gauge window_retired_accesses;  ///< accesses freed mid-stream (volatile)
  // fault::Injector
  Counter fault_transient;    ///< transient errors injected (stable)
  Counter fault_eio;          ///< ... of which EIO (stable)
  Counter fault_enospc;       ///< ... of which ENOSPC (stable)
  Counter fault_mpi_drops;    ///< messages dropped + retransmitted (stable)
  Counter fault_slowdowns;    ///< transfers hit by OST slowdowns (stable)
  Counter fault_delays;       ///< writes hit by visibility spikes (stable)
  Counter fault_crashes;      ///< ranks fail-stopped (stable)
  Counter fault_writes_lost;  ///< versions discarded by crashes (stable)
  Counter fault_server_crashes;   ///< MDS/OST servers fail-stopped (stable)
  Counter fault_server_restarts;  ///< servers rejoined (stable)
  Counter fault_failovers;        ///< standby MDS replicas promoted (stable)
  Counter fault_redirects;        ///< client ops re-sent after EHOSTDOWN (stable)
  Counter fault_degraded_reads;   ///< reads with dead-OST holes (stable)
};

/// Compact human-readable summary of a Run — the block appended to the
/// run report (core::RunReport::obs_summary) and printed by the CLI.
/// Includes the injected-fault event list when tracing captured one.
[[nodiscard]] std::string summary(const Run& run);

}  // namespace pfsem::obs
