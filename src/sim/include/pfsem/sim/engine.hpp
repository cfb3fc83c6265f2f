#pragma once
// Discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events fire in (time, insertion
// sequence) order, so a given workload + seed always produces bit-identical
// traces. Rank programs are coroutines spawned as root tasks; they advance
// simulated time only through `co_await engine.delay(d)` (directly or via
// the I/O-cost models layered above).
//
// Two scheduler implementations share that contract (SchedulerKind):
//
//  - Bucketed (default): a near-time ring of FIFO buckets covering
//    [now, now + kRingWindow) plus a fallback heap for far-future wakeups.
//    The overwhelmingly common case — `delay(0)` fairness round-trips and
//    short I/O-model delays — costs an O(1) bucket append/pop instead of
//    an O(log n) heap operation on the full pending-event set.
//  - Heap: the original single std::priority_queue. Retained as the
//    debug/differential oracle (mirrors detect_overlaps_scan): firing
//    sequences must be identical event-for-event between the two kinds,
//    which tests/test_sim_determinism.cpp enforces over random schedules.

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <queue>
#include <vector>

#include "pfsem/obs/obs.hpp"
#include "pfsem/sim/task.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::sim {

/// Thrown inside a root task to terminate it cleanly (fail-stop crash
/// injection: pfsem::fault). The engine absorbs it — the root unwinds,
/// counts as killed rather than failed, and the simulation continues.
class TaskKilled : public std::exception {
 public:
  explicit TaskKilled(int label = -1) : label_(label) {}
  /// The spawn() label (the harness passes the rank) of the killed task.
  [[nodiscard]] int label() const noexcept { return label_; }
  [[nodiscard]] const char* what() const noexcept override {
    return "simulated task killed (fail-stop crash)";
  }

 private:
  int label_;
};

/// Which event-queue implementation an Engine runs on (see file comment).
enum class SchedulerKind : std::uint8_t { Bucketed, Heap };

class Engine {
 public:
  explicit Engine(SchedulerKind scheduler = SchedulerKind::Bucketed)
      : kind_(scheduler) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (global, skew-free).
  [[nodiscard]] SimTime now() const { return now_; }

  /// The scheduler implementation this engine runs on.
  [[nodiscard]] SchedulerKind scheduler() const { return kind_; }

  /// Schedule a coroutine to resume at absolute time `t` (>= now).
  void schedule(SimTime t, std::coroutine_handle<> h);

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  /// delay(0) still round-trips through the event queue, which gives every
  /// runnable coroutine a fair, deterministic turn.
  [[nodiscard]] auto delay(SimDuration d) {
    struct Awaiter {
      Engine* engine;
      SimDuration dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->schedule(engine->now_ + dur, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Launch a root task (e.g. one simulated rank's program). The engine
  /// owns it; it starts when run() reaches time 0. `label` identifies the
  /// task in deadlock diagnostics (the harness passes the rank; -1 =
  /// anonymous, omitted from messages).
  void spawn(Task<void> task, int label = -1);

  /// Run until the event queue drains. Throws the first unhandled exception
  /// from any root task, or pfsem::Error if roots are still blocked when the
  /// queue empties (deadlock, e.g. a barrier some rank never reaches); the
  /// deadlock message lists the blocked ranks' labels and the simulated
  /// time. Before either throw, every root still suspended is destroyed
  /// (with the frames it awaits) and the event queue is cleared, so a
  /// failed run leaks nothing. A root that exits via TaskKilled is
  /// absorbed (see killed_roots).
  void run();

  /// Number of root tasks that have not yet finished.
  [[nodiscard]] int live_roots() const { return live_roots_; }

  /// Number of root tasks terminated by TaskKilled (fail-stop crashes).
  [[nodiscard]] int killed_roots() const { return killed_roots_; }

  /// Total events dispatched so far (for tests/benches).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Attach an observability context (nullptr = off, the default). The
  /// engine then counts dispatches per tier and, when tracing is on,
  /// emits one aggregated span per consecutive same-tier dispatch burst
  /// plus compaction instants. Call before run().
  void set_observer(obs::Run* run) { obs_ = run; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// Near-time ring width. Must be a power of two. Times in
  /// [now, now + kRingWindow) map injectively onto ring slots, so one slot
  /// never holds two distinct firing times at once.
  static constexpr SimTime kRingWindow = 64;

  /// One FIFO bucket = all pending events at a single absolute time.
  /// Entries are appended in schedule() call order, which equals global
  /// seq order, so front-to-back pop order IS (time, seq) order.
  struct Bucket {
    SimTime time = 0;  ///< absolute firing time; valid while non-empty
    std::size_t head = 0;
    std::vector<std::pair<std::uint64_t, std::coroutine_handle<>>> entries;
    [[nodiscard]] bool empty() const { return head == entries.size(); }
  };

  // Wrapper that owns a root Task for its whole run. It starts suspended
  // (spawn() schedules it), frees itself when the task ends, and is
  // destroyed by destroy_roots() if the run fails first.
  struct Root {
    struct promise_type {
      int label = -1;  ///< spawn() label, for deadlock diagnostics
      Root get_return_object() {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }  // run_root catches
    };
    std::coroutine_handle<promise_type> handle;
  };
  /// `slot` is the root's index in roots_, cleared when the task ends.
  Root run_root(Task<void> task, std::size_t slot);

  /// Destroy every root still suspended and drop every pending event:
  /// the failed run's cleanup.
  void destroy_roots();

  /// Earliest-time non-empty ring bucket, or nullptr when the ring is
  /// empty. All ring events lie in [now, now + kRingWindow), so the
  /// occupancy bitmask rotated to now's slot finds it in O(1).
  [[nodiscard]] Bucket* ring_front();

  /// Observability slow path: tier counters + burst-span aggregation for
  /// one dispatch (called only when obs_ != nullptr).
  void note_dispatch(bool ring);
  /// Close the open tier span, if any (end of run / tier switch).
  void flush_tier_span();

  SchedulerKind kind_;
  std::array<Bucket, static_cast<std::size_t>(kRingWindow)> ring_;
  /// Bit i set iff ring_[i] is non-empty; kRingWindow is 64 so the whole
  /// ring's occupancy fits one word.
  std::uint64_t ring_mask_ = 0;
  /// Far-future events (Bucketed) or every event (Heap oracle).
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  int live_roots_ = 0;
  int killed_roots_ = 0;
  /// One handle per spawned root, null once it has finished.
  std::vector<std::coroutine_handle<Root::promise_type>> roots_;
  std::exception_ptr first_error_;

  /// Observability (off = nullptr; one branch per hot-path site).
  obs::Run* obs_ = nullptr;
  /// Open aggregated tier span: consecutive dispatches from one tier
  /// collapse into a single traced span (see note_dispatch).
  struct TierRun {
    bool open = false;
    bool ring = false;
    SimTime t0 = 0;
    SimTime last = 0;
    std::uint64_t events = 0;
  };
  TierRun tier_run_;
};

}  // namespace pfsem::sim
