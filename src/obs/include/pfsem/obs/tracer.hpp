#pragma once
// pfsem::obs span/event tracer: an in-memory log of timeline events
// exported as Chrome trace_event JSON ("JSON Array Format"), loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Events are addressed by a Track — the Chrome (pid, tid) pair. Each
// instrumented subsystem owns a pid (constants below); the tid is the
// natural lane within it (rank for I/O and programs, tier for the
// scheduler). Timestamps are simulated nanoseconds.
//
// Names and arg keys must be string literals (or otherwise outlive the
// tracer): events store the pointers, not copies, so appending an event
// is a vector push_back and nothing else.

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "pfsem/util/types.hpp"

namespace pfsem::obs {

/// Chrome process ids, one per instrumented subsystem.
inline constexpr std::int32_t kPidHarness = 1;  ///< per-rank programs
inline constexpr std::int32_t kPidSim = 2;      ///< scheduler tiers
inline constexpr std::int32_t kPidIo = 3;       ///< per-rank I/O ops
inline constexpr std::int32_t kPidFault = 5;    ///< injected faults
inline constexpr std::int32_t kPidVfs = 6;      ///< vfs counter tracks
inline constexpr std::int32_t kPidStream = 7;   ///< stream-pipeline counters

struct Track {
  std::int32_t pid = 0;
  std::int32_t tid = 0;
};

/// Optional numeric argument attached to an event (key may be null).
/// Namespace-scoped (not nested in Tracer) so it is a complete aggregate
/// where the default arguments below are parsed.
struct Arg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

class Tracer {
 public:
  struct Event {
    const char* name = nullptr;
    char ph = 'X';  ///< 'X' complete span, 'i' instant, 'C' counter sample
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    std::int64_t ts = 0;   ///< start, nanoseconds
    std::int64_t dur = 0;  ///< duration, nanoseconds ('X' only)
    Arg a0, a1;
  };

  /// A complete span [ts, ts + dur).
  void complete(Track t, const char* name, std::int64_t ts, std::int64_t dur,
                Arg a0 = {}, Arg a1 = {}) {
    events_.push_back({name, 'X', t.pid, t.tid, ts, dur < 0 ? 0 : dur, a0, a1});
  }

  /// A zero-duration instant event.
  void instant(Track t, const char* name, std::int64_t ts, Arg a0 = {},
               Arg a1 = {}) {
    events_.push_back({name, 'i', t.pid, t.tid, ts, 0, a0, a1});
  }

  /// A counter sample: Perfetto renders consecutive samples of one
  /// (pid, name) as a value-over-time track ("ph":"C"), so gauges become
  /// timelines instead of spans.
  void counter(Track t, const char* name, std::int64_t ts,
               std::int64_t value) {
    events_.push_back({name, 'C', t.pid, t.tid, ts, 0, {"value", value}, {}});
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// Write the whole log as Chrome trace_event JSON: metadata events
  /// naming every (pid, tid) in use, then one object per event with the
  /// required ph/ts/pid keys (ts/dur converted to fractional
  /// microseconds, the format's native unit).
  void write_chrome_json(std::ostream& os) const;

  /// Streaming export: write the JSON header to `os` now, then flush
  /// buffered events to it incrementally (flush_stream, driven by the
  /// collector's chunk boundaries) and close the array with
  /// finish_stream(). Metadata events are emitted lazily, the first time
  /// a (pid, tid) appears — the same information as the batch export,
  /// interleaved instead of front-loaded, which the format allows.
  void stream_to(std::ostream* os);

  [[nodiscard]] bool streaming() const { return stream_os_ != nullptr; }

  /// Write everything buffered since the last flush and clear the buffer.
  void flush_stream();

  /// Flush the tail and write the JSON footer. The tracer detaches from
  /// the stream and may be reused afterwards.
  void finish_stream();

 private:
  std::vector<Event> events_;
  std::ostream* stream_os_ = nullptr;
  bool stream_first_ = true;
  std::vector<std::int32_t> stream_pids_seen_;
  std::vector<std::pair<std::int32_t, std::int32_t>> stream_tracks_seen_;
};

}  // namespace pfsem::obs
