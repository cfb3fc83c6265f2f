#pragma once
// Layer probes for the end-to-end bench, timed from outside the program:
// an in-memory span log, and two decorators that time every call into
// the vfs layer (TimedFs) and the trace spill layer (TimedSink). Nothing
// here is compiled into pfsem; the decorators reach the pipeline only
// through its public extension points (Harness's custom-backend
// constructor and AppConfig::stream_sink), and they are transparent —
// the bench's smoke test checks that a decorated capture is byte-identical
// to a plain one.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pfsem/trace/stream.hpp"
#include "pfsem/vfs/filesystem.hpp"

namespace pfsem_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Many short calls into one layer: count + total busy time.
struct Tally {
  std::uint64_t calls = 0;
  Clock::duration total{};
};

/// The spans of one traced rep. Spans nest (each names its parent);
/// high-frequency layer boundaries arrive as one aggregate span
/// (count + total) instead of one span per call. Kept in memory and
/// written out once, after the rep.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;
    bool aggregated = false;
    std::uint64_t calls = 0;  ///< aggregates: calls folded into this span
  };

  /// Open a span as a child of the innermost open span; returns its id.
  int open(std::string name);
  void close(int id);
  /// Attach a tally as an aggregate child of span `parent`, drawn as one
  /// span of the tally's total length starting at `at`; returns its end.
  /// Callers lay a phase's aggregates end to end from the point where
  /// their interleaved calls began, so they nest inside the phase in a
  /// timeline view.
  Clock::time_point aggregate(int parent, std::string name, const Tally& tally,
                              Clock::time_point at);

  /// Wall seconds of every span named `name`, summed.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// The same minus the time their child spans cover.
  [[nodiscard]] double self_s(std::string_view name) const;
  [[nodiscard]] std::uint64_t calls(std::string_view name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One timed phase of a rep. Always measures wall time (the untraced reps
/// need setup and run-to-report times too); records a span only when the
/// log is non-null.
class Phase {
 public:
  Phase(SpanLog* log, const char* name);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// End the phase (idempotent); returns its wall seconds.
  double stop();
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  SpanLog* log_;
  int id_ = -1;
  Clock::time_point start_;
  double elapsed_ = -1;
};

/// FileSystem decorator: forwards every call to the wrapped backend and
/// tallies its wall time, split into data calls (read/write family) and
/// metadata calls (everything else), plus one duration sample per call
/// for the latency percentiles.
class TimedFs final : public pfsem::vfs::FileSystem {
 public:
  explicit TimedFs(std::unique_ptr<pfsem::vfs::FileSystem> inner);

  pfsem::vfs::OpenResult open(pfsem::Rank r, const std::string& path,
                              int flags, pfsem::SimTime now) override;
  pfsem::vfs::MetaResult close(pfsem::Rank r, int fd,
                               pfsem::SimTime now) override;
  pfsem::vfs::WriteResult write(pfsem::Rank r, int fd, std::uint64_t count,
                                pfsem::SimTime now) override;
  pfsem::vfs::WriteResult pwrite(pfsem::Rank r, int fd, pfsem::Offset off,
                                 std::uint64_t count,
                                 pfsem::SimTime now) override;
  pfsem::vfs::ReadResult read(pfsem::Rank r, int fd, std::uint64_t count,
                              pfsem::SimTime now) override;
  pfsem::vfs::ReadResult pread(pfsem::Rank r, int fd, pfsem::Offset off,
                               std::uint64_t count,
                               pfsem::SimTime now) override;
  pfsem::vfs::MetaResult lseek(pfsem::Rank r, int fd, std::int64_t delta,
                               int whence, pfsem::SimTime now) override;
  pfsem::vfs::MetaResult fsync(pfsem::Rank r, int fd,
                               pfsem::SimTime now) override;
  pfsem::vfs::MetaResult ftruncate(pfsem::Rank r, int fd,
                                   pfsem::Offset length,
                                   pfsem::SimTime now) override;
  pfsem::vfs::MetaResult stat(const std::string& path,
                              pfsem::SimTime now) override;
  pfsem::vfs::MetaResult access(const std::string& path,
                                pfsem::SimTime now) override;
  pfsem::vfs::MetaResult unlink(const std::string& path,
                                pfsem::SimTime now) override;
  pfsem::vfs::MetaResult mkdir(const std::string& path,
                               pfsem::SimTime now) override;
  pfsem::vfs::MetaResult rename(const std::string& from, const std::string& to,
                                pfsem::SimTime now) override;
  void preload(const std::string& path, pfsem::Offset size) override;
  void set_fault_injector(pfsem::fault::Injector* injector) override;
  std::vector<pfsem::vfs::VersionTag> crash_rank(pfsem::Rank r,
                                                 pfsem::SimTime now) override;
  [[nodiscard]] pfsem::SimDuration meta_latency() const override;
  [[nodiscard]] pfsem::vfs::CostSnapshot cost_snapshot() const override;

  [[nodiscard]] const Tally& meta() const { return meta_; }
  [[nodiscard]] const Tally& data() const { return data_; }
  /// Per-call durations in ns (meta and data), in call order.
  [[nodiscard]] std::vector<std::uint32_t> take_call_ns() {
    return std::move(call_ns_);
  }

 private:
  template <typename Fn>
  auto timed(Tally& tally, Fn&& fn);

  std::unique_ptr<pfsem::vfs::FileSystem> inner_;
  Tally meta_;
  Tally data_;
  std::vector<std::uint32_t> call_ns_;
};

/// StreamSink decorator: forwards each collector batch to the wrapped
/// sink (the ChunkWriter: chunk encode + spill append) and tallies it.
class TimedSink final : public pfsem::trace::StreamSink {
 public:
  explicit TimedSink(pfsem::trace::StreamSink& inner) : inner_(inner) {}

  void on_records(std::uint64_t base_seq,
                  std::span<const pfsem::trace::Record> records) override;

  /// The tally since the last take (capture and hand-off are separate
  /// phases of the rep, each with its own share of batches).
  [[nodiscard]] Tally take() { return std::exchange(tally_, {}); }

 private:
  pfsem::trace::StreamSink& inner_;
  Tally tally_;
};

}  // namespace pfsem_e2e
