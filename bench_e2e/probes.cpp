#include "probes.hpp"

#include <algorithm>
#include <ostream>

namespace pfsem_e2e {

using namespace pfsem;

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), Clock::now(), {},
                    stack_.empty() ? -1 : stack_.back(), false, 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  // Phases close in LIFO order, except that a phase may be stopped early
  // while an inner one is still open; drop it from wherever it sits.
  const auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

Clock::time_point SpanLog::aggregate(int parent, std::string name,
                                     const Tally& tally, Clock::time_point at) {
  spans_.push_back(
      {std::move(name), at, at + tally.total, parent, true, tally.calls});
  return at + tally.total;
}

double SpanLog::total_s(std::string_view name) const {
  double s = 0;
  for (const auto& sp : spans_) {
    if (sp.name == name) s += seconds(sp.end - sp.start);
  }
  return s;
}

double SpanLog::self_s(std::string_view name) const {
  double s = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& sp = spans_[i];
    if (sp.name == name) s += seconds(sp.end - sp.start);
    if (sp.parent >= 0 &&
        spans_[static_cast<std::size_t>(sp.parent)].name == name) {
      s -= seconds(sp.end - sp.start);
    }
  }
  return s;
}

std::uint64_t SpanLog::calls(std::string_view name) const {
  std::uint64_t n = 0;
  for (const auto& sp : spans_) {
    if (sp.name == name) n += sp.calls;
  }
  return n;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"pfsem_e2e traced rep\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& sp = spans_[i];
    Clock::duration children{};
    for (const auto& c : spans_) {
      if (c.parent == static_cast<int>(i)) children += c.end - c.start;
    }
    os << ",\n{\"name\":\"" << sp.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << us(sp.start - origin) << ",\"dur\":"
       << us(sp.end - sp.start) << ",\"args\":{\"self_s\":"
       << seconds(sp.end - sp.start - children);
    if (sp.aggregated) os << ",\"aggregated_calls\":" << sp.calls;
    os << "}}";
  }
  os << "\n]}\n";
}

Phase::Phase(SpanLog* log, const char* name)
    : log_(log), start_(Clock::now()) {
  if (log_ != nullptr) id_ = log_->open(name);
}

Phase::~Phase() { (void)stop(); }

double Phase::stop() {
  if (elapsed_ < 0) {
    elapsed_ = seconds(Clock::now() - start_);
    if (log_ != nullptr) log_->close(id_);
  }
  return elapsed_;
}

TimedFs::TimedFs(std::unique_ptr<vfs::FileSystem> inner)
    : inner_(std::move(inner)) {}

template <typename Fn>
auto TimedFs::timed(Tally& tally, Fn&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  const auto d = Clock::now() - t0;
  ++tally.calls;
  tally.total += d;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  call_ns_.push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(ns, std::int64_t{UINT32_MAX})));
  return result;
}

vfs::OpenResult TimedFs::open(Rank r, const std::string& path, int flags,
                              SimTime now) {
  return timed(meta_, [&] { return inner_->open(r, path, flags, now); });
}
vfs::MetaResult TimedFs::close(Rank r, int fd, SimTime now) {
  return timed(meta_, [&] { return inner_->close(r, fd, now); });
}
vfs::WriteResult TimedFs::write(Rank r, int fd, std::uint64_t count,
                                SimTime now) {
  return timed(data_, [&] { return inner_->write(r, fd, count, now); });
}
vfs::WriteResult TimedFs::pwrite(Rank r, int fd, Offset off,
                                 std::uint64_t count, SimTime now) {
  return timed(data_, [&] { return inner_->pwrite(r, fd, off, count, now); });
}
vfs::ReadResult TimedFs::read(Rank r, int fd, std::uint64_t count,
                              SimTime now) {
  return timed(data_, [&] { return inner_->read(r, fd, count, now); });
}
vfs::ReadResult TimedFs::pread(Rank r, int fd, Offset off, std::uint64_t count,
                               SimTime now) {
  return timed(data_, [&] { return inner_->pread(r, fd, off, count, now); });
}
vfs::MetaResult TimedFs::lseek(Rank r, int fd, std::int64_t delta, int whence,
                               SimTime now) {
  return timed(meta_, [&] { return inner_->lseek(r, fd, delta, whence, now); });
}
vfs::MetaResult TimedFs::fsync(Rank r, int fd, SimTime now) {
  return timed(meta_, [&] { return inner_->fsync(r, fd, now); });
}
vfs::MetaResult TimedFs::ftruncate(Rank r, int fd, Offset length,
                                   SimTime now) {
  return timed(meta_, [&] { return inner_->ftruncate(r, fd, length, now); });
}
vfs::MetaResult TimedFs::stat(const std::string& path, SimTime now) {
  return timed(meta_, [&] { return inner_->stat(path, now); });
}
vfs::MetaResult TimedFs::access(const std::string& path, SimTime now) {
  return timed(meta_, [&] { return inner_->access(path, now); });
}
vfs::MetaResult TimedFs::unlink(const std::string& path, SimTime now) {
  return timed(meta_, [&] { return inner_->unlink(path, now); });
}
vfs::MetaResult TimedFs::mkdir(const std::string& path, SimTime now) {
  return timed(meta_, [&] { return inner_->mkdir(path, now); });
}
vfs::MetaResult TimedFs::rename(const std::string& from, const std::string& to,
                                SimTime now) {
  return timed(meta_, [&] { return inner_->rename(from, to, now); });
}
void TimedFs::preload(const std::string& path, Offset size) {
  (void)timed(meta_, [&] {
    inner_->preload(path, size);
    return 0;
  });
}
void TimedFs::set_fault_injector(fault::Injector* injector) {
  inner_->set_fault_injector(injector);
}
std::vector<vfs::VersionTag> TimedFs::crash_rank(Rank r, SimTime now) {
  return inner_->crash_rank(r, now);
}
SimDuration TimedFs::meta_latency() const { return inner_->meta_latency(); }
vfs::CostSnapshot TimedFs::cost_snapshot() const {
  return inner_->cost_snapshot();
}

void TimedSink::on_records(std::uint64_t base_seq,
                           std::span<const trace::Record> records) {
  const auto t0 = Clock::now();
  inner_.on_records(base_seq, records);
  ++tally_.calls;
  tally_.total += Clock::now() - t0;
}

}  // namespace pfsem_e2e
