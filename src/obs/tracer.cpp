#include "pfsem/obs/tracer.hpp"

#include <ostream>
#include <set>
#include <string>

namespace pfsem::obs {

namespace {

const char* pid_name(std::int32_t pid) {
  switch (pid) {
    case kPidHarness: return "programs (per rank, sim time)";
    case kPidSim: return "sim scheduler (sim time)";
    case kPidIo: return "io (per rank, sim time)";
    case kPidFault: return "fault injector (sim time)";
    case kPidVfs: return "vfs counters (sim time)";
    case kPidStream: return "stream pipeline counters (sim time)";
    default: return "pfsem";
  }
}

std::string tid_name(std::int32_t pid, std::int32_t tid) {
  switch (pid) {
    case kPidSim: return tid == 0 ? "ring tier" : "heap tier";
    case kPidVfs:
    case kPidStream: return "counters";
    default: return "rank " + std::to_string(tid);
  }
}

/// Nanoseconds -> the format's microseconds, printed as a fixed-point
/// decimal (integer math only, so output bytes are deterministic).
void write_us(std::ostream& os, std::int64_t ns) {
  if (ns < 0) ns = 0;  // tracer never records negative times
  os << ns / 1000 << '.';
  const auto frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

/// One event object (no separator handling; callers sep() first).
void write_event_json(std::ostream& os, const Tracer::Event& e) {
  os << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.ph << "\",\"ts\":";
  write_us(os, e.ts);
  if (e.ph == 'X') {
    os << ",\"dur\":";
    write_us(os, e.dur);
  } else if (e.ph == 'i') {
    os << ",\"s\":\"t\"";  // instant scoped to its thread lane
  }
  // 'C' needs no extra key: its value rides in args like any other event
  // (counter() always sets a0 = {"value", v}).
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (e.a0.key != nullptr) {
    os << ",\"args\":{\"" << e.a0.key << "\":" << e.a0.value;
    if (e.a1.key != nullptr) os << ",\"" << e.a1.key << "\":" << e.a1.value;
    os << "}";
  }
  os << "}";
}

void write_process_meta(std::ostream& os, std::int32_t pid) {
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":\"" << pid_name(pid) << "\"}}";
}

void write_thread_meta(std::ostream& os, std::int32_t pid, std::int32_t tid) {
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << tid_name(pid, tid)
     << "\"}}";
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Metadata first: name every (pid, tid) pair in use so Perfetto shows
  // subsystem/lane labels instead of bare numbers.
  std::set<std::int32_t> pids;
  std::set<std::pair<std::int32_t, std::int32_t>> tracks;
  for (const auto& e : events_) {
    pids.insert(e.pid);
    tracks.insert({e.pid, e.tid});
  }
  for (const auto pid : pids) {
    sep();
    write_process_meta(os, pid);
  }
  for (const auto& [pid, tid] : tracks) {
    sep();
    write_thread_meta(os, pid, tid);
  }

  for (const auto& e : events_) {
    sep();
    write_event_json(os, e);
  }
  os << "\n]}\n";
}

void Tracer::stream_to(std::ostream* os) {
  stream_os_ = os;
  stream_first_ = true;
  stream_pids_seen_.clear();
  stream_tracks_seen_.clear();
  if (os == nullptr) return;
  *os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void Tracer::flush_stream() {
  if (stream_os_ == nullptr || events_.empty()) return;
  std::ostream& os = *stream_os_;
  auto sep = [&] {
    if (!stream_first_) os << ",";
    stream_first_ = false;
    os << "\n";
  };
  // Flat vectors instead of sets: a handful of subsystems/lanes, scanned
  // per event — cheaper than node allocation at this cardinality.
  auto seen = [](auto& v, auto key) {
    for (const auto& k : v) {
      if (k == key) return true;
    }
    v.push_back(key);
    return false;
  };
  for (const auto& e : events_) {
    if (!seen(stream_pids_seen_, e.pid)) {
      sep();
      write_process_meta(os, e.pid);
    }
    if (!seen(stream_tracks_seen_, std::pair{e.pid, e.tid})) {
      sep();
      write_thread_meta(os, e.pid, e.tid);
    }
    sep();
    write_event_json(os, e);
  }
  events_.clear();
}

void Tracer::finish_stream() {
  if (stream_os_ == nullptr) return;
  flush_stream();
  *stream_os_ << "\n]}\n";
  stream_os_ = nullptr;
  stream_first_ = true;
  stream_pids_seen_.clear();
  stream_tracks_seen_.clear();
}

}  // namespace pfsem::obs
