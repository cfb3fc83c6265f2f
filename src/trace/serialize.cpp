#include "pfsem/trace/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {
namespace {

constexpr char kMagic[8] = {'P', 'F', 'S', 'E', 'M', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  require(static_cast<bool>(is), "truncated trace stream");
  return v;
}

// v1 paths: a fixed-width u32 length, then the bytes.
void put_path32(std::ostream& os, std::string_view s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_path32(std::istream& is) {
  const auto n = get<std::uint32_t>(is);
  require(n <= (1u << 20), "implausible string length in trace stream");
  // Grow by bytes actually read, not by the length the input claims.
  std::string s;
  char block[4096];
  for (std::uint32_t left = n; left > 0;) {
    const auto k = std::min<std::uint32_t>(left, sizeof block);
    is.read(block, k);
    require(static_cast<bool>(is), "truncated trace stream");
    s.append(block, k);
    left -= k;
  }
  return s;
}

// The v1 on-disk format predates path interning and stores the path string
// inline per record; the writer resolves ids against the bundle's table and
// the reader interns on the way in, so old fixtures load unchanged.
void put_record(std::ostream& os, const TraceBundle& bundle, const Record& r) {
  put(os, r.tstart);
  put(os, r.tend);
  put(os, r.rank);
  put(os, static_cast<std::uint8_t>(r.layer));
  put(os, static_cast<std::uint8_t>(r.origin));
  put(os, static_cast<std::uint16_t>(r.func));
  put(os, r.fd);
  put(os, r.ret);
  put(os, r.offset);
  put(os, r.count);
  put(os, r.flags);
  put_path32(os, bundle.path_of(r));
}

Layer get_layer(std::istream& is) {
  const auto layer = get<std::uint8_t>(is);
  require(layer < kLayerCount, "bad layer id in trace stream");
  return static_cast<Layer>(layer);
}

Record get_record(std::istream& is, TraceBundle& bundle) {
  Record r;
  r.tstart = get<SimTime>(is);
  r.tend = get<SimTime>(is);
  r.rank = get<Rank>(is);
  require(r.rank >= 0 && r.rank < bundle.nranks, "bad record rank");
  r.layer = get_layer(is);
  r.origin = get_layer(is);
  const auto func = get<std::uint16_t>(is);
  require(func < kFuncCount, "bad function id in trace stream");
  r.func = static_cast<Func>(func);
  r.fd = get<std::int32_t>(is);
  r.ret = get<std::int64_t>(is);
  r.offset = get<Offset>(is);
  r.count = get<std::uint64_t>(is);
  r.flags = get<std::int32_t>(is);
  const std::string path = get_path32(is);
  r.file = path.empty() ? kNoFile : bundle.intern(path);
  return r;
}

}  // namespace

void write_binary(const TraceBundle& bundle, std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put(os, kVersion);
  put<std::int32_t>(os, bundle.nranks);
  put<std::uint64_t>(os, bundle.records.size());
  for (const auto& r : bundle.records) put_record(os, bundle, r);
  // The bundle keeps its comm log encoded; v1 stores fixed-width events,
  // so they are decoded one at a time on the way out.
  put<std::uint64_t>(os, bundle.comm.p2p_count);
  detail::visit_p2p(bundle.comm, bundle.nranks, [&os](const P2PEvent& e) {
    put(os, e.src);
    put(os, e.dst);
    put(os, e.tag);
    put(os, e.bytes);
    put(os, e.t_send_start);
    put(os, e.t_send_end);
    put(os, e.t_recv_start);
    put(os, e.t_recv_end);
  });
  put<std::uint64_t>(os, bundle.comm.collective_count);
  detail::visit_collectives(
      bundle.comm, bundle.nranks, [&os](const CollectiveEvent& c) {
        put(os, static_cast<std::uint8_t>(c.kind));
        put(os, c.root);
        put<std::uint32_t>(os, static_cast<std::uint32_t>(c.arrivals.size()));
        for (const auto& a : c.arrivals) {
          put(os, a.rank);
          put(os, a.t_enter);
          put(os, a.t_exit);
        }
      });
  require(static_cast<bool>(os), "trace stream write failure");
}

TraceBundle read_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof magic);
  require(static_cast<bool>(is) && std::memcmp(magic, kMagic, sizeof kMagic) == 0,
          "not a pfsem trace stream");
  require(get<std::uint32_t>(is) == kVersion, "unsupported trace version");
  TraceBundle b;
  b.nranks = get<std::int32_t>(is);
  require(b.nranks > 0, "bad rank count in trace stream");
  const auto nrec = get<std::uint64_t>(is);
  // Counts are untrusted: reserve only a bounded prefix; a corrupted huge
  // count then fails as a clean truncated-stream error instead of OOM.
  b.records.reserve(std::min(nrec, detail::kMaxReserve));
  for (std::uint64_t i = 0; i < nrec; ++i) {
    b.records.push_back(get_record(is, b));
  }
  // Events are validated into one scratch event each and kept in the
  // bundle's encoding.
  b.comm.p2p_count = get<std::uint64_t>(is);
  P2PEvent e;
  for (std::uint64_t i = 0; i < b.comm.p2p_count; ++i) {
    e.src = get<Rank>(is);
    e.dst = get<Rank>(is);
    e.tag = get<std::int32_t>(is);
    e.bytes = get<std::uint64_t>(is);
    e.t_send_start = get<SimTime>(is);
    e.t_send_end = get<SimTime>(is);
    e.t_recv_start = get<SimTime>(is);
    e.t_recv_end = get<SimTime>(is);
    check_p2p(e, b.nranks);
    detail::put_p2p(b.comm.p2p, e);
  }
  b.comm.collective_count = get<std::uint64_t>(is);
  CollectiveEvent c;
  for (std::uint64_t i = 0; i < b.comm.collective_count; ++i) {
    c.kind = static_cast<CollectiveKind>(get<std::uint8_t>(is));
    c.root = get<Rank>(is);
    const auto na = get<std::uint32_t>(is);
    // The same bound the compact decoders apply: a group has at most
    // nranks members.
    require(na <= static_cast<std::uint32_t>(b.nranks), "bad arrival count");
    c.arrivals.clear();
    for (std::uint32_t j = 0; j < na; ++j) {
      CollectiveArrival a;
      a.rank = get<Rank>(is);
      a.t_enter = get<SimTime>(is);
      a.t_exit = get<SimTime>(is);
      c.arrivals.push_back(a);
    }
    check_collective(c, b.nranks);
    detail::put_collective(b.comm.collectives, c);
  }
  return b;
}

void write_text(const TraceBundle& bundle, std::ostream& os) {
  os << "# nranks=" << bundle.nranks << " records=" << bundle.records.size()
     << " p2p=" << bundle.comm.p2p_count
     << " collectives=" << bundle.comm.collective_count << "\n";
  for (const auto& r : bundle.records) {
    os << r.tstart << ' ' << r.tend << " r" << r.rank << ' ' << to_string(r.layer)
       << '/' << to_string(r.origin) << ' ' << to_string(r.func);
    if (const auto path = bundle.path_of(r); !path.empty()) {
      os << " path=" << path;
    }
    if (r.fd >= 0) os << " fd=" << r.fd;
    os << " off=" << r.offset << " cnt=" << r.count << " flags=" << r.flags
       << " ret=" << r.ret << '\n';
  }
}

}  // namespace pfsem::trace
