// The comm-log codec every trace format shares, and the read-only loader
// of the compact v2 format ("PFSEMTR2"): LEB128 varints, zig-zag signed
// fields, per-rank timestamp deltas and a leading interned path table —
// the compression ideas of Recorder 2.0, which the chunk stream
// (spill.cpp) keeps. v2 records use the chunk stream's field layout
// (detail::get_record) but name their file by path-table slot, an
// empty-string slot standing for "no file".

#include <algorithm>
#include <istream>
#include <string_view>
#include <utility>
#include <vector>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

constexpr char kMagic2[8] = {'P', 'F', 'S', 'E', 'M', 'T', 'R', '2'};

using detail::put_varint;
using detail::unzigzag;
using detail::wrap_add;
using detail::wrap_sub;
using detail::zigzag;

}  // namespace

namespace detail {

void put_p2p(std::string& out, const P2PEvent& e) {
  put_varint(out, static_cast<std::uint64_t>(e.src));
  put_varint(out, static_cast<std::uint64_t>(e.dst));
  put_varint(out, zigzag(e.tag));
  put_varint(out, e.bytes);
  put_varint(out, zigzag(e.t_send_start));
  put_varint(out, zigzag(wrap_sub(e.t_send_end, e.t_send_start)));
  put_varint(out, zigzag(wrap_sub(e.t_recv_start, e.t_send_start)));
  put_varint(out, zigzag(wrap_sub(e.t_recv_end, e.t_recv_start)));
}

void put_collective(std::string& out, const CollectiveEvent& c) {
  put_varint(out, static_cast<std::uint64_t>(c.kind));
  put_varint(out, zigzag(c.root));
  put_varint(out, c.arrivals.size());
  for (const auto& a : c.arrivals) {
    put_varint(out, static_cast<std::uint64_t>(a.rank));
    put_varint(out, zigzag(a.t_enter));
    put_varint(out, zigzag(wrap_sub(a.t_exit, a.t_enter)));
  }
}

void get_p2p(ByteReader& in, int nranks, P2PEvent& e) {
  // src and dst are written as the uint64 of an int32, so they narrow
  // through int64 like the zig-zag fields do.
  e.src = to_int32(static_cast<std::int64_t>(in.varint()));
  e.dst = to_int32(static_cast<std::int64_t>(in.varint()));
  e.tag = in.zigzag_int32();
  e.bytes = in.varint();
  e.t_send_start = unzigzag(in.varint());
  e.t_send_end = wrap_add(e.t_send_start, unzigzag(in.varint()));
  e.t_recv_start = wrap_add(e.t_send_start, unzigzag(in.varint()));
  e.t_recv_end = wrap_add(e.t_recv_start, unzigzag(in.varint()));
  check_p2p(e, nranks);
}

void get_collective(ByteReader& in, int nranks, CollectiveEvent& c) {
  const auto kind = in.varint();
  require(kind < kCollectiveKindCount, "unknown collective kind");
  c.kind = static_cast<CollectiveKind>(kind);
  c.root = in.zigzag_int32();
  const auto na = in.varint();
  require(na <= static_cast<std::uint64_t>(nranks), "bad arrival count");
  c.arrivals.clear();
  for (std::uint64_t j = 0; j < na; ++j) {
    CollectiveArrival a;
    const auto rank = in.varint();
    require(rank < static_cast<std::uint64_t>(nranks),
            "collective arrival rank out of range");
    a.rank = static_cast<Rank>(rank);
    a.t_enter = unzigzag(in.varint());
    a.t_exit = wrap_add(a.t_enter, unzigzag(in.varint()));
    c.arrivals.push_back(a);
  }
  check_collective(c, nranks);
}

void read_comm(ByteReader& in, int nranks, EncodedCommLog* out) {
  // Every event decodes into one scratch event, so a caller that only
  // validates holds one event (and one arrival array) at a time. Kept
  // bytes are the canonical re-encoding of what was read.
  EncodedCommLog kept;
  kept.p2p_count = in.varint();
  P2PEvent e;
  for (std::uint64_t i = 0; i < kept.p2p_count; ++i) {
    get_p2p(in, nranks, e);
    if (out != nullptr) put_p2p(kept.p2p, e);
  }
  kept.collective_count = in.varint();
  CollectiveEvent c;
  for (std::uint64_t i = 0; i < kept.collective_count; ++i) {
    get_collective(in, nranks, c);
    if (out != nullptr) put_collective(kept.collectives, c);
  }
  if (out != nullptr) *out = std::move(kept);
}

}  // namespace detail

EncodedCommLog write_comm(const CommLog& comm) {
  EncodedCommLog out;
  out.p2p_count = comm.p2p.size();
  for (const auto& e : comm.p2p) detail::put_p2p(out.p2p, e);
  out.collective_count = comm.collectives.size();
  for (const auto& c : comm.collectives) {
    detail::put_collective(out.collectives, c);
  }
  return out;
}

CommLog decode_comm(const EncodedCommLog& comm, int nranks) {
  CommLog out;
  // Every event takes at least one byte, so the sections bound what the
  // counts may reserve.
  out.p2p.reserve(std::min<std::uint64_t>(comm.p2p_count, comm.p2p.size()));
  out.collectives.reserve(std::min<std::uint64_t>(comm.collective_count,
                                                  comm.collectives.size()));
  detail::visit_p2p(comm, nranks,
                    [&](const P2PEvent& e) { out.p2p.push_back(e); });
  detail::visit_collectives(comm, nranks, [&](const CollectiveEvent& c) {
    out.collectives.push_back(c);
  });
  return out;
}

TraceBundle read_compact(std::istream& is) {
  detail::ByteReader in(is);
  char magic[8];
  require(in.read(magic, sizeof magic) &&
              std::equal(std::begin(magic), std::end(magic), kMagic2),
          "not a compact pfsem trace");
  TraceBundle b;
  const auto nranks = in.varint();
  require(nranks > 0 && nranks < (1 << 24), "bad rank count");
  b.nranks = static_cast<int>(nranks);

  // Adopt the on-disk intern table directly as the in-memory PathTable:
  // ids in the stream are ids in the decoded records. Empty-string
  // entries stay in the table (records referencing them decode to
  // kNoFile).
  const auto npaths = in.varint();
  require(npaths <= (1u << 24), "implausible path-table size");
  std::string path;
  for (std::uint64_t i = 0; i < npaths; ++i) {
    path.clear();
    in.append_string(path);
    const FileId id = b.paths.intern(path);
    require(id == static_cast<FileId>(i), "duplicate path in compact table");
  }

  const auto nrec = in.varint();
  b.records.reserve(std::min(nrec, detail::kMaxReserve));
  std::vector<SimTime> last_t(static_cast<std::size_t>(b.nranks), 0);
  Record r;
  for (std::uint64_t i = 0; i < nrec; ++i) {
    detail::get_record(in, last_t, r);
    const auto pid = in.varint();
    require(pid < b.paths.size(), "bad path id in compact trace");
    const auto id = static_cast<FileId>(pid);
    r.file = b.paths.view(id).empty() ? kNoFile : id;
    b.records.push_back(r);
  }
  detail::read_comm(in, b.nranks, &b.comm);
  return b;
}

}  // namespace pfsem::trace
