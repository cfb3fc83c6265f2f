// The comm-log codec: one encoder and one validating decoder per event
// kind (LEB128 varints, zig-zag signed fields, times as wrapping deltas),
// shared by the collector, write_comm/decode_comm and the chunk stream's
// trailer (spill.cpp).

#include <algorithm>
#include <utility>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

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

}  // namespace pfsem::trace
