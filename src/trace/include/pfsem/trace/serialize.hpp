#pragma once
// Writing a TraceBundle as a trace file, and the comm-log codec every
// trace shares. pfsem has one trace format, the PFSEMCK2 chunk stream
// (spill.hpp): a saved trace is the bytes a streaming capture spills, so
// it is written once and every analysis reads it through read_chunks()
// or ChunkReader, the way Recorder's post-processing reads its one trace
// format.

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/bundle.hpp"
#include "pfsem/trace/varint.hpp"

namespace pfsem::trace {

/// Write `bundle` as a chunk stream: the bytes a streaming capture of the
/// same run spills (the bundle-side feed of ChunkWriter). Throws
/// pfsem::Error on stream failure.
void write_compact(const TraceBundle& bundle, std::ostream& os);

namespace detail {
/// Per-event comm-log codec. Every comm-log writer and reader goes
/// through these: the collector (which encodes each event as it
/// arrives), write_comm/decode_comm and the chunk trailer. One
/// definition, so the encodings cannot drift.
void put_p2p(std::string& out, const P2PEvent& e);
void put_collective(std::string& out, const CollectiveEvent& c);
/// Decode one event into `out` and validate it: ranks in [0, nranks),
/// int32 fields that fit, a known kind, at most nranks arrivals. A
/// collective reuses out.arrivals' capacity.
void get_p2p(ByteReader& in, int nranks, P2PEvent& out);
void get_collective(ByteReader& in, int nranks, CollectiveEvent& out);

/// Decode `comm`'s p2p (visit_p2p) or collective (visit_collectives)
/// section in order, each event into one scratch event that `fn` sees
/// before the next overwrites it. Throws pfsem::Error as decode_comm does.
template <typename Fn>
void visit_p2p(const EncodedCommLog& comm, int nranks, Fn&& fn) {
  ByteReader in(comm.p2p);
  P2PEvent e;
  for (std::uint64_t i = 0; i < comm.p2p_count; ++i) {
    get_p2p(in, nranks, e);
    fn(e);
  }
  require(in.exhausted(), "trailing bytes in comm log");
}

template <typename Fn>
void visit_collectives(const EncodedCommLog& comm, int nranks, Fn&& fn) {
  ByteReader in(comm.collectives);
  CollectiveEvent c;
  for (std::uint64_t i = 0; i < comm.collective_count; ++i) {
    get_collective(in, nranks, c);
    fn(c);
  }
  require(in.exhausted(), "trailing bytes in comm log");
}

/// Hand `comm`'s trailer bytes to `put` (called with std::string_view
/// pieces, in order) without concatenating them first.
template <typename Put>
void put_comm(const EncodedCommLog& comm, Put&& put) {
  std::string count;
  put_varint(count, comm.p2p_count);
  put(std::string_view(count));
  put(std::string_view(comm.p2p));
  count.clear();
  put_varint(count, comm.collective_count);
  put(std::string_view(count));
  put(std::string_view(comm.collectives));
}

/// Decode and validate a comm-log trailer, one scratch event at a time.
/// The bytes are kept in `*out` (replacing its contents) if it is not
/// null; otherwise each event is checked and dropped.
void read_comm(ByteReader& in, int nranks, EncodedCommLog* out);
}  // namespace detail

}  // namespace pfsem::trace
