#pragma once
// Binary and text serialization of TraceBundles.
//
// The binary format is a compact little-endian stream (magic + version +
// varint-free fixed-width fields, length-prefixed strings) so bundles can
// be written by a run and re-analyzed later, mirroring Recorder's
// trace-directory workflow. The text form is for human inspection.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/bundle.hpp"
#include "pfsem/trace/varint.hpp"

namespace pfsem::trace {

/// Serialize `bundle` to `os`. Throws pfsem::Error on stream failure.
void write_binary(const TraceBundle& bundle, std::ostream& os);

/// Parse a bundle previously written by write_binary. Throws pfsem::Error
/// on malformed input (bad magic, truncated stream, wrong version).
[[nodiscard]] TraceBundle read_binary(std::istream& is);

/// Human-readable dump (one line per record), optionally filtered by layer.
void write_text(const TraceBundle& bundle, std::ostream& os);

/// Compact format (Recorder 2.0's headline feature is trace compression):
/// LEB128 varints, zig-zag signed fields, per-rank timestamp deltas, and
/// an interned path table. Typically several times smaller than the
/// fixed-width binary format on real traces.
void write_compact(const TraceBundle& bundle, std::ostream& os);

/// Parse a bundle written by write_compact. Throws pfsem::Error on
/// malformed input. Reads ahead: `is` may be left past the end of the
/// trace (see CompactReader).
[[nodiscard]] TraceBundle read_compact(std::istream& is);

/// Streaming writer core of the compact (v2) format: `scan` is invoked
/// once and must call its argument exactly `record_count` times, in
/// emission order, with each record to encode. write_compact() is this
/// with a scan over bundle.records — the two produce identical bytes for
/// identical inputs, which is what lets a spilled streaming capture
/// transcode to .trc without the bundle ever existing.
/// The comm log arrives already encoded (TraceBundle::comm or
/// StreamMeta::comm) and is copied to `os` as is.
using RecordEmit = std::function<void(const Record&)>;
void write_compact_streamed(int nranks, const PathTable& paths,
                            const EncodedCommLog& comm,
                            std::uint64_t record_count,
                            const std::function<void(const RecordEmit&)>& scan,
                            std::ostream& os);

/// Streaming reader over the compact (v2) format: decodes one record per
/// next() call instead of materializing a TraceBundle. Construct, drain
/// next() until it returns false, then read_comm(). Validation (and every
/// error message) matches read_compact, which is a thin wrapper over this.
/// The reader decodes from its own block buffer, so it may consume `is`
/// past the end of the trace; `is` must outlive the reader, and a caller
/// that reads the stream again must clear() and seekg() it first.
class CompactReader {
 public:
  explicit CompactReader(std::istream& is);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const PathTable& paths() const { return paths_; }
  [[nodiscard]] std::uint64_t record_count() const { return nrec_; }

  /// Decode the next record; false once all records are consumed.
  bool next(Record& out);

  /// Read and validate the trailing comm log, every event included. Its
  /// bytes are kept in `*keep` only if the caller passes one. Only valid
  /// after next() returned false.
  void read_comm(EncodedCommLog* keep = nullptr);

 private:
  detail::ByteReader in_;
  int nranks_ = 0;
  PathTable paths_;
  std::uint64_t nrec_ = 0;
  std::uint64_t read_ = 0;
  std::vector<SimTime> last_t_;
};

namespace detail {
/// Per-event comm-log codec. Every comm-log writer and reader goes
/// through these: the collector (which encodes each event as it
/// arrives), write_comm/decode_comm, the v1 edge conversion and the
/// compact v2 and chunk trailers. One definition, so the formats cannot
/// drift.
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
