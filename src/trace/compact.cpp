// Compact trace serialization: LEB128 varints, zig-zag signed encoding,
// per-rank timestamp deltas, and an interned path table. This mirrors the
// compression ideas of Recorder 2.0 (whose contribution over Recorder 1
// was exactly that detailed multi-layer traces stay small): HPC I/O
// records are highly regular, so deltas and small ids dominate.
//
// The whole-bundle entry points are thin wrappers over the streaming
// core (write_compact_streamed / CompactReader), so the materialized and
// streaming pipelines share one codec and stay byte-identical.

#include <algorithm>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

constexpr char kMagic2[8] = {'P', 'F', 'S', 'E', 'M', 'T', 'R', '2'};

using detail::put_string;
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

void write_compact_streamed(int nranks, const PathTable& paths,
                            const EncodedCommLog& comm,
                            std::uint64_t record_count,
                            const std::function<void(const RecordEmit&)>& scan,
                            std::ostream& os) {
  // Encode into a block buffer and hand the stream whole blocks.
  std::string buf(kMagic2, sizeof kMagic2);
  const auto flush_full = [&] {
    if (buf.size() < detail::kBlockBytes) return;
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  put_varint(buf, static_cast<std::uint64_t>(nranks));

  // The on-disk path table is the run's PathTable verbatim, so FileIds
  // survive a round trip unchanged. Records without a path (kNoFile) are
  // stored as a reference to an empty-string entry, appended if the table
  // does not already contain one — the same encoding the pre-interning
  // writer produced for pathless records.
  const FileId empty_id = paths.find("");
  const bool need_empty = empty_id == kNoFile;
  const std::uint64_t npaths = paths.size() + (need_empty ? 1 : 0);
  const std::uint64_t no_file_slot = need_empty ? paths.size() : empty_id;
  put_varint(buf, npaths);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    put_string(buf, paths.view(static_cast<FileId>(i)));
    flush_full();
  }
  if (need_empty) put_string(buf, "");

  put_varint(buf, record_count);
  std::vector<SimTime> last_t(static_cast<std::size_t>(nranks), 0);
  std::uint64_t emitted = 0;
  scan([&](const Record& r) {
    auto& prev = last_t[static_cast<std::size_t>(r.rank)];
    put_varint(buf, static_cast<std::uint64_t>(r.rank));
    put_varint(buf, zigzag(r.tstart - prev));  // per-rank delta
    put_varint(buf, zigzag(r.tend - r.tstart));
    prev = r.tstart;
    put_varint(buf, static_cast<std::uint64_t>(r.layer) |
                        (static_cast<std::uint64_t>(r.origin) << 3) |
                        (static_cast<std::uint64_t>(r.func) << 6));
    put_varint(buf, zigzag(r.fd));
    put_varint(buf, zigzag(r.ret));
    put_varint(buf, r.offset);
    put_varint(buf, r.count);
    put_varint(buf, zigzag(r.flags));
    put_varint(buf, r.file == kNoFile ? no_file_slot
                                      : static_cast<std::uint64_t>(r.file));
    flush_full();
    ++emitted;
  });
  require(emitted == record_count,
          "record scan count mismatch in compact trace write");

  const auto write = [&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  write(buf);
  detail::put_comm(comm, write);
  require(static_cast<bool>(os), "compact trace write failure");
}

void write_compact(const TraceBundle& bundle, std::ostream& os) {
  write_compact_streamed(
      bundle.nranks, bundle.paths, bundle.comm,
      bundle.records.size(),
      [&](const RecordEmit& emit) {
        for (const auto& r : bundle.records) emit(r);
      },
      os);
}

CompactReader::CompactReader(std::istream& is) : in_(is) {
  char magic[8];
  require(in_.read(magic, sizeof magic) &&
              std::equal(std::begin(magic), std::end(magic), kMagic2),
          "not a compact pfsem trace");
  nranks_ = static_cast<int>(in_.varint());
  require(nranks_ > 0 && nranks_ < (1 << 24), "bad rank count");

  // Adopt the on-disk intern table directly as the in-memory PathTable:
  // ids in the stream are ids in the decoded records, no per-record
  // string materialization. Empty-string entries stay in the table
  // (records referencing them decode to kNoFile in next()).
  const auto npaths = in_.varint();
  require(npaths <= (1u << 24), "implausible path-table size");
  for (std::uint64_t i = 0; i < npaths; ++i) {
    const std::string s = in_.string();
    const FileId id = paths_.intern(s);
    require(id == static_cast<FileId>(i), "duplicate path in compact table");
  }

  nrec_ = in_.varint();
  last_t_.assign(static_cast<std::size_t>(nranks_), 0);
}

bool CompactReader::next(Record& out) {
  if (read_ == nrec_) return false;
  ++read_;
  const auto rank = in_.varint();
  require(rank < static_cast<std::uint64_t>(nranks_), "bad record rank");
  out.rank = static_cast<Rank>(rank);
  auto& prev = last_t_[rank];
  out.tstart = prev + unzigzag(in_.varint());
  out.tend = out.tstart + unzigzag(in_.varint());
  prev = out.tstart;
  const auto packed = in_.varint();
  require((packed & 0x7) < kLayerCount && ((packed >> 3) & 0x7) < kLayerCount,
          "bad layer id in compact trace");
  out.layer = static_cast<Layer>(packed & 0x7);
  out.origin = static_cast<Layer>((packed >> 3) & 0x7);
  const auto func = packed >> 6;
  require(func < kFuncCount, "bad function id in compact trace");
  out.func = static_cast<Func>(func);
  out.fd = in_.zigzag_int32();
  out.ret = unzigzag(in_.varint());
  out.offset = in_.varint();
  out.count = in_.varint();
  out.flags = in_.zigzag_int32();
  const auto pid = in_.varint();
  require(pid < paths_.size(), "bad path id in compact trace");
  const auto id = static_cast<FileId>(pid);
  out.file = paths_.view(id).empty() ? kNoFile : id;
  return true;
}

void CompactReader::read_comm(EncodedCommLog* keep) {
  require(read_ == nrec_, "comm log read before records were drained");
  detail::read_comm(in_, nranks_, keep);
}

TraceBundle read_compact(std::istream& is) {
  CompactReader reader(is);
  TraceBundle b;
  b.nranks = reader.nranks();
  b.paths = reader.paths();
  b.records.reserve(std::min(reader.record_count(), detail::kMaxReserve));
  Record r;
  while (reader.next(r)) b.records.push_back(r);
  reader.read_comm(&b.comm);
  return b;
}

}  // namespace pfsem::trace
