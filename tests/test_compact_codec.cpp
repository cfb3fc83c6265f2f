// Robustness tests for the trace codecs, plus on-disk compatibility
// fixtures. The compact (v2) format is LEB128 varints + zig-zag signed
// fields + an interned path table; these tests pin down its behaviour at
// the integer extremes and on malformed input, and the Compat suite
// hand-crafts pre-interning v1/v2 byte streams to prove that traces
// written before the FileId refactor still load and analyse identically
// to bundles built in memory today.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"

// Allocation accounting for the bounded-allocation tests: every
// operator new in this binary adds its size here. All throwing, nothrow
// and array forms are replaced, so no allocation bypasses the count and
// every pointer reaches the matching free() (sanitizer runtimes bring
// their own versions of any form left out). Kept out of line so the
// compiler never pairs an inlined free() with a call to operator new.
namespace {
std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pfsem::trace {
namespace {

// --- fixture-crafting helpers (independent re-implementations of the
// on-disk encodings, so a writer bug cannot hide behind a matching
// reader bug) -----------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zz(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

template <typename T>
void put_le(std::string& out, T v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

Record make_record(Rank rank, SimTime t0, SimTime t1, Func func, int fd,
                   std::int64_t ret, Offset off, std::uint64_t count,
                   std::int32_t flags, FileId file) {
  Record r;
  r.tstart = t0;
  r.tend = t1;
  r.rank = rank;
  r.layer = Layer::Posix;
  r.origin = Layer::App;
  r.func = func;
  r.fd = fd;
  r.ret = ret;
  r.offset = off;
  r.count = count;
  r.flags = flags;
  r.file = file;
  return r;
}

/// Everything the analysis pipeline concludes from a bundle, as text:
/// per-file reconstructed accesses plus the conflict report.
std::string analysis_fingerprint(const TraceBundle& b) {
  const auto log = core::reconstruct_accesses(b);
  const auto rep = core::detect_conflicts(log);
  std::ostringstream os;
  os << log.nranks << '|' << log.file_count() << '\n';
  for (const FileId id : log.ids_by_path()) {
    os << log.path(id) << ':';
    for (const auto& a : log.files[id].accesses) {
      os << ' ' << a.t << ',' << a.rank << ',' << a.ext.begin << ','
         << a.ext.end << ',' << core::to_string(a.type) << ',' << a.t_open
         << ',' << a.t_commit << ',' << a.t_close;
    }
    os << '\n';
  }
  os << rep.potential_pairs << '|' << rep.session.count << rep.session.waw_s
     << rep.session.waw_d << rep.session.raw_s << rep.session.raw_d << '|'
     << rep.commit.count << rep.commit.waw_s << rep.commit.waw_d
     << rep.commit.raw_s << rep.commit.raw_d << '\n';
  for (const auto& c : rep.conflicts) {
    os << log.path(c.file) << ' ' << core::to_string(c.kind) << ' '
       << c.first.rank << ',' << c.first.t << ' ' << c.second.rank << ','
       << c.second.t << ' ' << c.same_process << c.under_commit
       << c.under_session << '\n';
  }
  return os.str();
}

/// The producer/consumer trace both Compat fixtures encode: rank 0
/// creates "shared" and writes [0, 100); rank 1 opens it and reads the
/// same range with no commit in between (a RAW conflict pair).
TraceBundle reference_bundle() {
  TraceBundle b;
  b.nranks = 2;
  const FileId shared = b.intern("shared");
  b.records.push_back(make_record(0, 100, 105, Func::open, 3, 3, 0, 0,
                                  kCreate | kRdWr, shared));
  b.records.push_back(
      make_record(0, 110, 120, Func::pwrite, 3, 100, 0, 100, 0, kNoFile));
  b.records.push_back(
      make_record(0, 130, 131, Func::close, 3, 0, 0, 0, 0, kNoFile));
  b.records.push_back(
      make_record(1, 200, 205, Func::open, 3, 3, 0, 0, kRdWr, shared));
  b.records.push_back(
      make_record(1, 210, 220, Func::pread, 3, 100, 0, 100, 0, kNoFile));
  b.records.push_back(
      make_record(1, 230, 231, Func::close, 3, 0, 0, 0, 0, kNoFile));
  return b;
}

// --- compact-codec robustness ------------------------------------------

TEST(CompactCodec, ZigZagAndVarintExtremesRoundTrip) {
  TraceBundle b;
  b.nranks = 1;
  const FileId f = b.intern("extremes");
  auto r = make_record(0, 0, 1, Func::pwrite, 3,
                       std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<Offset>::max(),
                       std::numeric_limits<std::uint64_t>::max(),
                       std::numeric_limits<std::int32_t>::min(), f);
  b.records.push_back(r);
  r.ret = std::numeric_limits<std::int64_t>::max();
  r.fd = std::numeric_limits<std::int32_t>::max();
  r.flags = std::numeric_limits<std::int32_t>::max();
  r.tstart = 2;
  r.tend = 2;
  b.records.push_back(r);

  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  ASSERT_EQ(copy.records.size(), 2u);
  EXPECT_EQ(copy.records[0].ret, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(copy.records[0].offset, std::numeric_limits<Offset>::max());
  EXPECT_EQ(copy.records[0].count, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(copy.records[0].flags, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(copy.records[1].ret, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(copy.records[1].fd, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(copy.records[1].flags, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(copy.path_of(copy.records[0]), "extremes");
}

TEST(CompactCodec, OverlongVarintRejected) {
  // 11 continuation bytes push the decoder's shift past 64 bits; it must
  // fail loudly instead of silently wrapping.
  std::string s("PFSEMTR2", 8);
  s.append(11, static_cast<char>(0x80));
  std::istringstream is(s);
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, BadMagicRejected) {
  std::istringstream is(std::string("PFSEMTRX", 8) + "\x01");
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, EveryTruncationThrows) {
  std::stringstream ss;
  write_compact(reference_bundle(), ss);
  const std::string full = ss.str();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::istringstream is(full.substr(0, len));
    EXPECT_THROW((void)read_compact(is), Error) << "prefix length " << len;
  }
}

TEST(CompactCodec, DuplicatePathTableEntryRejected) {
  std::string s("PFSEMTR2", 8);
  put_varint(s, 1);  // nranks
  put_varint(s, 2);  // two path entries...
  put_varint(s, 1);
  s += "a";
  put_varint(s, 1);  // ...that collide
  s += "a";
  std::istringstream is(s);
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, EmptyPathTableRoundTrips) {
  // A bundle whose records never name a file (pathless metadata ops) has
  // an empty in-memory table; the writer's synthesized empty-string slot
  // must decode back to kNoFile.
  TraceBundle b;
  b.nranks = 1;
  b.records.push_back(
      make_record(0, 10, 11, Func::umask, -1, 0, 0, 0, 022, kNoFile));
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  ASSERT_EQ(copy.records.size(), 1u);
  EXPECT_EQ(copy.records[0].file, kNoFile);
  EXPECT_EQ(copy.path_of(copy.records[0]), "");
}

TEST(CompactCodec, EmptyBundleRoundTrips) {
  TraceBundle b;
  b.nranks = 4;
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  EXPECT_EQ(copy.nranks, 4);
  EXPECT_TRUE(copy.records.empty());
  EXPECT_EQ(copy.comm, EncodedCommLog{});
}

// --- pre-refactor on-disk compatibility --------------------------------

TEST(SerializationCompat, V1InlinePathFixtureAnalysesIdentically) {
  // Byte-for-byte what the pre-interning v1 writer produced: fixed-width
  // little-endian fields with the path string inline in each record
  // (empty for pathless records).
  std::string s("PFSEMTRC", 8);
  put_le<std::uint32_t>(s, 1);  // version
  put_le<std::int32_t>(s, 2);   // nranks
  put_le<std::uint64_t>(s, 6);  // records
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int32_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int32_t flags,
                       const std::string& path) {
    put_le(s, t0);
    put_le(s, t1);
    put_le(s, rank);
    s.push_back(0);  // layer = Posix
    s.push_back(6);  // origin = App
    put_le<std::uint16_t>(s, static_cast<std::uint16_t>(func));
    put_le(s, fd);
    put_le(s, ret);
    put_le(s, off);
    put_le(s, count);
    put_le(s, flags);
    put_le<std::uint32_t>(s, static_cast<std::uint32_t>(path.size()));
    s += path;
  };
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, "shared");
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, "");
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, "");
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, "shared");
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, "");
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, "");
  put_le<std::uint64_t>(s, 0);  // p2p
  put_le<std::uint64_t>(s, 0);  // collectives

  std::istringstream is(s);
  const auto loaded = read_binary(is);
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

/// Byte-for-byte what the pre-refactor v2 writer produced for
/// reference_bundle(): a leading path table ("shared" then the
/// synthesized empty slot) and per-record table references,
/// varint/zig-zag encoded with per-rank time deltas.
std::string compact_fixture() {
  std::string s("PFSEMTR2", 8);
  put_varint(s, 2);  // nranks
  put_varint(s, 2);  // path table: "shared", ""
  put_varint(s, 6);
  s += "shared";
  put_varint(s, 0);
  put_varint(s, 6);  // records
  std::int64_t prev[2] = {0, 0};
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int64_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int64_t flags,
                       std::uint64_t path_id) {
    put_varint(s, static_cast<std::uint64_t>(rank));
    put_varint(s, zz(t0 - prev[rank]));
    put_varint(s, zz(t1 - t0));
    prev[rank] = t0;
    put_varint(s, 0 | (6u << 3) |
                      (static_cast<std::uint64_t>(func) << 6));  // Posix/App
    put_varint(s, zz(fd));
    put_varint(s, zz(ret));
    put_varint(s, off);
    put_varint(s, count);
    put_varint(s, zz(flags));
    put_varint(s, path_id);
  };
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, 0);
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, 1);
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, 1);
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, 0);
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, 1);
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, 1);
  put_varint(s, 0);  // p2p
  put_varint(s, 0);  // collectives
  return s;
}

TEST(SerializationCompat, V2PathTableFixtureAnalysesIdentically) {
  std::istringstream is(compact_fixture());
  const auto loaded = read_compact(is);
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

// --- chunked streaming framing (PFSEMCK1) ------------------------------

/// Byte-for-byte what the chunk writer produces for reference_bundle()
/// split into two 3-record chunks: pinned independently so the on-disk
/// framing can never drift without this fixture failing. Unlike compact
/// v2, the chunk encoding needs no synthesized empty path slot — the
/// file field is 0 for kNoFile, id+1 otherwise.
std::string chunk_fixture() {
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  std::int64_t prev[2] = {0, 0};
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int64_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int64_t flags,
                       std::uint64_t file_plus_1) {
    put_varint(s, static_cast<std::uint64_t>(rank));
    put_varint(s, zz(t0 - prev[rank]));
    put_varint(s, zz(t1 - t0));
    prev[rank] = t0;
    put_varint(s, 0 | (6u << 3) |
                      (static_cast<std::uint64_t>(func) << 6));  // Posix/App
    put_varint(s, zz(fd));
    put_varint(s, zz(ret));
    put_varint(s, off);
    put_varint(s, count);
    put_varint(s, zz(flags));
    put_varint(s, file_plus_1);
  };
  s.push_back('C');  // chunk at seq 0, 3 records (rank 0's)
  put_varint(s, 0);
  put_varint(s, 3);
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, 1);
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, 0);
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, 0);
  s.push_back('C');  // chunk at seq 3, 3 records (rank 1's)
  put_varint(s, 3);
  put_varint(s, 3);
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, 1);
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, 0);
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, 0);
  s.push_back('T');  // trailer: 6 records, one path, empty comm log
  put_varint(s, 6);
  put_varint(s, 1);
  put_varint(s, 6);
  s += "shared";
  put_varint(s, 0);  // p2p
  put_varint(s, 0);  // collectives
  return s;
}

/// Drain a chunk stream back into a TraceBundle (records + trailer).
TraceBundle decode_chunks(std::istream& is) {
  ChunkReader reader(is);
  TraceBundle b;
  b.nranks = reader.nranks();
  Record rec;
  while (reader.next(rec)) b.records.push_back(rec);
  reader.read_trailer(&b.comm, &b.paths);
  return b;
}

TraceBundle decode_chunks(const std::string& bytes) {
  std::istringstream is(bytes);
  return decode_chunks(is);
}

TEST(ChunkStream, WriterMatchesHandCraftedFixtureExactly) {
  const auto b = reference_bundle();
  SpillStore store(1u << 20);
  {
    ChunkWriter writer(store, b.nranks);
    writer.on_records(0, std::span<const Record>(b.records).subspan(0, 3));
    writer.on_records(3, std::span<const Record>(b.records).subspan(3, 3));
    StreamMeta meta;
    meta.nranks = b.nranks;
    meta.paths = b.paths;
    meta.records = 6;
    writer.finish(meta);
  }
  const auto in = store.open_read();
  const std::string written(std::istreambuf_iterator<char>(*in), {});
  ASSERT_EQ(written, chunk_fixture());
}

TEST(ChunkStream, FixtureDecodesAndAnalysesIdentically) {
  const auto loaded = decode_chunks(chunk_fixture());
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

TEST(ChunkStream, EveryTruncationThrows) {
  const std::string full = chunk_fixture();
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)decode_chunks(full.substr(0, len)), Error)
        << "prefix length " << len;
  }
}

TEST(ChunkStream, EmptyChunkTolerated) {
  // A zero-record chunk is valid framing (the writer skips them, but a
  // reader must not choke on one): splice 'C' <seq> <0> between chunks.
  const std::string full = chunk_fixture();
  const auto second = full.find('C', full.find('C', 8) + 1);
  ASSERT_NE(second, std::string::npos);
  std::string spliced = full.substr(0, second);
  spliced.push_back('C');
  put_varint(spliced, 3);  // base_seq continues the count
  put_varint(spliced, 0);  // zero records
  spliced += full.substr(second);
  EXPECT_EQ(analysis_fingerprint(decode_chunks(spliced)),
            analysis_fingerprint(reference_bundle()));
}

TEST(ChunkStream, OutOfOrderChunkRejected) {
  // A chunk whose base_seq does not continue the stream means a lost or
  // reordered chunk; the reader must fail loudly, not mis-merge.
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  s.push_back('C');
  put_varint(s, 4);  // base_seq 4 in a stream that has seen 0 records
  put_varint(s, 1);
  EXPECT_THROW((void)decode_chunks(s), Error);
}

TEST(ChunkStream, BadMagicRejected) {
  std::string s("PFSEMCKX", 8);
  put_varint(s, 2);
  EXPECT_THROW((void)decode_chunks(s), Error);
}

TEST(ChunkStream, TrailerRecordCountMismatchRejected) {
  // Trailer claiming more records than the chunks carried: a truncated
  // middle (whole missing chunk) that per-chunk checks cannot see.
  std::string s = chunk_fixture();
  const auto t = s.rfind('T');
  ASSERT_NE(t, std::string::npos);
  std::string bad = s.substr(0, t);
  bad.push_back('T');
  put_varint(bad, 9);  // stream carried 6
  bad += s.substr(t + 2);
  EXPECT_THROW((void)decode_chunks(bad), Error);
}

/// A chunk stream with no records and a trailer holding one collective
/// (`kind`, `root`, one arrival by `arrival`), nranks 2.
std::string chunk_trailer_with_collective(std::uint64_t kind, Rank root,
                                          std::uint64_t arrival) {
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  s.push_back('T');
  put_varint(s, 0);  // records
  put_varint(s, 0);  // paths
  put_varint(s, 0);  // p2p
  put_varint(s, 1);  // collectives
  put_varint(s, kind);
  put_varint(s, zz(root));
  put_varint(s, 1);  // arrivals
  put_varint(s, arrival);
  put_varint(s, zz(30));
  put_varint(s, zz(10));
  return s;
}

TEST(ChunkStream, TrailerWithBadCollectiveThrowsWhetherKeptOrNot) {
  // read_trailer() validates every comm event even when the caller keeps
  // none of them.
  const auto read = [](const std::string& bytes, EncodedCommLog* keep) {
    std::istringstream is(bytes);
    ChunkReader reader(is);
    Record rec;
    EXPECT_FALSE(reader.next(rec));
    reader.read_trailer(keep);
  };
  const auto bcast = static_cast<std::uint64_t>(CollectiveKind::Bcast);
  EncodedCommLog kept;
  read(chunk_trailer_with_collective(bcast, 1, 0), &kept);
  const auto comm = decode_comm(kept, 2);
  ASSERT_EQ(comm.collectives.size(), 1u);
  EXPECT_EQ(comm.collectives[0].root, 1);
  EXPECT_EQ(comm.collectives[0].arrivals.at(0).t_exit, 40);
  read(chunk_trailer_with_collective(bcast, 1, 0), nullptr);
  for (EncodedCommLog* keep :
       {&kept, static_cast<EncodedCommLog*>(nullptr)}) {
    EXPECT_THROW(read(chunk_trailer_with_collective(8, 1, 0), keep), Error);
    EXPECT_THROW(read(chunk_trailer_with_collective(bcast, 2, 0), keep),
                 Error);
    EXPECT_THROW(read(chunk_trailer_with_collective(bcast, 1, 2), keep),
                 Error);
  }
}

/// The message of the pfsem::Error `fn` throws, or "" if it throws none.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A one-rank chunk stream: one record on `file_plus_1` (0 = no file),
/// then a trailer naming `paths` and an empty comm log.
std::string chunk_stream_with_paths(std::uint64_t file_plus_1,
                                    const std::vector<std::string>& paths) {
  std::string s("PFSEMCK1", 8);
  put_varint(s, 1);  // nranks
  s.push_back('C');
  put_varint(s, 0);  // base seq
  put_varint(s, 1);  // records
  put_varint(s, 0);  // rank
  put_varint(s, zz(10));
  put_varint(s, zz(5));
  put_varint(s, static_cast<std::uint64_t>(Func::open) << 6);  // Posix/Posix
  put_varint(s, zz(3));  // fd
  put_varint(s, zz(3));  // ret
  put_varint(s, 0);      // offset
  put_varint(s, 0);      // count
  put_varint(s, zz(0));  // flags
  put_varint(s, file_plus_1);
  s.push_back('T');
  put_varint(s, 1);  // records
  put_varint(s, paths.size());
  for (const auto& p : paths) {
    put_varint(s, p.size());
    s += p;
  }
  put_varint(s, 0);  // p2p
  put_varint(s, 0);  // collectives
  return s;
}

TEST(ChunkStream, TrailerPathTableIsCheckedWithoutBuildingOne) {
  // Production callers drop the trailer's path table, so read_trailer()
  // builds one only on request; the checks and messages are the same
  // either way.
  const auto read = [](const std::string& bytes, PathTable* keep) {
    std::istringstream is(bytes);
    ChunkReader reader(is);
    Record rec;
    while (reader.next(rec)) {
    }
    reader.read_trailer(nullptr, keep);
  };
  const auto message = [&](const std::string& bytes, PathTable* keep) {
    const auto what = error_of([&] { read(bytes, keep); });
    const auto colon = what.rfind(": ");
    return colon == std::string::npos ? what : what.substr(colon + 2);
  };
  const auto good = chunk_stream_with_paths(2, {"a", "b", "c"});
  PathTable kept;
  read(good, &kept);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.view(1), "b");
  EXPECT_EQ(kept.find("c"), FileId{2});
  for (PathTable* keep : {&kept, static_cast<PathTable*>(nullptr)}) {
    EXPECT_EQ(message(good, keep), "");
    EXPECT_EQ(message(chunk_stream_with_paths(0, {}), keep), "");
    EXPECT_EQ(message(chunk_stream_with_paths(1, {"b", "a", "b"}), keep),
              "duplicate path in chunk table");
    EXPECT_EQ(message(chunk_stream_with_paths(1, {"", "x", ""}), keep),
              "duplicate path in chunk table");
    EXPECT_EQ(message(chunk_stream_with_paths(4, {"a", "b", "c"}), keep),
              "bad path id in chunk stream");
    EXPECT_EQ(message(chunk_stream_with_paths(1, {}), keep),
              "bad path id in chunk stream");
  }
}

// --- block spill store ----------------------------------------------------

/// `n` bytes whose value at each offset differs from its neighbours' and
/// from the same offset in the next block (period 251 is prime).
std::string patterned(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>(i % 251);
  return s;
}

/// Append `bytes` to `store` in pieces of uneven sizes, so pieces start
/// and end on both sides of every block edge.
void append_unevenly(SpillStore& store, std::string_view bytes) {
  constexpr std::size_t kSizes[] = {1, 7, 4093, 65537, 300001, 2};
  for (std::size_t i = 0; !bytes.empty(); ++i) {
    const auto n = std::min(bytes.size(), kSizes[i % std::size(kSizes)]);
    store.append(bytes.substr(0, n));
    bytes.remove_prefix(n);
  }
}

TEST(SpillStoreBlocks, AppendsAcrossBlockEdgesReplayAndSeekExactly) {
  constexpr std::size_t kBlock = SpillStore::kBlockBytes;
  const std::string want = patterned(3 * kBlock + kBlock / 2);
  SpillStore store(4 * kBlock);
  append_unevenly(store, want);
  ASSERT_FALSE(store.spilled());
  EXPECT_EQ(store.bytes(), want.size());
  EXPECT_EQ(store.peak_memory(), want.size());

  // Several views at once, read interleaved: by sgetn in one call, by
  // single characters, and a third one seeking around.
  const auto a = store.open_read();
  const auto b = store.open_read();
  const auto c = store.open_read();
  EXPECT_THROW(store.append("x"), Error);
  std::string head(kBlock + 3, '\0');
  ASSERT_TRUE(b->read(head.data(), static_cast<std::streamsize>(head.size())));
  std::string all(want.size(), '\0');
  ASSERT_TRUE(a->read(all.data(), static_cast<std::streamsize>(all.size())));
  EXPECT_TRUE(all == want);
  EXPECT_EQ(a->get(), std::char_traits<char>::eof());
  const std::string tail(std::istreambuf_iterator<char>(*b), {});
  EXPECT_TRUE(head + tail == want);

  for (const std::size_t at :
       {std::size_t{0}, kBlock - 1, kBlock, kBlock + 12345, 2 * kBlock,
        3 * kBlock + 1, want.size() - 1, want.size()}) {
    c->clear();
    c->seekg(static_cast<std::streamoff>(at));
    ASSERT_EQ(c->tellg(), static_cast<std::streamoff>(at)) << at;
    const std::string rest(std::istreambuf_iterator<char>(*c), {});
    EXPECT_TRUE(rest == want.substr(at)) << "seek to " << at;
  }
  c->clear();
  c->seekg(-5, std::ios_base::end);
  EXPECT_EQ(c->tellg(), static_cast<std::streamoff>(want.size() - 5));
  c->seekg(-static_cast<std::streamoff>(kBlock), std::ios_base::cur);
  EXPECT_EQ(c->tellg(), static_cast<std::streamoff>(want.size() - 5 - kBlock));
  EXPECT_EQ(c->get(),
            static_cast<unsigned char>(want[want.size() - 5 - kBlock]));
  c->seekg(1, std::ios_base::end);  // past the end: the seek fails
  EXPECT_TRUE(c->fail());
}

TEST(SpillStoreBlocks, SpillAfterSeveralBlocksWritesTheSameBytes) {
  constexpr std::size_t kBlock = SpillStore::kBlockBytes;
  const std::string want = patterned(3 * kBlock + kBlock / 2);
  SpillStore store(3 * kBlock + 5);
  append_unevenly(store, want);
  ASSERT_TRUE(store.spilled());
  EXPECT_GT(store.peak_memory(), 2 * kBlock);  // spilled from several blocks
  EXPECT_LE(store.peak_memory(), 3 * kBlock + 5);
  EXPECT_EQ(store.bytes(), want.size());
  const auto in = store.open_read();
  const std::string got(std::istreambuf_iterator<char>(*in), {});
  EXPECT_TRUE(got == want);
}

TEST(SpillStoreBlocks, ChunkStreamOverSeveralBlocksDecodes) {
  // The chunk reader's block refills (sgetn) cross the store's block
  // edges at unrelated offsets.
  std::vector<Record> in;
  for (std::size_t i = 0; i < 200000; ++i) {
    in.push_back(make_record(static_cast<Rank>(i % 3),
                             static_cast<SimTime>(i * 10),
                             static_cast<SimTime>(i * 10 + 5), Func::pwrite,
                             3, 4096, i * 4096, 4096, 0, kNoFile));
  }
  SpillStore store;
  ChunkWriter writer(store, 3);
  for (std::size_t at = 0; at < in.size(); at += 4096) {
    const auto n = std::min<std::size_t>(4096, in.size() - at);
    writer.on_records(at, std::span<const Record>(in).subspan(at, n));
  }
  StreamMeta meta;
  meta.nranks = 3;
  meta.records = in.size();
  writer.finish(meta);
  ASSERT_FALSE(store.spilled());
  ASSERT_GT(store.bytes(), 2 * SpillStore::kBlockBytes);
  const auto is = store.open_read();
  EXPECT_TRUE(decode_chunks(*is).records == in);
}

// --- block decoder: short reads, block edges, varint limits -----------

/// A streambuf over a string that hands out at most `k` bytes per read,
/// however many the caller asks for: a pipe or a slow file, as the
/// decoder's block refill sees it.
class TrickleBuf final : public std::streambuf {
 public:
  TrickleBuf(std::string bytes, std::size_t k)
      : bytes_(std::move(bytes)), k_(k) {}

 protected:
  int_type underflow() override {
    if (pos_ == bytes_.size()) return traits_type::eof();
    char* const p = bytes_.data() + pos_;
    const auto n = std::min(k_, bytes_.size() - pos_);
    setg(p, p, p + n);
    pos_ += n;
    return traits_type::to_int_type(*p);
  }

  std::streamsize xsgetn(char* dst, std::streamsize n) override {
    if (gptr() == egptr() &&
        traits_type::eq_int_type(underflow(), traits_type::eof())) {
      return 0;
    }
    const auto got = std::min<std::streamsize>(n, egptr() - gptr());
    std::memcpy(dst, gptr(), static_cast<std::size_t>(got));
    gbump(static_cast<int>(got));
    return got;
  }

 private:
  std::string bytes_;
  std::size_t k_;
  std::size_t pos_ = 0;
};

TEST(BlockDecoder, PinnedFixturesDecodeIdenticallyUnderShortReads) {
  std::istringstream whole_chunks(chunk_fixture());
  std::istringstream whole_compact(compact_fixture());
  const auto want_chunks = decode_chunks(whole_chunks);
  const auto want_compact = read_compact(whole_compact);
  for (const std::size_t k : {1u, 3u, 7u}) {
    TrickleBuf chunk_buf(chunk_fixture(), k);
    std::istream chunk_in(&chunk_buf);
    const auto chunks = decode_chunks(chunk_in);
    EXPECT_EQ(chunks.records, want_chunks.records) << "k=" << k;
    EXPECT_EQ(analysis_fingerprint(chunks), analysis_fingerprint(want_chunks))
        << "k=" << k;

    TrickleBuf compact_buf(compact_fixture(), k);
    std::istream compact_in(&compact_buf);
    const auto compact = read_compact(compact_in);
    EXPECT_EQ(compact.records, want_compact.records) << "k=" << k;
    EXPECT_EQ(analysis_fingerprint(compact),
              analysis_fingerprint(want_compact))
        << "k=" << k;
  }
}

/// True if a 10-byte varint covers both bytes edge-1 and edge of `s`.
bool ten_byte_varint_straddles(const std::string& s, std::size_t edge) {
  if (edge == 0 || edge >= s.size() || !(s[edge - 1] & 0x80)) return false;
  std::size_t begin = edge - 1;
  while (begin > 0 && (s[begin - 1] & 0x80)) --begin;
  std::size_t last = edge;
  while (last < s.size() && (s[last] & 0x80)) ++last;
  return last - begin + 1 == 10;
}

TEST(BlockDecoder, ChunkStreamDecodesAcrossBlockEdges) {
  // Records made mostly of maximal (10-byte) varints, in a stream over
  // two 64 KiB decoder blocks. The first record's offset varint takes
  // 1..10 bytes, sliding everything after it across the block edge, so
  // some 10-byte varint must straddle it.
  constexpr std::size_t kEdge = std::size_t{64} << 10;
  constexpr std::size_t kRecords = 3000;
  bool straddled = false;
  for (int shift = 0; shift < 10; ++shift) {
    std::vector<Record> in;
    for (std::size_t i = 0; i < kRecords; ++i) {
      in.push_back(make_record(
          static_cast<Rank>(i % 2), 0, std::numeric_limits<SimTime>::max(),
          Func::pwrite, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<Offset>::max(),
          std::numeric_limits<std::uint64_t>::max(),
          std::numeric_limits<std::int32_t>::min(), kNoFile));
    }
    in[0].offset = shift == 0 ? 0 : std::uint64_t{1} << (7 * shift);
    SpillStore store;
    ChunkWriter writer(store, 2);
    for (std::size_t at = 0; at < kRecords; at += 1000) {
      writer.on_records(at, std::span<const Record>(in).subspan(at, 1000));
    }
    StreamMeta meta;
    meta.nranks = 2;
    meta.records = kRecords;
    writer.finish(meta);
    const auto is = store.open_read();
    const std::string bytes(std::istreambuf_iterator<char>(*is), {});
    ASSERT_GT(bytes.size(), 2 * kEdge);
    straddled = straddled || ten_byte_varint_straddles(bytes, kEdge);
    EXPECT_EQ(decode_chunks(bytes).records, in) << "shift " << shift;
  }
  EXPECT_TRUE(straddled);
}

TEST(BlockDecoder, ElevenByteVarintRejectedOnBothPaths) {
  std::string overlong("PFSEMTR2", 8);
  overlong.append(10, static_cast<char>(0x80));
  overlong.push_back(0x01);  // the 11th byte
  // Mid-buffer: plenty of bytes follow, so the unchecked path sees it
  // first and must hand over to the checked one.
  std::istringstream mid(overlong + std::string(64, '\0'));
  EXPECT_NE(error_of([&] { (void)read_compact(mid); })
                .find("overlong varint in compact trace"),
            std::string::npos);
  // Stream end, fed 7 bytes at a time: the checked path decodes it
  // across refills with the 11th byte last in the stream.
  TrickleBuf tail_buf(overlong, 7);
  std::istream tail(&tail_buf);
  EXPECT_NE(error_of([&] { (void)read_compact(tail); })
                .find("overlong varint in compact trace"),
            std::string::npos);
  // Ten continuation bytes and then nothing is a truncation instead.
  std::istringstream cut(overlong.substr(0, overlong.size() - 1));
  EXPECT_NE(error_of([&] { (void)read_compact(cut); })
                .find("truncated compact trace"),
            std::string::npos);
}

// --- hostile ranks, layers and collectives -----------------------------

/// A v1 stream with one record (rank `rank`, layer byte `layer`) and one
/// collective (`kind`, `root`, a single arrival by `arrival`), nranks 2.
std::string v1_stream(Rank rank, std::uint8_t layer, std::uint8_t kind,
                      Rank root, Rank arrival) {
  std::string s("PFSEMTRC", 8);
  put_le<std::uint32_t>(s, 1);  // version
  put_le<std::int32_t>(s, 2);   // nranks
  put_le<std::uint64_t>(s, 1);  // records
  put_le<SimTime>(s, 10);
  put_le<SimTime>(s, 20);
  put_le(s, rank);
  s.push_back(static_cast<char>(layer));
  s.push_back(6);  // origin = App
  put_le<std::uint16_t>(s, static_cast<std::uint16_t>(Func::stat));
  put_le<std::int32_t>(s, -1);  // fd
  put_le<std::int64_t>(s, 0);   // ret
  put_le<std::uint64_t>(s, 0);  // offset
  put_le<std::uint64_t>(s, 0);  // count
  put_le<std::int32_t>(s, 0);   // flags
  put_le<std::uint32_t>(s, 0);  // path
  put_le<std::uint64_t>(s, 0);  // p2p
  put_le<std::uint64_t>(s, 1);  // collectives
  s.push_back(static_cast<char>(kind));
  put_le(s, root);
  put_le<std::uint32_t>(s, 1);  // arrivals
  put_le(s, arrival);
  put_le<SimTime>(s, 30);
  put_le<SimTime>(s, 40);
  return s;
}

/// The same content as compact v2: one record, one collective.
std::string v2_stream(std::uint64_t rank, std::uint64_t layer,
                      std::uint64_t kind, Rank root, std::uint64_t arrival) {
  std::string s("PFSEMTR2", 8);
  put_varint(s, 2);  // nranks
  put_varint(s, 1);  // path table: ""
  put_varint(s, 0);
  put_varint(s, 1);  // records
  put_varint(s, rank);
  put_varint(s, zz(10));
  put_varint(s, zz(10));
  put_varint(s, layer | (6u << 3) |
                    (static_cast<std::uint64_t>(Func::stat) << 6));
  put_varint(s, zz(-1));  // fd
  put_varint(s, zz(0));   // ret
  put_varint(s, 0);       // offset
  put_varint(s, 0);       // count
  put_varint(s, zz(0));   // flags
  put_varint(s, 0);       // path slot
  put_varint(s, 0);       // p2p
  put_varint(s, 1);       // collectives
  put_varint(s, kind);
  put_varint(s, zz(root));
  put_varint(s, 1);  // arrivals
  put_varint(s, arrival);
  put_varint(s, zz(30));
  put_varint(s, zz(10));
  return s;
}

TEST(HostileInput, V1RejectsBadRanksLayersAndCollectives) {
  const auto decode = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return read_binary(is);
  };
  const auto barrier = static_cast<std::uint8_t>(CollectiveKind::Barrier);
  const auto bcast = static_cast<std::uint8_t>(CollectiveKind::Bcast);
  const auto ok = decode_comm(decode(v1_stream(1, 0, bcast, 1, 0)).comm, 2);
  ASSERT_EQ(ok.collectives.size(), 1u);
  EXPECT_EQ(ok.collectives[0].root, 1);
  (void)decode(v1_stream(0, 0, barrier, kNoRank, 1));  // rootless: no root

  EXPECT_THROW(decode(v1_stream(2, 0, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(-1, 0, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 7, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, barrier, kNoRank, 5)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, barrier, kNoRank, -1)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, 8, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, bcast, 2, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, bcast, kNoRank, 0)), Error);
  // Three arrivals in a two-rank job: v1 applies the arrival-count bound
  // of the compact decoders too.
  auto crowded = v1_stream(0, 0, barrier, kNoRank, 0);
  const std::size_t arrival_bytes = sizeof(Rank) + 2 * sizeof(SimTime);
  crowded[crowded.size() - arrival_bytes - sizeof(std::uint32_t)] = 3;
  for (const Rank r : {1, 0}) {
    put_le(crowded, r);
    put_le<SimTime>(crowded, 30);
    put_le<SimTime>(crowded, 40);
  }
  EXPECT_THROW(decode(crowded), Error);
}

TEST(HostileInput, V2RejectsBadLayersAndCollectives) {
  const auto decode = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return read_compact(is);
  };
  const auto barrier = static_cast<std::uint64_t>(CollectiveKind::Barrier);
  const auto reduce = static_cast<std::uint64_t>(CollectiveKind::Reduce);
  const auto ok = decode_comm(decode(v2_stream(1, 0, reduce, 0, 1)).comm, 2);
  ASSERT_EQ(ok.collectives.size(), 1u);
  EXPECT_EQ(ok.collectives[0].kind, CollectiveKind::Reduce);
  (void)decode(v2_stream(0, 0, barrier, kNoRank, 1));

  EXPECT_THROW(decode(v2_stream(2, 0, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v2_stream(0, 7, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v2_stream(0, 0, barrier, kNoRank, 5)), Error);
  EXPECT_THROW(decode(v2_stream(0, 0, barrier, kNoRank,
                                std::uint64_t{1} << 32)),
               Error);
  EXPECT_THROW(decode(v2_stream(0, 0, 8, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v2_stream(0, 0, std::uint64_t{1} << 33, kNoRank, 0)),
               Error);
  EXPECT_THROW(decode(v2_stream(0, 0, reduce, 3, 0)), Error);
}

TEST(HostileInput, ChunkStreamRejectsBadLayer) {
  // One chunk of one pathless record, then an empty trailer.
  const auto stream = [](std::uint64_t layer) {
    std::string s("PFSEMCK1", 8);
    put_varint(s, 1);  // nranks
    s.push_back('C');
    put_varint(s, 0);  // base seq
    put_varint(s, 1);  // records
    put_varint(s, 0);  // rank
    put_varint(s, zz(10));
    put_varint(s, zz(10));
    put_varint(s, layer | (6u << 3) |
                      (static_cast<std::uint64_t>(Func::stat) << 6));
    put_varint(s, zz(-1));  // fd
    put_varint(s, zz(0));   // ret
    put_varint(s, 0);       // offset
    put_varint(s, 0);       // count
    put_varint(s, zz(0));   // flags
    put_varint(s, 0);       // no file
    s.push_back('T');
    put_varint(s, 1);  // records
    put_varint(s, 0);  // paths
    put_varint(s, 0);  // p2p
    put_varint(s, 0);  // collectives
    return s;
  };
  EXPECT_EQ(decode_chunks(stream(0)).records.size(), 1u);
  EXPECT_THROW((void)decode_chunks(stream(7)), Error);
}

/// Raw varints of every int32 field a v2 stream or a chunk stream carries:
/// one record's fd and flags, one p2p message's src, dst and tag, and a
/// bcast's root. The defaults decode (nranks 2).
struct Int32Fields {
  std::uint64_t fd = zz(3);
  std::uint64_t flags = zz(0);
  std::uint64_t src = 0;
  std::uint64_t dst = 1;
  std::uint64_t tag = zz(-7);
  std::uint64_t root = zz(1);
};

/// 2^32 + 1: a plain cast to int32 reads it as 1, a valid rank.
constexpr std::int64_t kWrapsToOne = (std::int64_t{1} << 32) + 1;

/// Every way to set one Int32Fields field to a value that does not fit
/// int32, or (src/dst) to a rank outside [0, 2).
std::vector<std::pair<const char*, Int32Fields>> int32_misfits() {
  std::vector<std::pair<const char*, Int32Fields>> out;
  const auto add = [&](const char* what, std::uint64_t Int32Fields::*field,
                       std::uint64_t v) {
    Int32Fields f;
    f.*field = v;
    out.emplace_back(what, f);
  };
  for (const std::int64_t v : {kWrapsToOne, -kWrapsToOne,
                               std::int64_t{INT32_MAX} + 1,
                               std::int64_t{INT32_MIN} - 1}) {
    add("fd", &Int32Fields::fd, zz(v));
    add("flags", &Int32Fields::flags, zz(v));
    add("tag", &Int32Fields::tag, zz(v));
    add("root", &Int32Fields::root, zz(v));
  }
  add("src", &Int32Fields::src, static_cast<std::uint64_t>(kWrapsToOne));
  add("dst", &Int32Fields::dst, static_cast<std::uint64_t>(kWrapsToOne));
  add("src", &Int32Fields::src, 2);
  add("dst", &Int32Fields::dst, 2);
  add("src", &Int32Fields::src, static_cast<std::uint64_t>(-1));
  return out;
}

/// One pathless stat record with `f`'s fd and flags, compact-v2 style.
void put_int32_record(std::string& s, const Int32Fields& f) {
  put_varint(s, 0);  // rank
  put_varint(s, zz(10));
  put_varint(s, zz(10));
  put_varint(s, 0 | (6u << 3) | (static_cast<std::uint64_t>(Func::stat) << 6));
  put_varint(s, f.fd);
  put_varint(s, zz(0));  // ret
  put_varint(s, 0);      // offset
  put_varint(s, 0);      // count
  put_varint(s, f.flags);
}

/// The comm log: one p2p message and one bcast with `f`'s fields.
void put_int32_comm(std::string& s, const Int32Fields& f) {
  put_varint(s, 1);  // p2p
  put_varint(s, f.src);
  put_varint(s, f.dst);
  put_varint(s, f.tag);
  put_varint(s, 64);  // bytes
  put_varint(s, zz(5));
  put_varint(s, zz(1));
  put_varint(s, zz(0));
  put_varint(s, zz(2));
  put_varint(s, 1);  // collectives
  put_varint(s, static_cast<std::uint64_t>(CollectiveKind::Bcast));
  put_varint(s, f.root);
  put_varint(s, 2);  // arrivals
  for (std::uint64_t r = 0; r < 2; ++r) {
    put_varint(s, r);
    put_varint(s, zz(30));
    put_varint(s, zz(10));
  }
}

std::string v2_int32_stream(const Int32Fields& f) {
  std::string s("PFSEMTR2", 8);
  put_varint(s, 2);  // nranks
  put_varint(s, 1);  // path table: ""
  put_varint(s, 0);
  put_varint(s, 1);  // records
  put_int32_record(s, f);
  put_varint(s, 0);  // path slot
  put_int32_comm(s, f);
  return s;
}

std::string chunk_int32_stream(const Int32Fields& f) {
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  s.push_back('C');
  put_varint(s, 0);  // base seq
  put_varint(s, 1);  // records
  put_int32_record(s, f);
  put_varint(s, 0);  // no file
  s.push_back('T');
  put_varint(s, 1);  // records
  put_varint(s, 0);  // paths
  put_int32_comm(s, f);
  return s;
}

TEST(HostileInput, V2RejectsInt32FieldsThatDoNotFit) {
  const auto decode = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return read_compact(is);
  };
  const auto ok = decode(v2_int32_stream({}));
  EXPECT_EQ(ok.records.at(0).fd, 3);
  const auto comm = decode_comm(ok.comm, ok.nranks);
  ASSERT_EQ(comm.p2p.size(), 1u);
  EXPECT_EQ(comm.p2p[0].tag, -7);
  EXPECT_EQ(comm.collectives.at(0).root, 1);
  for (const auto& [what, f] : int32_misfits()) {
    EXPECT_THROW((void)decode(v2_int32_stream(f)), Error) << what;
  }
}

TEST(HostileInput, ChunkRecordsAndTrailerRejectInt32FieldsThatDoNotFit) {
  const auto ok = decode_chunks(chunk_int32_stream({}));
  EXPECT_EQ(ok.records.at(0).fd, 3);
  const auto comm = decode_comm(ok.comm, ok.nranks);
  ASSERT_EQ(comm.p2p.size(), 1u);
  EXPECT_EQ(comm.p2p[0].dst, 1);
  for (const auto& [what, f] : int32_misfits()) {
    // Record fields throw from next(), comm fields from read_trailer(),
    // whether or not the caller keeps the comm log.
    EXPECT_THROW((void)decode_chunks(chunk_int32_stream(f)), Error) << what;
    std::istringstream is(chunk_int32_stream(f));
    EXPECT_THROW(
        {
          ChunkReader reader(is);
          Record rec;
          while (reader.next(rec)) {
          }
          reader.read_trailer();
        },
        Error)
        << what;
  }
}

TEST(HostileInput, V1RejectsP2PRanksOutOfRange) {
  const auto stream = [](Rank src, Rank dst) {
    std::string s("PFSEMTRC", 8);
    put_le<std::uint32_t>(s, 1);  // version
    put_le<std::int32_t>(s, 2);   // nranks
    put_le<std::uint64_t>(s, 0);  // records
    put_le<std::uint64_t>(s, 1);  // p2p
    put_le(s, src);
    put_le(s, dst);
    put_le<std::int32_t>(s, 7);   // tag
    put_le<std::uint64_t>(s, 64);  // bytes
    for (const SimTime t : {5, 6, 5, 8}) put_le(s, t);
    put_le<std::uint64_t>(s, 0);  // collectives
    return s;
  };
  const auto decode = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return read_binary(is);
  };
  EXPECT_EQ(decode_comm(decode(stream(1, 0)).comm, 2).p2p.at(0).src, 1);
  EXPECT_THROW((void)decode(stream(2, 0)), Error);
  EXPECT_THROW((void)decode(stream(0, -1)), Error);
}

// --- bounded allocation on hostile counts ------------------------------

/// Bytes requested from operator new while `fn` runs.
std::size_t bytes_allocated_by(const std::function<void()>& fn) {
  const auto before = g_allocated_bytes.load();
  fn();
  return g_allocated_bytes.load() - before;
}

TEST(BoundedAllocation, HugeClaimedCountsFailWithoutLargeAllocations) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  constexpr std::size_t kLimit = std::size_t{1} << 20;
  struct Case {
    const char* what;
    std::string bytes;
    std::function<void(std::istream&)> decode;
  };
  const auto compact = [](std::istream& is) { (void)read_compact(is); };
  const auto chunks = [](std::istream& is) { (void)decode_chunks(is); };
  const auto binary = [](std::istream& is) { (void)read_binary(is); };
  const auto v2_header = [](std::uint64_t npaths) {
    std::string s("PFSEMTR2", 8);
    put_varint(s, 1);  // nranks
    put_varint(s, npaths);
    return s;
  };
  std::vector<Case> cases;
  cases.push_back({"compact records", v2_header(0), compact});
  put_varint(cases.back().bytes, kHuge);
  cases.push_back({"compact p2p events", v2_header(0), compact});
  put_varint(cases.back().bytes, 0);  // records
  put_varint(cases.back().bytes, kHuge);
  cases.push_back({"compact path bytes", v2_header(1), compact});
  put_varint(cases.back().bytes, kHuge);
  // The largest length the decoder accepts, backed by three bytes.
  cases.push_back({"compact path bytes at the cap", v2_header(1), compact});
  put_varint(cases.back().bytes, 1u << 20);
  cases.back().bytes += "abc";
  cases.push_back({"chunk trailer p2p events", "PFSEMCK1", chunks});
  put_varint(cases.back().bytes, 1);  // nranks
  cases.back().bytes.push_back('T');
  put_varint(cases.back().bytes, 0);  // records
  put_varint(cases.back().bytes, 0);  // paths
  put_varint(cases.back().bytes, kHuge);
  cases.push_back({"v1 records", "PFSEMTRC", binary});
  put_le<std::uint32_t>(cases.back().bytes, 1);  // version
  put_le<std::int32_t>(cases.back().bytes, 1);   // nranks
  put_le<std::uint64_t>(cases.back().bytes, kHuge);
  cases.push_back({"v1 p2p events", "PFSEMTRC", binary});
  put_le<std::uint32_t>(cases.back().bytes, 1);
  put_le<std::int32_t>(cases.back().bytes, 1);
  put_le<std::uint64_t>(cases.back().bytes, 0);  // records
  put_le<std::uint64_t>(cases.back().bytes, kHuge);

  for (const auto& c : cases) {
    ASSERT_LE(c.bytes.size(), 32u) << c.what;
    std::istringstream is(c.bytes);
    const auto allocated = bytes_allocated_by(
        [&] { EXPECT_THROW(c.decode(is), Error) << c.what; });
    EXPECT_LT(allocated, kLimit) << c.what;
  }
}

TEST(BoundedAllocation, V1PathGrowsByBytesRead) {
  // v1 stores each record's path inline behind fixed-width fields, so
  // its header cannot be this short; a path claiming the largest length
  // the decoder accepts, backed by three bytes, must still fail cheaply.
  std::string s("PFSEMTRC", 8);
  put_le<std::uint32_t>(s, 1);  // version
  put_le<std::int32_t>(s, 1);   // nranks
  put_le<std::uint64_t>(s, 1);  // records
  s.append(56, '\0');           // fixed-width fields of one pathless open
  put_le<std::uint32_t>(s, 1u << 20);
  s += "abc";
  std::istringstream is(s);
  const auto allocated = bytes_allocated_by(
      [&] { EXPECT_THROW((void)read_binary(is), Error); });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

}  // namespace
}  // namespace pfsem::trace
