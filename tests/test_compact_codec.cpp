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
  EXPECT_TRUE(copy.comm.p2p.empty());
  EXPECT_TRUE(copy.comm.collectives.empty());
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
  auto trailer = reader.read_trailer();
  b.paths = std::move(trailer.paths);
  b.comm = std::move(trailer.comm);
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

/// The message of the pfsem::Error `fn` throws, or "" if it throws none.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

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
  const auto ok = decode(v1_stream(1, 0, bcast, 1, 0));
  ASSERT_EQ(ok.comm.collectives.size(), 1u);
  EXPECT_EQ(ok.comm.collectives[0].root, 1);
  (void)decode(v1_stream(0, 0, barrier, kNoRank, 1));  // rootless: no root

  EXPECT_THROW(decode(v1_stream(2, 0, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(-1, 0, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 7, barrier, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, barrier, kNoRank, 5)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, barrier, kNoRank, -1)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, 8, kNoRank, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, bcast, 2, 0)), Error);
  EXPECT_THROW(decode(v1_stream(0, 0, bcast, kNoRank, 0)), Error);
}

TEST(HostileInput, V2RejectsBadLayersAndCollectives) {
  const auto decode = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return read_compact(is);
  };
  const auto barrier = static_cast<std::uint64_t>(CollectiveKind::Barrier);
  const auto reduce = static_cast<std::uint64_t>(CollectiveKind::Reduce);
  const auto ok = decode(v2_stream(1, 0, reduce, 0, 1));
  ASSERT_EQ(ok.comm.collectives.size(), 1u);
  EXPECT_EQ(ok.comm.collectives[0].kind, CollectiveKind::Reduce);
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
