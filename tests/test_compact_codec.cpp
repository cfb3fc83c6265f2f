// Robustness tests for the trace codec, plus its on-disk fixture. The one
// format pfsem reads and writes is the PFSEMCK2 chunk stream: a hand-made
// fixture pins its writer byte for byte, and these tests pin its
// behaviour at the integer extremes and on malformed input (truncation,
// tail offsets, budget sections, hostile fields and counts, single-byte
// corruption, the magics of older formats).

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

#include "pfsem/apps/driver.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/rng.hpp"

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

/// The producer/consumer trace the chunk fixture encodes: rank 0
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
  const auto copy = read_chunks(ss);
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

TEST(CompactCodec, EmptyPathTableRoundTrips) {
  // A bundle whose records never name a file (pathless metadata ops) has
  // an empty table, and its records decode back to kNoFile.
  TraceBundle b;
  b.nranks = 1;
  b.records.push_back(
      make_record(0, 10, 11, Func::umask, -1, 0, 0, 0, 022, kNoFile));
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_chunks(ss);
  EXPECT_EQ(copy.paths.size(), 0u);
  ASSERT_EQ(copy.records.size(), 1u);
  EXPECT_EQ(copy.records[0].file, kNoFile);
  EXPECT_EQ(copy.path_of(copy.records[0]), "");
}

TEST(CompactCodec, EmptyBundleRoundTrips) {
  TraceBundle b;
  b.nranks = 4;
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_chunks(ss);
  EXPECT_EQ(copy.nranks, 4);
  EXPECT_TRUE(copy.records.empty());
  EXPECT_EQ(copy.comm, EncodedCommLog{});
}

/// The report text of the materialized pipeline over `b`.
std::string report_of(const TraceBundle& b) {
  const auto log = core::reconstruct_accesses(b);
  const auto pairs = core::detect_file_overlaps(log, {}, 1);
  const auto conflicts = core::detect_conflicts(log, pairs, {.threads = 1});
  std::ostringstream os;
  core::print_report(core::build_report(b, log, conflicts, 1), os);
  return os.str();
}

/// The report text of the one-pass stream drain over chunk-stream bytes.
std::string drained_report(const std::string& bytes) {
  std::istringstream is(bytes);
  auto res = apps::drain(is, nullptr);
  std::ostringstream os;
  core::print_report(core::assemble_windowed_report(std::move(res.stats),
                                                    res.records, res.nranks,
                                                    res.summaries),
                     os);
  return os.str();
}

// --- the chunk stream (PFSEMCK2) ---------------------------------------

/// The message of the pfsem::Error `fn` throws, or "" if it throws none.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}


/// A hand-made chunk stream's trailer (spill.hpp lists the layout).
struct Trailer {
  std::uint64_t records = 0;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> rank_budgets;  ///< one per rank
  std::vector<std::uint64_t> file_budgets;  ///< one per path
  std::string comm = std::string(2, '\0');  ///< no p2p, no collectives
};

/// Append `t` and the tail naming it to the header and chunks in `s`.
void close_stream(std::string& s, const Trailer& t) {
  const std::uint64_t at = s.size();
  s.push_back('T');
  put_varint(s, t.records);
  put_varint(s, t.paths.size());
  for (const auto& p : t.paths) {
    put_varint(s, p.size());
    s += p;
  }
  put_varint(s, t.rank_budgets.size());
  for (const auto v : t.rank_budgets) put_varint(s, v);
  put_varint(s, t.file_budgets.size());
  for (const auto v : t.file_budgets) put_varint(s, v);
  s += t.comm;
  put_le<std::uint64_t>(s, at);
}

/// The trailer of reference_bundle(): six Posix records, three per rank,
/// two of them (the opens) naming "shared".
Trailer reference_trailer() {
  return {6, {"shared"}, {3, 3}, {2}};
}

/// Byte-for-byte what the chunk writer produces for reference_bundle(),
/// with trailer `t` and `splice` inserted before it: pinned independently
/// so the on-disk framing can never drift without this fixture failing.
/// The six records fit one chunk; the file field is 0 for kNoFile and
/// id+1 otherwise.
std::string chunk_fixture_with(const Trailer& t, std::string_view splice) {
  std::string s("PFSEMCK2", 8);
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
  s.push_back('C');  // chunk at seq 0, 6 records
  put_varint(s, 0);
  put_varint(s, 6);
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, 1);
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, 0);
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, 0);
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, 1);
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, 0);
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, 0);
  s += splice;
  close_stream(s, t);
  return s;
}

std::string chunk_fixture() {
  return chunk_fixture_with(reference_trailer(), {});
}

TraceBundle decode_chunks(std::istream& is) { return read_chunks(is); }

TraceBundle decode_chunks(const std::string& bytes) {
  std::istringstream is(bytes);
  return read_chunks(is);
}

/// read_index over `bytes`, which must then throw or describe them.
TraceIndex index_of(const std::string& bytes) {
  std::istringstream is(bytes);
  return read_index(is);
}

TEST(ChunkStream, WriterMatchesHandCraftedFixtureExactly) {
  // Two batches of three records frame as one chunk: the bytes do not
  // depend on how the collector batched them.
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
  std::ostringstream os;
  write_compact(b, os);
  ASSERT_EQ(os.str(), chunk_fixture());
}

TEST(ChunkStream, FixtureDecodesAndAnalysesIdentically) {
  const auto loaded = decode_chunks(chunk_fixture());
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
  const auto index = index_of(chunk_fixture());
  EXPECT_EQ(index.nranks, 2);
  EXPECT_EQ(index.records, 6u);
  EXPECT_EQ(index.npaths, 1u);
  EXPECT_EQ(index.paths.view(0), "shared");
  EXPECT_EQ(index.rank_posix_counts, (std::vector<std::uint64_t>{3, 3}));
  EXPECT_EQ(index.file_posix_counts, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(index.trailer_offset, chunk_fixture().size() - 8 - 17);
  EXPECT_EQ(drained_report(chunk_fixture()), report_of(reference_bundle()));
}

TEST(ChunkStream, EveryTruncationThrows) {
  const std::string full = chunk_fixture();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string cut = full.substr(0, len);
    EXPECT_THROW((void)decode_chunks(cut), Error) << "prefix length " << len;
    EXPECT_THROW((void)index_of(cut), Error) << "prefix length " << len;
    EXPECT_THROW((void)drained_report(cut), Error) << "prefix length " << len;
  }
  EXPECT_THROW((void)decode_chunks(full + "x"), Error) << "trailing byte";
}

TEST(ChunkStream, TailMustPointAtTheTrailer) {
  // A tail past the end, inside the header or a chunk, or on any byte
  // that is not the trailer's 'T' is rejected by both readers: the
  // index reader on its own, the record replay when it reaches the real
  // trailer somewhere else.
  const std::string good = chunk_fixture();
  const std::uint64_t real = index_of(good).trailer_offset;
  ASSERT_EQ(good[real], 'T');
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t at = 0; at < good.size() + 3; ++at) {
    if (at != real) offsets.push_back(at);
  }
  offsets.push_back(std::uint64_t{1} << 63);
  offsets.push_back(~std::uint64_t{0});
  // A 'T' inside a chunk: the first record's count field is 84 == 'T'.
  auto inner = reference_bundle();
  inner.records[1].count = 'T';
  inner.records[1].ret = 'T';
  std::ostringstream os;
  write_compact(inner, os);
  for (const auto& [base, name] :
       {std::pair{good, "fixture"}, std::pair{os.str(), "'T' in a chunk"}}) {
    const std::uint64_t trailer = index_of(base).trailer_offset;
    for (std::uint64_t at = 0; at < base.size() + 3; ++at) {
      if (at == trailer) continue;
      std::string bad = base.substr(0, base.size() - 8);
      put_le<std::uint64_t>(bad, at);
      EXPECT_THROW((void)decode_chunks(bad), Error) << name << " at " << at;
      EXPECT_THROW((void)drained_report(bad), Error) << name << " at " << at;
    }
  }
  for (const auto at : offsets) {
    std::string bad = good.substr(0, good.size() - 8);
    put_le<std::uint64_t>(bad, at);
    EXPECT_THROW((void)index_of(bad), Error) << "at " << at;
  }
}

TEST(ChunkStream, BudgetSectionsMustHaveOneEntryPerRankAndPath) {
  for (const auto& [ranks, files] :
       {std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>{
            {3}, {2}},
        {{3, 3, 0}, {2}},
        {{3, 3}, {}},
        {{3, 3}, {2, 0}}}) {
    auto t = reference_trailer();
    t.rank_budgets = ranks;
    t.file_budgets = files;
    const auto bad = chunk_fixture_with(t, {});
    EXPECT_THROW((void)decode_chunks(bad), Error);
    EXPECT_THROW((void)index_of(bad), Error);
  }
}

TEST(ChunkStream, BudgetOffByOneThrowsOrReportsTheFixture) {
  // The drain retires ranks and files by the trailer's budgets, so a
  // budget edited by one must never change the report: either a check
  // catches it or the analysis comes out the same.
  const std::string want = report_of(reference_bundle());
  const auto base = reference_trailer();
  int edits = 0;
  int thrown = 0;
  for (std::size_t i = 0; i < base.rank_budgets.size() + 1; ++i) {
    for (const int delta : {-1, 1}) {
      auto t = base;
      auto& v = i < base.rank_budgets.size() ? t.rank_budgets[i]
                                             : t.file_budgets[0];
      v = static_cast<std::uint64_t>(static_cast<std::int64_t>(v) + delta);
      ++edits;
      const std::string err = error_of(
          [&] { EXPECT_EQ(drained_report(chunk_fixture_with(t, {})), want); });
      thrown += err.empty() ? 0 : 1;
    }
  }
  EXPECT_EQ(edits, 6);
  EXPECT_EQ(thrown, 5) << "every lowered budget and every raised rank "
                          "budget is caught";
}

TEST(ChunkStream, EmptyChunkTolerated) {
  // A zero-record chunk is valid framing (the writer never writes one,
  // but a reader must not choke on one): 'C' <seq> <0> before the
  // trailer.
  std::string splice(1, 'C');
  put_varint(splice, 6);  // base_seq continues the count
  put_varint(splice, 0);  // zero records
  const auto spliced = chunk_fixture_with(reference_trailer(), splice);
  EXPECT_EQ(analysis_fingerprint(decode_chunks(spliced)),
            analysis_fingerprint(reference_bundle()));
  EXPECT_EQ(drained_report(spliced), report_of(reference_bundle()));
}

TEST(ChunkStream, OutOfOrderChunkRejected) {
  // A chunk whose base_seq does not continue the stream means a lost or
  // reordered chunk; the reader must fail loudly, not mis-merge.
  std::string s("PFSEMCK2", 8);
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
  std::string ck1("PFSEMCK1", 8);
  put_varint(ck1, 2);
  EXPECT_THROW((void)decode_chunks(ck1), Error);
}

TEST(ChunkStream, OlderFormatsNameTheWayToACurrentTrace) {
  // The v1 and compact v2 magics, alone or ahead of more bytes: the
  // whole-trace reader and the one-pass drain both refuse them with the
  // command that writes a current trace.
  for (const char* magic : {"PFSEMTRC", "PFSEMTR2"}) {
    for (const std::string& old :
         {std::string(magic, 8), std::string(magic, 8) + "\x02\x01"}) {
      for (const std::string& what :
           {error_of([&] { (void)decode_chunks(old); }),
            error_of([&] { (void)drained_report(old); })}) {
        EXPECT_NE(what.find(magic), std::string::npos) << what;
        EXPECT_NE(what.find("pfsem trace <config>"), std::string::npos)
            << what;
      }
    }
  }
}

TEST(ChunkStream, TrailerRecordCountMismatchRejected) {
  // Trailer claiming more records than the chunks carried: a truncated
  // middle (whole missing chunk) that per-chunk checks cannot see.
  auto t = reference_trailer();
  t.records = 9;  // the stream carried 6
  const auto bad = chunk_fixture_with(t, {});
  EXPECT_THROW((void)decode_chunks(bad), Error);
  EXPECT_THROW((void)drained_report(bad), Error);
}

/// A chunk stream with no records and a trailer holding one collective
/// (`kind`, `root`, one arrival by each rank in `arrivals`), nranks 2.
std::string chunk_trailer_with_collective(
    std::uint64_t kind, Rank root, const std::vector<std::uint64_t>& arrivals) {
  std::string s("PFSEMCK2", 8);
  put_varint(s, 2);  // nranks
  Trailer t{0, {}, {0, 0}, {}, {}};
  put_varint(t.comm, 0);  // p2p
  put_varint(t.comm, 1);  // collectives
  put_varint(t.comm, kind);
  put_varint(t.comm, zz(root));
  put_varint(t.comm, arrivals.size());
  for (const auto rank : arrivals) {
    put_varint(t.comm, rank);
    put_varint(t.comm, zz(30));
    put_varint(t.comm, zz(10));
  }
  close_stream(s, t);
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
  read(chunk_trailer_with_collective(bcast, 1, {0}), &kept);
  const auto comm = decode_comm(kept, 2);
  ASSERT_EQ(comm.collectives.size(), 1u);
  EXPECT_EQ(comm.collectives[0].root, 1);
  EXPECT_EQ(comm.collectives[0].arrivals.at(0).t_exit, 40);
  read(chunk_trailer_with_collective(bcast, 1, {0}), nullptr);
  const auto barrier = static_cast<std::uint64_t>(CollectiveKind::Barrier);
  read(chunk_trailer_with_collective(barrier, kNoRank, {1, 0}), nullptr);
  for (EncodedCommLog* keep :
       {&kept, static_cast<EncodedCommLog*>(nullptr)}) {
    for (const auto& bad : {
             chunk_trailer_with_collective(8, 1, {0}),
             chunk_trailer_with_collective(std::uint64_t{1} << 33, 1, {0}),
             chunk_trailer_with_collective(bcast, 2, {0}),
             chunk_trailer_with_collective(bcast, kNoRank, {0}),
             chunk_trailer_with_collective(bcast, 1, {2}),
             chunk_trailer_with_collective(bcast, 1, {std::uint64_t{1} << 32}),
             // Three arrivals in a two-rank job.
             chunk_trailer_with_collective(barrier, kNoRank, {0, 1, 0}),
         }) {
      EXPECT_THROW(read(bad, keep), Error);
    }
  }
  // The index reader validates the comm log too.
  EXPECT_THROW((void)index_of(chunk_trailer_with_collective(8, 1, {0})), Error);
}

/// A one-rank chunk stream: one record on `file_plus_1` (0 = no file),
/// then a trailer naming `paths` (zero budgets) and an empty comm log.
std::string chunk_stream_with_paths(std::uint64_t file_plus_1,
                                    const std::vector<std::string>& paths) {
  std::string s("PFSEMCK2", 8);
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
  close_stream(s, {1, paths, {0}, std::vector<std::uint64_t>(paths.size())});
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
  const auto want_chunks = decode_chunks(whole_chunks);
  for (const std::size_t k : {1u, 3u, 7u}) {
    TrickleBuf chunk_buf(chunk_fixture(), k);
    std::istream chunk_in(&chunk_buf);
    const auto chunks = decode_chunks(chunk_in);
    EXPECT_EQ(chunks.records, want_chunks.records) << "k=" << k;
    EXPECT_EQ(analysis_fingerprint(chunks), analysis_fingerprint(want_chunks))
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
  // A chunk stream header whose rank count takes 11 bytes.
  std::string overlong("PFSEMCK2", 8);
  overlong.append(10, static_cast<char>(0x80));
  overlong.push_back(0x01);  // the 11th byte
  // Mid-buffer: plenty of bytes follow, so the unchecked path sees it
  // first and must hand over to the checked one.
  std::istringstream mid(overlong + std::string(64, '\0'));
  EXPECT_NE(error_of([&] { (void)decode_chunks(mid); })
                .find("overlong varint in compact trace"),
            std::string::npos);
  // Stream end, fed 7 bytes at a time: the checked path decodes it
  // across refills with the 11th byte last in the stream.
  TrickleBuf tail_buf(overlong, 7);
  std::istream tail(&tail_buf);
  EXPECT_NE(error_of([&] { (void)decode_chunks(tail); })
                .find("overlong varint in compact trace"),
            std::string::npos);
  // Ten continuation bytes and then nothing is a truncation instead.
  std::istringstream cut(overlong.substr(0, overlong.size() - 1));
  EXPECT_NE(error_of([&] { (void)decode_chunks(cut); })
                .find("truncated compact trace"),
            std::string::npos);
}

// --- hostile ranks, layers and collectives -----------------------------

TEST(HostileInput, ChunkStreamRejectsBadLayer) {
  // One chunk of one pathless record, then an empty trailer. A record
  // rank outside the job is rejected too.
  const auto stream = [](std::uint64_t layer, std::uint64_t rank = 0) {
    std::string s("PFSEMCK2", 8);
    put_varint(s, 1);  // nranks
    s.push_back('C');
    put_varint(s, 0);  // base seq
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
    put_varint(s, 0);       // no file
    close_stream(s, {1, {}, {1}, {}});
    return s;
  };
  EXPECT_EQ(decode_chunks(stream(0)).records.size(), 1u);
  EXPECT_THROW((void)decode_chunks(stream(7)), Error);
  EXPECT_THROW((void)decode_chunks(stream(0, 1)), Error);
  EXPECT_THROW((void)decode_chunks(stream(0, std::uint64_t{1} << 32)), Error);
}

/// Raw varints of every int32 field a chunk stream carries:
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

/// One pathless stat record with `f`'s fd and flags, up to its file.
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

std::string chunk_int32_stream(const Int32Fields& f) {
  std::string s("PFSEMCK2", 8);
  put_varint(s, 2);  // nranks
  s.push_back('C');
  put_varint(s, 0);  // base seq
  put_varint(s, 1);  // records
  put_int32_record(s, f);
  put_varint(s, 0);  // no file
  Trailer t{1, {}, {1, 0}, {}, {}};
  put_int32_comm(t.comm, f);
  close_stream(s, t);
  return s;
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

/// One pathless stat record of rank 0 whose two time deltas are the raw
/// varints `dstart` (from the rank's previous tstart) and `dlen`.
void put_delta_record(std::string& s, std::uint64_t dstart,
                      std::uint64_t dlen) {
  put_varint(s, 0);  // rank
  put_varint(s, dstart);
  put_varint(s, dlen);
  put_varint(s, static_cast<std::uint64_t>(Func::stat) << 6);
  put_varint(s, zz(-1));  // fd
  put_varint(s, zz(0));   // ret
  put_varint(s, 0);       // offset
  put_varint(s, 0);       // count
  put_varint(s, zz(0));   // flags
}

TEST(HostileInput, RecordTimeDeltasThatOverflowDecodeWithoutUB) {
  // Two records whose start and duration deltas are both INT64_MAX: every
  // sum overflows int64. Decoders and writers wrap modulo 2^64 (the
  // sanitizer job turns a signed overflow into a failure), so the times
  // decode to the wrapped values and re-encode to the same bytes.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::string chunk("PFSEMCK2", 8);
  put_varint(chunk, 1);  // nranks
  chunk.push_back('C');
  put_varint(chunk, 0);  // base seq
  put_varint(chunk, 2);  // records
  for (int i = 0; i < 2; ++i) {
    put_delta_record(chunk, zz(kMax), zz(kMax));
    put_varint(chunk, 0);  // no file
  }
  close_stream(chunk, {2, {}, {2}, {}});

  const TraceBundle from_chunks = decode_chunks(chunk);
  ASSERT_EQ(from_chunks.records.size(), 2u);
  EXPECT_EQ(from_chunks.records[0].tstart, kMax);
  EXPECT_EQ(from_chunks.records[0].tend, -2);
  EXPECT_EQ(from_chunks.records[1].tstart, -2);
  EXPECT_EQ(from_chunks.records[1].tend, kMax - 2);
  EXPECT_EQ(from_chunks.records[1].file, kNoFile);
  SpillStore store(1u << 20);
  {
    ChunkWriter writer(store, from_chunks.nranks);
    writer.on_records(0, from_chunks.records);
    StreamMeta meta;
    meta.nranks = from_chunks.nranks;
    meta.records = from_chunks.records.size();
    writer.finish(meta);
  }
  const auto in = store.open_read();
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(*in), {}), chunk);
}

// --- single-byte corruption ---------------------------------------------

/// Set every byte of `good` in turn to several values; `decode` must then
/// succeed or throw pfsem::Error — never crash, hang or trip a sanitizer.
void corrupt_each_byte(const std::string& good,
                       const std::function<void(const std::string&)>& decode) {
  Rng rng(2026);
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    for (int trial = 0; trial < 4; ++trial) {
      std::string bad = good;
      bad[pos] = static_cast<char>(rng.below(256));
      try {
        decode(bad);
      } catch (const Error&) {
        // acceptable: detected corruption
      }
    }
  }
}

TEST(ChunkStream, SingleByteCorruptionThrowsOrDecodes) {
  corrupt_each_byte(chunk_fixture(), [](const std::string& bad) {
    (void)decode_chunks(bad);
  });
  corrupt_each_byte(chunk_fixture(), [](const std::string& bad) {
    (void)drained_report(bad);
  });
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
  };
  std::vector<Case> cases;
  cases.push_back({"chunk records", std::string("PFSEMCK2", 8)});
  put_varint(cases.back().bytes, 1);  // nranks
  cases.back().bytes.push_back('C');
  put_varint(cases.back().bytes, 0);  // base seq
  put_varint(cases.back().bytes, kHuge);
  const auto chunk_trailer = [](std::uint64_t npaths) {
    std::string s("PFSEMCK2", 8);
    put_varint(s, 1);  // nranks
    s.push_back('T');
    put_varint(s, 0);  // records
    put_varint(s, npaths);
    return s;
  };
  cases.push_back({"chunk trailer p2p events", chunk_trailer(0)});
  put_varint(cases.back().bytes, 1);  // rank budgets: one, of zero
  put_varint(cases.back().bytes, 0);
  put_varint(cases.back().bytes, 0);  // file budgets: none
  put_varint(cases.back().bytes, kHuge);
  cases.push_back({"chunk rank budgets", chunk_trailer(0)});
  put_varint(cases.back().bytes, kHuge);
  cases.push_back({"chunk file budgets", chunk_trailer(0)});
  put_varint(cases.back().bytes, 1);
  put_varint(cases.back().bytes, 0);
  put_varint(cases.back().bytes, kHuge);
  // A path-table size backed by nothing, then budget sections claiming
  // the same huge size.
  cases.push_back({"chunk path table", chunk_trailer(1u << 24)});
  cases.push_back({"chunk path bytes", chunk_trailer(1)});
  put_varint(cases.back().bytes, kHuge);
  // The largest length the decoder accepts, backed by three bytes.
  cases.push_back({"chunk path bytes at the cap", chunk_trailer(1)});
  put_varint(cases.back().bytes, 1u << 20);
  cases.back().bytes += "abc";

  for (const auto& c : cases) {
    ASSERT_LE(c.bytes.size(), 32u) << c.what;
    std::istringstream is(c.bytes);
    const auto allocated = bytes_allocated_by(
        [&] { EXPECT_THROW((void)decode_chunks(is), Error) << c.what; });
    EXPECT_LT(allocated, kLimit) << c.what;
  }
}

}  // namespace
}  // namespace pfsem::trace
