// Unit tests for the trace layer: record metadata, clock-skew application
// in the collector, binary round-tripping, and the metadata census.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/metadata_census.hpp"
#include "pfsem/trace/collector.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::trace {
namespace {

TEST(Record, CommitFuncSet) {
  EXPECT_TRUE(is_commit_func(Func::fsync));
  EXPECT_TRUE(is_commit_func(Func::fdatasync));
  EXPECT_TRUE(is_commit_func(Func::fflush));
  EXPECT_TRUE(is_commit_func(Func::close));
  EXPECT_TRUE(is_commit_func(Func::fclose));
  EXPECT_FALSE(is_commit_func(Func::write));
  EXPECT_FALSE(is_commit_func(Func::open));
  EXPECT_FALSE(is_commit_func(Func::lseek));
}

TEST(Record, MetadataFuncSetMatchesPaperFootnote) {
  // Spot-check the monitored set of Section 6.4 footnote 3.
  for (Func f : {Func::stat, Func::lstat, Func::fstat, Func::getcwd,
                 Func::mkdir, Func::unlink, Func::rename, Func::chmod,
                 Func::access, Func::ftruncate, Func::dup, Func::umask}) {
    EXPECT_TRUE(is_metadata_func(f)) << to_string(f);
  }
  for (Func f : {Func::read, Func::write, Func::pread, Func::pwrite,
                 Func::open, Func::close, Func::fsync, Func::h5dwrite,
                 Func::mpi_file_open}) {
    EXPECT_FALSE(is_metadata_func(f)) << to_string(f);
  }
}

TEST(Record, NamesRoundTrip) {
  EXPECT_EQ(to_string(Func::pwrite), "pwrite");
  EXPECT_EQ(to_string(Func::h5fflush), "h5fflush");
  EXPECT_EQ(to_string(Func::mpi_file_write_at_all), "mpi_file_write_at_all");
  EXPECT_EQ(to_string(Layer::Posix), "POSIX");
  EXPECT_EQ(to_string(Layer::MpiIo), "MPI-IO");
  EXPECT_EQ(to_string(Layer::Hdf5), "HDF5");
}

TEST(PathTable, AliasSharesTheSlotWithoutGrowingTheTable) {
  PathTable t;
  const FileId a = t.intern("old-name");
  EXPECT_EQ(t.alias("new-name", a), a);
  EXPECT_EQ(t.size(), 1u) << "an alias must not mint a new slot";
  EXPECT_EQ(t.find("new-name"), a);
  EXPECT_EQ(t.view(a), "old-name") << "the dense table keeps the first name";
  // Interning the alias later resolves to the existing id.
  EXPECT_EQ(t.intern("new-name"), a);
  // Aliasing an already-interned name is a no-op returning its own id.
  const FileId b = t.intern("other");
  EXPECT_EQ(t.alias("other", a), b);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Collector, InternRenameKeepsOneFileIdentity) {
  Collector c(1);
  const FileId before = c.intern("ckpt.tmp");
  const FileId renamed = c.intern_rename("ckpt.tmp", "ckpt");
  EXPECT_EQ(renamed, before) << "the rename record rides the source's id";
  // A later open of the new name continues the same file's history.
  EXPECT_EQ(c.intern("ckpt"), before);
  const auto bundle = c.take();
  EXPECT_EQ(bundle.paths.size(), 1u)
      << "no composite 'from -> to' slot, no slot for the new name";
}

TEST(Collector, AppliesPerRankClockSkew) {
  std::vector<sim::ClockModel> clocks(2);
  clocks[1].offset = 5000;
  Collector c(2, clocks);
  Record r0;
  r0.rank = 0;
  r0.tstart = 100;
  r0.tend = 200;
  c.emit(r0);
  Record r1 = r0;
  r1.rank = 1;
  c.emit(r1);
  EXPECT_EQ(c.bundle().records[0].tstart, 100);
  EXPECT_EQ(c.bundle().records[1].tstart, 5100);
  EXPECT_EQ(c.bundle().records[1].tend, 5200);
}

TEST(Collector, RejectsBadRank) {
  Collector c(2);
  Record r;
  r.rank = 7;
  EXPECT_THROW(c.emit(r), Error);
}

TEST(Collector, CommEventsGetLocalClocks) {
  std::vector<sim::ClockModel> clocks(2);
  clocks[1].offset = -300;
  Collector c(2, clocks);
  P2PEvent e;
  e.src = 0;
  e.dst = 1;
  e.t_send_start = 1000;
  e.t_send_end = 1100;
  e.t_recv_start = 1000;
  e.t_recv_end = 1200;
  c.emit_p2p(e);
  const auto comm = decode_comm(c.bundle().comm, 2);
  const auto& got = comm.p2p.at(0);
  EXPECT_EQ(got.t_send_start, 1000);
  EXPECT_EQ(got.t_recv_end, 900) << "receiver timestamps use its own clock";
}

TraceBundle sample_bundle() {
  Collector c(4);
  for (int i = 0; i < 10; ++i) {
    Record r;
    r.rank = i % 4;
    r.tstart = i * 100;
    r.tend = i * 100 + 50;
    r.layer = i % 2 ? Layer::Posix : Layer::Hdf5;
    r.origin = Layer::App;
    r.func = i % 2 ? Func::pwrite : Func::h5dwrite;
    r.fd = 3 + i;
    r.ret = 4096;
    r.offset = static_cast<Offset>(i) * 4096;
    r.count = 4096;
    r.file = c.intern("file_" + std::to_string(i % 3));
    c.emit(std::move(r));
  }
  c.emit_p2p({0, 1, 7, 128, 10, 20, 15, 30});
  CollectiveEvent ev;
  ev.kind = CollectiveKind::Allreduce;
  ev.root = kNoRank;
  ev.arrivals = {{0, 5, 9}, {1, 6, 9}, {2, 4, 9}, {3, 5, 9}};
  c.emit_collective(std::move(ev));
  return c.take();
}

TEST(Serialize, BinaryRoundTripPreservesEverything) {
  const auto original = sample_bundle();
  std::stringstream ss;
  write_binary(original, ss);
  const auto copy = read_binary(ss);

  ASSERT_EQ(copy.nranks, original.nranks);
  ASSERT_EQ(copy.records.size(), original.records.size());
  for (std::size_t i = 0; i < copy.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = copy.records[i];
    EXPECT_EQ(a.tstart, b.tstart);
    EXPECT_EQ(a.tend, b.tend);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.func, b.func);
    EXPECT_EQ(a.fd, b.fd);
    EXPECT_EQ(a.ret, b.ret);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(original.path_of(a), copy.path_of(b));
  }
  EXPECT_EQ(copy.comm, original.comm);
  const auto comm = decode_comm(copy.comm, copy.nranks);
  ASSERT_EQ(comm.p2p.size(), 1u);
  EXPECT_EQ(comm.p2p[0].tag, 7);
  ASSERT_EQ(comm.collectives.size(), 1u);
  EXPECT_EQ(comm.collectives[0].kind, CollectiveKind::Allreduce);
  EXPECT_EQ(comm.collectives[0].arrivals.size(), 4u);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTATRACE-having-some-length-anyway";
  EXPECT_THROW(read_binary(ss), Error);
}

TEST(Serialize, RejectsTruncatedStream) {
  const auto original = sample_bundle();
  std::stringstream ss;
  write_binary(original, ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_THROW(read_binary(half), Error);
}

TEST(Serialize, TextDumpMentionsRecords) {
  const auto original = sample_bundle();
  std::ostringstream os;
  write_text(original, os);
  EXPECT_NE(os.str().find("pwrite"), std::string::npos);
  EXPECT_NE(os.str().find("h5dwrite"), std::string::npos);
  EXPECT_NE(os.str().find("file_1"), std::string::npos);
}

TEST(Serialize, EmptyBundleRoundTrips) {
  TraceBundle b;
  b.nranks = 1;
  std::stringstream ss;
  write_binary(b, ss);
  const auto copy = read_binary(ss);
  EXPECT_EQ(copy.nranks, 1);
  EXPECT_TRUE(copy.records.empty());
}

TEST(Census, CountsPerFuncAndOrigin) {
  Collector c(2);
  auto meta = [&](Func f, Layer origin, Rank rank) {
    Record r;
    r.rank = rank;
    r.layer = Layer::Posix;
    r.origin = origin;
    r.func = f;
    c.emit(std::move(r));
  };
  meta(Func::stat, Layer::MpiIo, 0);
  meta(Func::stat, Layer::MpiIo, 1);
  meta(Func::lstat, Layer::Hdf5, 0);
  meta(Func::getcwd, Layer::App, 0);
  // Data ops and non-POSIX layers must not be counted.
  Record w;
  w.rank = 0;
  w.layer = Layer::Posix;
  w.func = Func::write;
  c.emit(std::move(w));
  Record h;
  h.rank = 0;
  h.layer = Layer::Hdf5;
  h.func = Func::h5dcreate;
  c.emit(std::move(h));

  const auto census = core::census_metadata(c.bundle());
  EXPECT_EQ(census.distinct_ops(), 3u);
  EXPECT_EQ(census.total(Func::stat), 2u);
  EXPECT_EQ(census.total(Func::lstat), 1u);
  EXPECT_EQ(census.total(Func::rename), 0u);
  EXPECT_TRUE(census.usage.at(Func::stat).contains(Layer::MpiIo));
  EXPECT_FALSE(census.used(Func::write));
}

TEST(Census, MonitoredListMatchesPredicate) {
  for (Func f : core::monitored_metadata_funcs()) {
    EXPECT_TRUE(is_metadata_func(f)) << to_string(f);
  }
  EXPECT_EQ(core::monitored_metadata_funcs().size(), 34u);
}

TEST(Bundle, RankRecordsFilters) {
  const auto b = sample_bundle();
  const auto r2 = b.rank_records(2);
  for (const auto& rec : r2) EXPECT_EQ(rec.rank, 2);
  std::size_t total = 0;
  for (Rank r = 0; r < 4; ++r) total += b.rank_records(r).size();
  EXPECT_EQ(total, b.records.size());
}


TEST(Compact, RoundTripPreservesEverything) {
  const auto original = sample_bundle();
  std::stringstream ss;
  write_compact(original, ss);
  const auto copy = read_compact(ss);
  ASSERT_EQ(copy.nranks, original.nranks);
  ASSERT_EQ(copy.records.size(), original.records.size());
  for (std::size_t i = 0; i < copy.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = copy.records[i];
    EXPECT_EQ(a.tstart, b.tstart);
    EXPECT_EQ(a.tend, b.tend);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.func, b.func);
    EXPECT_EQ(a.fd, b.fd);
    EXPECT_EQ(a.ret, b.ret);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(original.path_of(a), copy.path_of(b));
  }
  EXPECT_EQ(copy.comm, original.comm);
  const auto comm = decode_comm(copy.comm, copy.nranks);
  ASSERT_EQ(comm.p2p.size(), 1u);
  ASSERT_EQ(comm.collectives.size(), 1u);
  EXPECT_EQ(comm.collectives[0].arrivals.size(), 4u);
}

TEST(Compact, NegativeAndExtremeFieldsSurvive) {
  Collector c(2);
  Record r;
  r.rank = 1;
  r.tstart = -5;  // pre-normalization timestamps can be negative
  r.tend = -1;
  r.func = Func::lseek;
  r.fd = -1;
  r.ret = -1;
  r.offset = std::numeric_limits<Offset>::max() / 2;
  r.flags = -7;
  c.emit(r);
  const auto original = c.take();
  std::stringstream ss;
  write_compact(original, ss);
  const auto copy = read_compact(ss);
  EXPECT_EQ(copy.records[0].tstart, -5);
  EXPECT_EQ(copy.records[0].ret, -1);
  EXPECT_EQ(copy.records[0].offset, original.records[0].offset);
  EXPECT_EQ(copy.records[0].flags, -7);
}

TEST(Compact, RejectsBadMagicAndTruncation) {
  std::stringstream bad("NOTATRACE-at-all-really");
  EXPECT_THROW(read_compact(bad), Error);
  const auto original = sample_bundle();
  std::stringstream ss;
  write_compact(original, ss);
  std::string data = ss.str();
  data.resize(data.size() / 3);
  std::stringstream half(data);
  EXPECT_THROW(read_compact(half), Error);
}

// Failure injection: corrupt single bytes all over a valid stream; the
// reader must either succeed or throw pfsem::Error — never crash or hang.
TEST(Compact, FuzzSingleByteCorruption) {
  const auto original = sample_bundle();
  std::stringstream ss;
  write_compact(original, ss);
  const std::string good = ss.str();
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    const auto pos = rng.below(bad.size());
    bad[pos] = static_cast<char>(rng.below(256));
    std::stringstream in(bad);
    try {
      (void)read_compact(in);
    } catch (const Error&) {
      // acceptable: detected corruption
    }
  }
  SUCCEED();
}

TEST(Compact, FuzzBinaryFormatToo) {
  const auto original = sample_bundle();
  std::stringstream ss;
  write_binary(original, ss);
  const std::string good = ss.str();
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    const auto pos = rng.below(bad.size());
    bad[pos] = static_cast<char>(rng.below(256));
    std::stringstream in(bad);
    try {
      (void)read_binary(in);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}


TEST(Compact, SubstantiallySmallerOnRealTraces) {
  apps::AppConfig cfg;
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  const auto bundle = apps::run_app(*apps::find_app("FLASH-fbs"), cfg);
  std::stringstream fixed, compact;
  write_binary(bundle, fixed);
  write_compact(bundle, compact);
  const auto fixed_size = fixed.str().size();
  const auto compact_size = compact.str().size();
  EXPECT_LT(compact_size * 3, fixed_size)
      << "compact=" << compact_size << " fixed=" << fixed_size
      << " — regular HPC traces should compress at least 3x";
  // And it still round-trips to an identical analysis input.
  const auto copy = read_compact(compact);
  EXPECT_EQ(copy.records.size(), bundle.records.size());
  EXPECT_EQ(copy.comm, bundle.comm);
}

}  // namespace
}  // namespace pfsem::trace
