// Unit tests for the simulated I/O library stack: trace emission and layer
// attribution, MPI-IO collective aggregation, and the per-library metadata
// and conflict signatures the application models rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/iolib/adios_lite.hpp"
#include "pfsem/iolib/hdf5_lite.hpp"
#include "pfsem/iolib/mpi_io.hpp"
#include "pfsem/iolib/netcdf_lite.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/iolib/silo_lite.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::iolib {
namespace {

struct Fixture {
  explicit Fixture(int nranks) : collector(nranks) {
    world.emplace(engine, collector,
                  mpi::WorldConfig{.nranks = nranks, .ranks_per_node = 4});
  }
  IoContext ctx() {
    return {.engine = &engine,
            .world = &world.value(),
            .pfs = &pfs,
            .collector = &collector};
  }

  sim::Engine engine;
  trace::Collector collector;
  vfs::Pfs pfs;
  std::optional<mpi::World> world;
};

std::size_t count_records(const trace::TraceBundle& b, trace::Func f) {
  return static_cast<std::size_t>(
      std::count_if(b.records.begin(), b.records.end(),
                    [f](const trace::Record& r) { return r.func == f; }));
}

TEST(PosixIo, EmitsRecordsWithOriginAndTiming) {
  Fixture f(1);
  PosixIo posix(f.ctx(), trace::Layer::Hdf5);
  auto prog = [&]() -> sim::Task<void> {
    const int fd = co_await posix.open(0, "x", trace::kCreate | trace::kRdWr);
    co_await posix.write(0, fd, 4096);
    co_await posix.close(0, fd);
  };
  f.engine.spawn(prog());
  f.engine.run();
  const auto& recs = f.collector.bundle().records;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].func, trace::Func::open);
  EXPECT_EQ(recs[1].func, trace::Func::write);
  EXPECT_EQ(recs[2].func, trace::Func::close);
  for (const auto& r : recs) {
    EXPECT_EQ(r.layer, trace::Layer::Posix);
    EXPECT_EQ(r.origin, trace::Layer::Hdf5);
    EXPECT_LT(r.tstart, r.tend) << "operations must take simulated time";
  }
  EXPECT_EQ(recs[1].ret, 4096);
  EXPECT_EQ(f.collector.path_view(recs[1].file), "x");
}

TEST(PosixIo, FileOfRejectsEveryKindOfBadFd) {
  Fixture f(2);
  PosixIo posix(f.ctx());
  int first = -1;
  int closed = -1;
  int last = -1;
  auto prog = [&]() -> sim::Task<void> {
    first = co_await posix.open(0, "x", trace::kCreate | trace::kRdWr);
    closed = co_await posix.open(0, "y", trace::kCreate | trace::kRdWr);
    last = co_await posix.open(0, "z", trace::kCreate | trace::kRdWr);
    co_await posix.close(0, closed);
  };
  f.engine.spawn(prog());
  f.engine.run();
  EXPECT_EQ(f.collector.path_view(posix.file_of(0, first)), "x");
  EXPECT_EQ(f.collector.path_view(posix.file_of(0, last)), "z");
  EXPECT_THROW((void)posix.file_of(0, 0), Error);         // never opened
  EXPECT_THROW((void)posix.file_of(0, closed), Error);    // closed
  EXPECT_THROW((void)posix.file_of(0, -1), Error);        // negative
  EXPECT_THROW((void)posix.file_of(0, last + 1), Error);  // above any fd
  EXPECT_THROW((void)posix.file_of(0, 1 << 30), Error);
  EXPECT_THROW((void)posix.file_of(1, first), Error);     // another rank's
  EXPECT_THROW((void)posix.file_of(5000, first), Error);  // unknown rank
  EXPECT_THROW((void)posix.file_of(-1, first), Error);
}

TEST(PosixIo, SimulatedTimeAdvancesWithCost) {
  Fixture f(1);
  PosixIo posix(f.ctx());
  auto prog = [&]() -> sim::Task<void> {
    const int fd = co_await posix.open(0, "x", trace::kCreate | trace::kWrOnly);
    co_await posix.write(0, fd, 10 * 1024 * 1024);  // 10 MB
    co_await posix.close(0, fd);
  };
  f.engine.spawn(prog());
  f.engine.run();
  // 10 MB at 5 GB/s is 2 ms plus latencies.
  EXPECT_GT(f.engine.now(), 2'000'000);
}

TEST(MpiIo, CollectiveWriteUsesOnlyAggregators) {
  constexpr int kRanks = 8;
  Fixture f(kRanks);
  MpiIo mpiio(f.ctx(), {.aggregators = 2});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* fh = co_await mpiio.open(r, "shared", trace::kCreate | trace::kRdWr,
                                   f.world->all());
    co_await mpiio.write_at_all(r, fh, static_cast<Offset>(r) * 1000, 1000);
    co_await mpiio.close(r, fh);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();

  const auto bundle = f.collector.bundle();
  std::set<Rank> posix_writers;
  for (const auto& rec : bundle.records) {
    if (rec.layer == trace::Layer::Posix && rec.func == trace::Func::pwrite) {
      posix_writers.insert(rec.rank);
      EXPECT_EQ(rec.origin, trace::Layer::MpiIo);
    }
  }
  EXPECT_EQ(posix_writers.size(), 2u) << "only aggregators touch the PFS";
  // Every rank logs the MPI-IO layer call.
  EXPECT_EQ(count_records(bundle, trace::Func::mpi_file_write_at_all),
            static_cast<std::size_t>(kRanks));
  // The union of aggregator writes covers the whole span.
  EXPECT_EQ(f.pfs.file_size("shared"), 8000u);
}

TEST(MpiIo, IndependentWriteGoesDirect) {
  Fixture f(4);
  MpiIo mpiio(f.ctx(), {.aggregators = 2});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* fh = co_await mpiio.open(r, "ind", trace::kCreate | trace::kRdWr,
                                   f.world->all());
    co_await mpiio.write_at(r, fh, static_cast<Offset>(r) * 100, 100);
    co_await mpiio.close(r, fh);
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  std::set<Rank> writers;
  for (const auto& rec : f.collector.bundle().records) {
    if (rec.func == trace::Func::pwrite) writers.insert(rec.rank);
  }
  EXPECT_EQ(writers.size(), 4u);
}

core::ConflictReport conflicts_of(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(
      bundle, {.validate_against_ground_truth = true});
  return core::detect_conflicts(log);
}

TEST(Hdf5, FlushingFileShowsWawClearedByCommit) {
  constexpr int kRanks = 4;
  Fixture f(kRanks);
  H5Options opt;
  opt.flush_after_dataset = true;
  opt.metadata_writers = 3;
  Hdf5Lite h5(f.ctx(), opt);
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* file = co_await h5.create(r, "flashy.h5", f.world->all());
    for (int d = 0; d < 3; ++d) {
      const std::string name = "var" + std::to_string(d);
      co_await h5.dataset_create(r, file, name, 4 * 8192);
      co_await h5.dataset_write(r, file, name,
                                static_cast<Offset>(r) * 8192, 8192);
    }
    co_await h5.close(r, file);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_TRUE(rep.session.waw_d) << "rotating metadata flushes conflict";
  EXPECT_FALSE(rep.commit.any()) << "the flush fsync is the commit";
}

TEST(Hdf5, QuietFileIsConflictFree) {
  constexpr int kRanks = 4;
  Fixture f(kRanks);
  Hdf5Lite h5(f.ctx(), {});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* file = co_await h5.create(r, "quiet.h5", f.world->all());
    co_await h5.dataset_create(r, file, "d", 4 * 8192);
    co_await h5.dataset_write(r, file, "d", static_cast<Offset>(r) * 8192, 8192);
    co_await h5.close(r, file);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_FALSE(rep.session.any());
  EXPECT_FALSE(rep.commit.any());
}

TEST(Hdf5, ReadbackProducesRawS) {
  Fixture f(1);
  H5Options opt;
  opt.metadata_readback = true;
  Hdf5Lite h5(f.ctx(), opt);
  auto prog = [&]() -> sim::Task<void> {
    const mpi::Group self{0};
    auto* file = co_await h5.create(0, "enzoish.h5", self);
    for (int d = 0; d < 3; ++d) {
      const std::string name = "g" + std::to_string(d);
      co_await h5.dataset_create(0, file, name, 8192);
      co_await h5.dataset_write(0, file, name, 0, 8192);
    }
    co_await h5.close(0, file);
  };
  f.engine.spawn(prog());
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_TRUE(rep.session.raw_s);
  EXPECT_TRUE(rep.commit.raw_s) << "no commit between entry write and scan";
  EXPECT_FALSE(rep.session.waw_s);
  EXPECT_FALSE(rep.session.waw_d);
}

TEST(Hdf5, CloseEmitsTruncateAndFstat) {
  Fixture f(1);
  Hdf5Lite h5(f.ctx(), {});
  auto prog = [&]() -> sim::Task<void> {
    const mpi::Group self{0};
    auto* file = co_await h5.create(0, "t.h5", self);
    co_await h5.dataset_create(0, file, "d", 8192);
    co_await h5.dataset_write(0, file, "d", 0, 8192);
    co_await h5.close(0, file);
  };
  f.engine.spawn(prog());
  f.engine.run();
  const auto& b = f.collector.bundle();
  EXPECT_EQ(count_records(b, trace::Func::lstat), 1u);
  EXPECT_EQ(count_records(b, trace::Func::fstat), 1u);
  EXPECT_EQ(count_records(b, trace::Func::ftruncate), 1u);
}

TEST(NetCdf, NumrecsRewriteIsWawSUnderBothSemantics) {
  Fixture f(1);
  NetCdfLite nc(f.ctx());
  auto prog = [&]() -> sim::Task<void> {
    auto* file = co_await nc.create(0, "dump.nc");
    co_await nc.def_var(0, file, "coords");
    co_await nc.enddef(0, file);
    for (int i = 0; i < 3; ++i) co_await nc.put_record(0, file, 65536);
    co_await nc.close(0, file);
  };
  f.engine.spawn(prog());
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_TRUE(rep.session.waw_s);
  EXPECT_TRUE(rep.commit.waw_s) << "no fsync between numrecs updates";
  EXPECT_FALSE(rep.session.waw_d);
  const auto& b = f.collector.bundle();
  EXPECT_GE(count_records(b, trace::Func::getcwd), 1u);
  EXPECT_GE(count_records(b, trace::Func::access), 1u);
}

TEST(Adios, IndexByteOverwriteIsWawS) {
  constexpr int kRanks = 4;
  Fixture f(kRanks);
  AdiosLite adios(f.ctx(), {.aggregators = 2});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* bp = co_await adios.open(r, "out", f.world->all());
    for (int step = 0; step < 3; ++step) {
      co_await adios.put(r, bp, 32768);
      co_await adios.end_step(r, bp);
    }
    co_await adios.close(r, bp);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_TRUE(rep.session.waw_s);
  EXPECT_FALSE(rep.session.waw_d);
  EXPECT_FALSE(rep.session.raw_d);
  // The conflicting file is the index, as the paper reports.
  const auto log = core::reconstruct_accesses(f.collector.bundle());
  bool idx_conflict = false;
  for (const auto& c : core::detect_conflicts(log).conflicts) {
    if (log.path(c.file).find("md.idx") != std::string::npos) idx_conflict = true;
  }
  EXPECT_TRUE(idx_conflict);
  // ADIOS creates its output directory.
  EXPECT_GE(count_records(f.collector.bundle(), trace::Func::mkdir), 1u);
}

TEST(Silo, BatonGroupFileWawSOnlyAndNoCrossRankConflicts) {
  constexpr int kRanks = 4;
  Fixture f(kRanks);
  SiloLite silo(f.ctx());
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await silo.write_group_file(r, "g.silo", f.world->all(), 65536, 0);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_TRUE(rep.session.waw_s) << "in-turn TOC double write";
  EXPECT_FALSE(rep.session.waw_d)
      << "baton close->open clears cross-rank TOC rewrites";
  EXPECT_FALSE(rep.session.raw_d);
}


TEST(Hdf5, CollectiveMetadataRoutesAllMetadataToLeader) {
  constexpr int kRanks = 8;
  Fixture f(kRanks);
  H5Options opt;
  opt.collective_metadata = true;
  opt.flush_after_dataset = true;
  opt.metadata_writers = 6;
  Hdf5Lite h5(f.ctx(), opt);
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* file = co_await h5.create(r, "cm.h5", f.world->all());
    for (int d = 0; d < 4; ++d) {
      const std::string name = "v" + std::to_string(d);
      co_await h5.dataset_create(r, file, name, 8 * 8192);
      co_await h5.dataset_write(r, file, name, static_cast<Offset>(r) * 8192,
                                8192);
    }
    co_await h5.close(r, file);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  // Every small (metadata-sized) write must come from rank 0.
  std::set<Rank> meta_writers;
  for (const auto& rec : f.collector.bundle().records) {
    if (rec.layer == trace::Layer::Posix && rec.func == trace::Func::pwrite &&
        rec.count < 4096) {
      meta_writers.insert(rec.rank);
    }
  }
  EXPECT_EQ(meta_writers, std::set<Rank>{0});
  // Collective metadata is the paper's FLASH fix: no cross-process
  // conflicts survive even under session semantics.
  const auto rep = conflicts_of(f.collector.bundle());
  EXPECT_FALSE(rep.session.waw_d);
  EXPECT_FALSE(rep.session.raw_d);
}

TEST(Hdf5, DistributedMetadataUsesManyWriters) {
  constexpr int kRanks = 16;
  Fixture f(kRanks);
  H5Options opt;
  opt.metadata_writers = 12;
  Hdf5Lite h5(f.ctx(), opt);
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* file = co_await h5.create(r, "dm.h5", f.world->all());
    for (int d = 0; d < 4; ++d) {  // 4 datasets x 3 metadata pieces
      const std::string name = "v" + std::to_string(d);
      co_await h5.dataset_create(r, file, name, 16 * 8192);
      co_await h5.dataset_write(r, file, name, static_cast<Offset>(r) * 8192,
                                8192);
    }
    co_await h5.close(r, file);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  std::set<Rank> meta_writers;
  for (const auto& rec : f.collector.bundle().records) {
    if (rec.layer == trace::Layer::Posix && rec.func == trace::Func::pwrite &&
        rec.count < 4096) {
      meta_writers.insert(rec.rank);
    }
  }
  EXPECT_GE(meta_writers.size(), 10u)
      << "metadata ownership must rotate over the writer subset";
}

TEST(MpiIo, CollectiveReadUsesAggregatorsAndCoversSpan) {
  constexpr int kRanks = 8;
  Fixture f(kRanks);
  f.pfs.preload("input", 8 * 1000);
  MpiIo mpiio(f.ctx(), {.aggregators = 2});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* fh = co_await mpiio.open(r, "input", trace::kRdWr, f.world->all());
    co_await mpiio.read_at_all(r, fh, static_cast<Offset>(r) * 1000, 1000);
    co_await mpiio.close(r, fh);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  std::set<Rank> posix_readers;
  std::uint64_t bytes = 0;
  for (const auto& rec : f.collector.bundle().records) {
    if (rec.layer == trace::Layer::Posix && rec.func == trace::Func::pread) {
      posix_readers.insert(rec.rank);
      bytes += static_cast<std::uint64_t>(rec.ret);
    }
  }
  EXPECT_EQ(posix_readers.size(), 2u);
  EXPECT_EQ(bytes, 8u * 1000) << "aggregator domains must tile the span";
  EXPECT_EQ(count_records(f.collector.bundle(),
                          trace::Func::mpi_file_read_at_all),
            static_cast<std::size_t>(kRanks));
}

TEST(MpiIo, SyncIsACommit) {
  Fixture f(2);
  MpiIo mpiio(f.ctx(), {.aggregators = 1});
  auto prog = [&](Rank r) -> sim::Task<void> {
    auto* fh = co_await mpiio.open(r, "s", trace::kCreate | trace::kRdWr,
                                   f.world->all());
    co_await mpiio.write_at(r, fh, static_cast<Offset>(r) * 100, 100);
    co_await mpiio.sync(r, fh);
    co_await mpiio.close(r, fh);
  };
  for (Rank r = 0; r < 2; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  EXPECT_EQ(count_records(f.collector.bundle(), trace::Func::fsync), 2u);
  EXPECT_EQ(count_records(f.collector.bundle(), trace::Func::mpi_file_sync), 2u);
}

TEST(Silo, BlocksAreStridedWithPadding) {
  constexpr int kRanks = 4;
  Fixture f(kRanks);
  SiloLite silo(f.ctx());
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await silo.write_group_file(r, "g.silo", f.world->all(), 32768, 0);
  };
  for (Rank r = 0; r < kRanks; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  // Each rank's data block must start at a distinct padded slot.
  std::set<Offset> block_starts;
  for (const auto& rec : f.collector.bundle().records) {
    if (rec.func == trace::Func::pwrite && rec.count >= 4096 &&
        rec.offset >= 1024) {
      block_starts.insert(rec.offset);
    }
  }
  // 4 ranks x 8 chunks per block = distinct offsets; block bases spaced
  // by bytes+pad.
  EXPECT_TRUE(block_starts.contains(1024));
  EXPECT_TRUE(block_starts.contains(1024 + 32768 + 4096));
}

}  // namespace
}  // namespace pfsem::iolib
