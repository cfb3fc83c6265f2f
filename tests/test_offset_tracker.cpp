// Unit + property tests for offset reconstruction (Section 5.1): open
// flags, lseek whence, implicit offset advance, O_APPEND via tracked file
// size, and the expanded-record annotations (t_open / t_commit / t_close).

#include <gtest/gtest.h>

#include "../src/core/offset_stepper.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::core {
namespace {

using trace::Func;
using trace::Layer;

/// Small builder for hand-written POSIX traces.
class TraceBuilder {
 public:
  explicit TraceBuilder(int nranks) { bundle_.nranks = nranks; }

  TraceBuilder& open(Rank r, int fd, const std::string& path, int flags) {
    add(r, Func::open, fd, fd, 0, 0, flags, path);
    return *this;
  }
  TraceBuilder& close(Rank r, int fd) {
    add(r, Func::close, fd, 0, 0, 0, 0, "");
    return *this;
  }
  TraceBuilder& write(Rank r, int fd, std::uint64_t n) {
    add(r, Func::write, fd, static_cast<std::int64_t>(n), 0, n, 0, "");
    return *this;
  }
  TraceBuilder& read(Rank r, int fd, std::uint64_t n) {
    add(r, Func::read, fd, static_cast<std::int64_t>(n), 0, n, 0, "");
    return *this;
  }
  TraceBuilder& pwrite(Rank r, int fd, Offset off, std::uint64_t n) {
    add(r, Func::pwrite, fd, static_cast<std::int64_t>(n), off, n, 0, "");
    return *this;
  }
  TraceBuilder& pread(Rank r, int fd, Offset off, std::uint64_t n) {
    add(r, Func::pread, fd, static_cast<std::int64_t>(n), off, n, 0, "");
    return *this;
  }
  TraceBuilder& lseek(Rank r, int fd, std::int64_t off, int whence) {
    add(r, Func::lseek, fd, 0, static_cast<Offset>(off), 0, whence, "");
    return *this;
  }
  TraceBuilder& fsync(Rank r, int fd) {
    add(r, Func::fsync, fd, 0, 0, 0, 0, "");
    return *this;
  }
  TraceBuilder& ftruncate(Rank r, int fd, Offset len) {
    add(r, Func::ftruncate, fd, 0, len, 0, 0, "");
    return *this;
  }

  [[nodiscard]] const trace::TraceBundle& bundle() const { return bundle_; }
  [[nodiscard]] SimTime last_time() const { return t_; }

 private:
  void add(Rank r, Func f, int fd, std::int64_t ret, Offset off,
           std::uint64_t count, int flags, const std::string& path) {
    trace::Record rec;
    rec.tstart = t_;
    rec.tend = t_ + 5;
    t_ += 10;
    rec.rank = r;
    rec.layer = Layer::Posix;
    rec.func = f;
    rec.fd = fd;
    rec.ret = ret;
    rec.offset = off;
    rec.count = count;
    rec.flags = flags;
    rec.file = path.empty() ? kNoFile : bundle_.intern(path);
    bundle_.records.push_back(std::move(rec));
  }

  trace::TraceBundle bundle_;
  SimTime t_ = 0;
};

TEST(OffsetTracker, SequentialWritesAdvance) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate).write(0, 3, 100).write(0, 3, 50).close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].ext, (Extent{0, 100}));
  EXPECT_EQ(acc[1].ext, (Extent{100, 150}));
  EXPECT_EQ(acc[0].type, AccessType::Write);
}

TEST(OffsetTracker, SeekSetCurEnd) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 1000)
      .lseek(0, 3, 100, trace::kSeekSet)
      .read(0, 3, 50)  // [100,150)
      .lseek(0, 3, 30, trace::kSeekCur)
      .read(0, 3, 20)  // [180,200)
      .lseek(0, 3, -100, trace::kSeekEnd)
      .read(0, 3, 100)  // [900,1000)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  ASSERT_EQ(acc.size(), 4u);
  EXPECT_EQ(acc[1].ext, (Extent{100, 150}));
  EXPECT_EQ(acc[2].ext, (Extent{180, 200}));
  EXPECT_EQ(acc[3].ext, (Extent{900, 1000}));
}

TEST(OffsetTracker, AppendTracksSharedFileSize) {
  // Two ranks appending to the same file: each write lands at the current
  // global EOF, which only tracked size can reconstruct.
  TraceBuilder tb(2);
  tb.open(0, 3, "log", trace::kCreate | trace::kAppend)
      .open(1, 3, "log", trace::kAppend)
      .write(0, 3, 100)   // [0,100)
      .write(1, 3, 200)   // [100,300)
      .write(0, 3, 50)    // [300,350)
      .close(0, 3)
      .close(1, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("log").accesses;
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_EQ(acc[0].ext, (Extent{0, 100}));
  EXPECT_EQ(acc[1].ext, (Extent{100, 300}));
  EXPECT_EQ(acc[2].ext, (Extent{300, 350}));
}

TEST(OffsetTracker, TruncResetsSize) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 500)
      .close(0, 3)
      .open(0, 4, "f", trace::kTrunc)
      .lseek(0, 4, 0, trace::kSeekEnd)
      .write(0, 4, 10)  // EOF is 0 after O_TRUNC
      .close(0, 4);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  EXPECT_EQ(acc.back().ext, (Extent{0, 10}));
}

TEST(OffsetTracker, FtruncateAdjustsSeekEnd) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 500)
      .ftruncate(0, 3, 100)
      .lseek(0, 3, 0, trace::kSeekEnd)
      .write(0, 3, 10)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("f").accesses.back().ext, (Extent{100, 110}));
}

TEST(OffsetTracker, PreadDoesNotMoveOffset) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 100)
      .pread(0, 3, 10, 20)
      .write(0, 3, 10)  // continues at 100, not 30
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  EXPECT_EQ(acc[2].ext, (Extent{100, 110}));
}

TEST(OffsetTracker, AnnotatesOpenCommitClose) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)   // t=0
      .write(0, 3, 100)                // t=10
      .fsync(0, 3)                     // t=20
      .write(0, 3, 100)                // t=30
      .close(0, 3);                    // t=40
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& fl = log.at("f");
  ASSERT_EQ(fl.accesses.size(), 2u);
  const auto& w1 = fl.accesses[0];
  EXPECT_EQ(w1.t_open, 0);
  EXPECT_EQ(w1.t_commit, 20) << "fsync is the first succeeding commit";
  EXPECT_EQ(w1.t_close, 40);
  const auto& w2 = fl.accesses[1];
  EXPECT_EQ(w2.t_commit, 40) << "close acts as the commit for w2";
  EXPECT_EQ(w2.t_close, 40);
  // Commit table holds both the fsync and the close.
  EXPECT_EQ(fl.commits.at(0).size(), 2u);
  EXPECT_EQ(fl.closes.at(0).size(), 1u);
}

TEST(OffsetTracker, PerRankFdSpacesAreIndependent) {
  TraceBuilder tb(2);
  tb.open(0, 3, "a", trace::kCreate)
      .open(1, 3, "b", trace::kCreate)  // same fd number, different rank
      .write(0, 3, 10)
      .write(1, 3, 20)
      .close(0, 3)
      .close(1, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("a").accesses[0].ext, (Extent{0, 10}));
  EXPECT_EQ(log.at("b").accesses[0].ext, (Extent{0, 20}));
}

TEST(OffsetTracker, ZeroByteOpsIgnored) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate).write(0, 3, 0).read(0, 3, 0).close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_TRUE(log.at("f").accesses.empty());
}

TEST(OffsetTracker, UnknownFdThrows) {
  TraceBuilder tb(1);
  tb.write(0, 9, 10);
  EXPECT_THROW(reconstruct_accesses(tb.bundle()), Error);
}

TEST(OffsetTracker, FdNumbersReusedAcrossRanksStayApart) {
  // Rank 0 closes fd 3 and reopens it on another file while rank 1's
  // fd 3 stays open on the first one.
  TraceBuilder tb(2);
  tb.open(0, 3, "a", trace::kCreate)
      .open(1, 3, "a", 0)
      .write(0, 3, 10)
      .close(0, 3)
      .open(0, 3, "b", trace::kCreate)
      .write(1, 3, 20)
      .write(0, 3, 30)
      .close(1, 3)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  ASSERT_EQ(log.at("a").accesses.size(), 2u);
  EXPECT_EQ(log.at("a").accesses[0].rank, 0);
  EXPECT_EQ(log.at("a").accesses[1].rank, 1);
  EXPECT_EQ(log.at("a").accesses[1].ext, (Extent{0, 20}));
  ASSERT_EQ(log.at("b").accesses.size(), 1u);
  EXPECT_EQ(log.at("b").accesses[0].ext, (Extent{0, 30}));
}

TEST(OffsetTracker, OpenReplacingAStillOpenFdRetargetsIt) {
  // A trace that reuses fd 3 without closing it: later ops on fd 3 go
  // to the newly opened file, from offset 0.
  TraceBuilder tb(1);
  tb.open(0, 3, "a", trace::kCreate)
      .write(0, 3, 10)
      .open(0, 3, "b", trace::kCreate)
      .write(0, 3, 20)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  ASSERT_EQ(log.at("a").accesses.size(), 1u);
  EXPECT_EQ(log.at("a").accesses[0].t_close, kTimeNever)
      << "the replaced descriptor was never closed";
  ASSERT_EQ(log.at("b").accesses.size(), 1u);
  EXPECT_EQ(log.at("b").accesses[0].ext, (Extent{0, 20}));
  EXPECT_EQ(log.at("b").accesses[0].t_close, 40);

  // The windowed pipeline, with exact per-file counts, agrees.
  const auto& b = tb.bundle();
  std::vector<std::uint64_t> file_counts(b.paths.size(), 0);
  for (const auto& rec : b.records) {
    if (rec.file != kNoFile) ++file_counts[rec.file];
  }
  StreamAnalyzer sa(b.nranks, b.paths, {b.records.size()});
  sa.enable_window({}, file_counts);
  for (const auto& rec : b.records) sa.feed(rec);
  const auto res = sa.finish_windowed();
  EXPECT_EQ(res.summaries[b.paths.find("a")].report.writes, 1u);
  EXPECT_EQ(res.summaries[b.paths.find("b")].report.write_bytes, 20u);
}

TEST(OffsetTracker, RankHoldingManyOpenFdsKeepsEachOffset) {
  // One rank opens thousands of descriptors (scattered fd numbers, none
  // closed until the end), then writes through them in another order:
  // each fd keeps its own file and offset.
  constexpr int kFds = 20000;
  const auto fd_of = [](int i) { return 3 + (i * 7919) % kFds; };
  TraceBuilder tb(2);
  for (int i = 0; i < kFds; ++i) {
    tb.open(0, fd_of(i), "f" + std::to_string(i % 4), trace::kCreate);
  }
  for (int i = kFds - 1; i >= 0; --i) tb.write(0, fd_of(i), 10);
  for (int i = 0; i < kFds; i += 2) tb.close(0, fd_of(i));
  for (int i = 1; i < kFds; i += 2) tb.write(0, fd_of(i), 5);
  const auto log = reconstruct_accesses(tb.bundle());
  std::size_t first_writes = 0, second_writes = 0;
  for (int k = 0; k < 4; ++k) {
    for (const auto& a : log.at("f" + std::to_string(k)).accesses) {
      if (a.ext == Extent{0, 10}) ++first_writes;
      if (a.ext == Extent{10, 15}) ++second_writes;
    }
  }
  EXPECT_EQ(first_writes, std::size_t{kFds});
  EXPECT_EQ(second_writes, std::size_t{kFds / 2});
}

TEST(OffsetTracker, OutOfRangeRecordRankThrows) {
  for (const Rank bad : {Rank{2}, Rank{-1}}) {
    TraceBuilder tb(2);
    tb.open(bad, 3, "f", trace::kCreate);
    EXPECT_THROW((void)reconstruct_accesses(tb.bundle()), Error) << bad;
    const auto& b = tb.bundle();
    StreamAnalyzer sa(b.nranks, b.paths);
    EXPECT_THROW(sa.feed(b.records[0]), Error) << bad;
  }
}

TEST(OffsetTracker, OutOfRangeRecordFileThrows) {
  // A file id past the analyzer's path table is refused as the record is
  // fed, before stepping it would index per-file state by that id.
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate).write(0, 3, 10).close(0, 3);
  const auto& b = tb.bundle();
  for (const FileId bad : {FileId{1}, FileId{1000}}) {
    StreamAnalyzer sa(b.nranks, b.paths, {b.records.size()});
    auto rec = b.records[0];
    rec.file = bad;
    EXPECT_THROW(
        {
          sa.feed(rec);
          (void)sa.finish_windowed();
        },
        Error)
        << bad;
  }
}

TEST(OffsetTracker, FlatViewAliasesFileColumns) {
  TraceBuilder tb(2);
  tb.open(0, 3, "a", trace::kCreate)
      .open(1, 4, "b", trace::kCreate)
      .write(0, 3, 10)
      .write(1, 4, 20);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto flat = FlatAccessLog::from(log);
  ASSERT_EQ(flat.files.size(), log.files.size());
  for (std::size_t f = 0; f < log.files.size(); ++f) {
    EXPECT_EQ(flat.files[f].log, &log.files[f]);
    EXPECT_EQ(flat.accesses(f).data(), log.files[f].accesses.data());
    EXPECT_EQ(flat.accesses(f).size(), log.files[f].accesses.size());
  }
}

TEST(OffsetTracker, AnnotateSortsAnOutOfOrderHandBuiltLog) {
  // Hand-built columns need not arrive in time order; equal timestamps
  // keep their column order (a stable sort).
  FileLog fl;
  fl.file = 0;
  const auto add = [&](SimTime t, Rank r, std::size_t index) {
    Access a;
    a.t = t;
    a.rank = r;
    a.ext = {0, 10};
    a.record_index = index;
    fl.accesses.push_back(a);
  };
  add(50, 1, 0);
  add(20, 0, 1);
  add(50, 0, 2);
  add(10, 1, 3);
  add(20, 1, 4);
  fl.opens[0] = {15, 5};
  fl.opens[1] = {0};
  fl.commits[0] = {60, 30};
  fl.closes[0] = {60};
  detail::Annotator annotator;
  annotator.annotate_file(fl);
  std::vector<std::size_t> order;
  for (const auto& a : fl.accesses) order.push_back(a.record_index);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 4, 0, 2}));
  EXPECT_EQ(fl.opens.at(0), (std::vector<SimTime>{5, 15}));
  const Access& r0_early = fl.accesses[1];  // rank 0 at t=20
  EXPECT_EQ(r0_early.t_open, 15);
  EXPECT_EQ(r0_early.t_commit, 30);
  EXPECT_EQ(r0_early.t_close, 60);
  const Access& r0_late = fl.accesses[4];  // rank 0 at t=50
  EXPECT_EQ(r0_late.t_commit, 60);
  const Access& r1 = fl.accesses[3];  // rank 1 at t=50
  EXPECT_EQ(r1.t_open, 0);
  EXPECT_EQ(r1.t_commit, kTimeNever);
  EXPECT_EQ(r1.t_close, kTimeNever);

  // The annotator's rank table is clean for the next file: rank 0 has
  // no events here, so nothing from the file above may leak in.
  FileLog next;
  next.file = 1;
  Access a;
  a.t = 100;
  a.rank = 0;
  a.ext = {0, 1};
  next.accesses.push_back(a);
  annotator.annotate_file(next);
  EXPECT_EQ(next.accesses[0].t_open, 0);
  EXPECT_EQ(next.accesses[0].t_commit, kTimeNever);
  EXPECT_EQ(next.accesses[0].t_close, kTimeNever);
}

// Property test: a random legal op sequence reconstructs to exactly the
// offsets a reference file-descriptor model produces.
TEST(OffsetTrackerProperty, MatchesReferenceModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    TraceBuilder tb(1);
    Offset model_offset = 0;
    Offset model_size = 0;
    std::vector<Extent> expected;
    tb.open(0, 3, "f", trace::kCreate);
    const int ops = 60;
    for (int i = 0; i < ops; ++i) {
      switch (rng.below(5)) {
        case 0: {  // write
          const auto n = 1 + rng.below(100);
          expected.push_back({model_offset, model_offset + n});
          model_offset += n;
          model_size = std::max(model_size, model_offset);
          tb.write(0, 3, n);
          break;
        }
        case 1: {  // read (clip to size to keep ret == count simple)
          if (model_offset >= model_size) break;
          const auto avail = model_size - model_offset;
          const auto n = 1 + rng.below(std::min<std::uint64_t>(avail, 100));
          expected.push_back({model_offset, model_offset + n});
          model_offset += n;
          tb.read(0, 3, n);
          break;
        }
        case 2: {  // pwrite
          const auto off = rng.below(model_size + 50);
          const auto n = 1 + rng.below(100);
          expected.push_back({off, off + n});
          model_size = std::max(model_size, off + n);
          tb.pwrite(0, 3, off, n);
          break;
        }
        case 3: {  // lseek SET / CUR / END
          switch (rng.below(3)) {
            case 0: {
              const auto off = rng.below(model_size + 10);
              model_offset = off;
              tb.lseek(0, 3, static_cast<std::int64_t>(off), trace::kSeekSet);
              break;
            }
            case 1: {
              const auto d = static_cast<std::int64_t>(rng.below(20));
              model_offset += static_cast<Offset>(d);
              tb.lseek(0, 3, d, trace::kSeekCur);
              break;
            }
            default: {
              model_offset = model_size;
              tb.lseek(0, 3, 0, trace::kSeekEnd);
              break;
            }
          }
          break;
        }
        default: {  // ftruncate smaller
          if (model_size == 0) break;
          const auto len = rng.below(model_size);
          model_size = len;
          tb.ftruncate(0, 3, len);
          break;
        }
      }
    }
    tb.close(0, 3);
    const auto log = reconstruct_accesses(tb.bundle());
    const auto& acc = log.at("f").accesses;
    ASSERT_EQ(acc.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      EXPECT_EQ(acc[i].ext, expected[i]) << "seed " << seed << " op " << i;
    }
  }
}

}  // namespace
}  // namespace pfsem::core
