// Behavioural litmus tests for the PFS consistency models (Section 3).
// Each test drives the same access script against a Pfs configured with a
// different model and checks exactly which write each read observes.

#include <gtest/gtest.h>

#include <string>

#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::vfs {
namespace {

using trace::kAppend;
using trace::kCreate;
using trace::kRdOnly;
using trace::kRdWr;
using trace::kTrunc;
using trace::kWrOnly;

PfsConfig with_model(ConsistencyModel m) {
  PfsConfig cfg;
  cfg.model = m;
  return cfg;
}

/// Version tag observed at byte `at` of the read result.
VersionTag tag_at(const std::vector<ReadExtent>& extents, Offset at) {
  for (const auto& e : extents) {
    if (e.ext.contains(at)) return e.version;
  }
  return 0;
}

// --- strong semantics -------------------------------------------------

TEST(Strong, RemoteWriteVisibleImmediately) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int rd = fs.open(1, "f", kRdWr, 10).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 20);
  const auto res = fs.pread(1, rd, 0, 100, 30);
  EXPECT_EQ(tag_at(res.extents, 0), wr.version);
}

TEST(Strong, LastWriterWinsByTime) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int w0 = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int w1 = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(0, w0, 0, 100, 10);
  const auto second = fs.pwrite(1, w1, 50, 100, 20);
  const int rd = fs.open(2, "f", kRdOnly, 30).fd;
  const auto res = fs.pread(2, rd, 0, 150, 40);
  EXPECT_EQ(tag_at(res.extents, 60), second.version);
  EXPECT_EQ(tag_at(res.extents, 149), second.version);
  EXPECT_NE(tag_at(res.extents, 10), second.version);
}

// --- commit semantics -------------------------------------------------

TEST(Commit, RemoteWriteInvisibleUntilFsync) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int rd = fs.open(1, "f", kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 10);
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 20).extents, 0), 0u)
      << "uncommitted remote write must read as hole";
  fs.fsync(0, w, 30);
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 40).extents, 0), wr.version)
      << "committed write must be globally visible";
}

TEST(Commit, OwnWritesAlwaysVisible) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 64, 10);
  EXPECT_EQ(tag_at(fs.pread(0, w, 0, 64, 20).extents, 5), wr.version);
}

TEST(Commit, CloseActsAsCommit) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 64, 10);
  fs.close(0, w, 20);
  const int rd = fs.open(1, "f", kRdOnly, 30).fd;
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 64, 40).extents, 0), wr.version);
}

TEST(Commit, CommitOrderBeatsWriteOrder) {
  // w1 written before w2, but w2 commits first: after both commits the
  // later commit wins on overlapping bytes (visibility-time ordering).
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int b = fs.open(1, "f", kRdWr, 0).fd;
  const auto w1 = fs.pwrite(0, a, 0, 100, 10);
  (void)fs.pwrite(1, b, 0, 100, 20);
  fs.fsync(1, b, 30);  // w2 commits at 30
  fs.fsync(0, a, 40);  // w1 commits at 40
  const int rd = fs.open(2, "f", kRdOnly, 50).fd;
  EXPECT_EQ(tag_at(fs.pread(2, rd, 0, 100, 60).extents, 0), w1.version);
}

// --- session semantics -------------------------------------------------

TEST(Session, VisibleOnlyAfterCloseThenOpen) {
  Pfs fs(with_model(ConsistencyModel::Session));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 10);

  // Reader whose session began before the writer closed: stale.
  const int early = fs.open(1, "f", kRdOnly, 5).fd;
  EXPECT_EQ(tag_at(fs.pread(1, early, 0, 100, 20).extents, 0), 0u);

  fs.close(0, w, 30);

  // Same old session: still stale even after the close.
  EXPECT_EQ(tag_at(fs.pread(1, early, 0, 100, 40).extents, 0), 0u);

  // Fresh session opened after the close: sees the write.
  const int fresh = fs.open(1, "f", kRdOnly, 50).fd;
  EXPECT_EQ(tag_at(fs.pread(1, fresh, 0, 100, 60).extents, 0), wr.version);
}

TEST(Session, FsyncAloneDoesNotPublish) {
  Pfs fs(with_model(ConsistencyModel::Session));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.pwrite(0, w, 0, 100, 10);
  fs.fsync(0, w, 20);
  const int rd = fs.open(1, "f", kRdOnly, 30).fd;
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 40).extents, 0), 0u)
      << "session semantics needs close->open, not just fsync";
}

TEST(Session, OwnWritesVisibleWithinSession) {
  Pfs fs(with_model(ConsistencyModel::Session));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 10);
  EXPECT_EQ(tag_at(fs.pread(0, w, 0, 100, 20).extents, 50), wr.version);
}

// --- eventual semantics -------------------------------------------------

TEST(Eventual, WriteVisibleAfterPropagationDelay) {
  PfsConfig cfg;
  cfg.model = ConsistencyModel::Eventual;
  cfg.eventual_propagation = 1000;
  Pfs fs(cfg);
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int rd = fs.open(1, "f", kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 10);
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 500).extents, 0), 0u);
  EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 1500).extents, 0), wr.version);
}

// --- mechanics shared across models -------------------------------------

TEST(Mechanics, OffsetAdvanceAndAppend) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int fd = fs.open(0, "f", kCreate | kWrOnly, 0).fd;
  EXPECT_EQ(fs.write(0, fd, 100, 10).offset, 0u);
  EXPECT_EQ(fs.write(0, fd, 50, 20).offset, 100u);
  const int ap = fs.open(1, "f", kWrOnly | kAppend, 30).fd;
  EXPECT_EQ(fs.write(1, ap, 10, 40).offset, 150u) << "O_APPEND lands at EOF";
  EXPECT_EQ(fs.file_size("f"), 160u);
}

TEST(Mechanics, LseekWhence) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int fd = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.write(0, fd, 100, 10);
  EXPECT_EQ(fs.lseek(0, fd, 10, trace::kSeekSet, 20).ret, 10);
  EXPECT_EQ(fs.lseek(0, fd, 5, trace::kSeekCur, 30).ret, 15);
  EXPECT_EQ(fs.lseek(0, fd, -20, trace::kSeekEnd, 40).ret, 80);
  EXPECT_EQ(fs.lseek(0, fd, -200, trace::kSeekSet, 50).ret, -1);
}

TEST(Mechanics, ReadClippedAtEof) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int fd = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.pwrite(0, fd, 0, 100, 10);
  EXPECT_EQ(fs.pread(0, fd, 50, 500, 20).bytes, 50u);
  EXPECT_EQ(fs.pread(0, fd, 200, 10, 30).bytes, 0u);
}

TEST(Mechanics, TruncateClearsTail) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int fd = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, fd, 0, 100, 10);
  fs.ftruncate(0, fd, 40, 20);
  EXPECT_EQ(fs.file_size("f"), 40u);
  fs.ftruncate(0, fd, 100, 30);
  const auto res = fs.pread(0, fd, 0, 100, 40);
  EXPECT_EQ(tag_at(res.extents, 10), wr.version);
  EXPECT_EQ(tag_at(res.extents, 60), 0u) << "re-grown region reads as hole";
}

TEST(Mechanics, OpenTruncDiscardsContent) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int fd = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.pwrite(0, fd, 0, 100, 10);
  fs.close(0, fd, 20);
  const int t = fs.open(1, "f", kRdWr | kTrunc, 30).fd;
  EXPECT_EQ(fs.file_size("f"), 0u);
  EXPECT_EQ(fs.pread(1, t, 0, 100, 40).bytes, 0u);
}

TEST(Mechanics, NamespaceOps) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  EXPECT_EQ(fs.stat("missing", 0).ret, -1);
  EXPECT_EQ(fs.mkdir("dir", 0).ret, 0);
  EXPECT_EQ(fs.mkdir("dir", 0).ret, -1);
  const int fd = fs.open(0, "a", kCreate | kWrOnly, 0).fd;
  (void)fs.write(0, fd, 77, 10);
  fs.close(0, fd, 20);
  EXPECT_EQ(fs.stat("a", 30).ret, 77);
  EXPECT_EQ(fs.rename("a", "b", 40).ret, 0);
  EXPECT_FALSE(fs.exists("a"));
  EXPECT_EQ(fs.stat("b", 50).ret, 77);
  EXPECT_EQ(fs.unlink("b", 60).ret, 0);
  EXPECT_EQ(fs.unlink("b", 70).ret, -1);
}

TEST(Mechanics, BadFdThrows) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  EXPECT_THROW(fs.write(0, 99, 10, 0), Error);
  EXPECT_THROW(fs.close(0, 99, 0), Error);
}

/// Every fd-taking operation on (r, fd) throws pfsem::Error.
void expect_bad_fd(FileSystem& fs, Rank r, int fd) {
  SCOPED_TRACE("rank " + std::to_string(r) + " fd " + std::to_string(fd));
  EXPECT_THROW(fs.write(r, fd, 10, 100), Error);
  EXPECT_THROW(fs.pwrite(r, fd, 0, 10, 100), Error);
  EXPECT_THROW(fs.read(r, fd, 10, 100), Error);
  EXPECT_THROW(fs.pread(r, fd, 0, 10, 100), Error);
  EXPECT_THROW(fs.lseek(r, fd, 0, trace::kSeekSet, 100), Error);
  EXPECT_THROW(fs.fsync(r, fd, 100), Error);
  EXPECT_THROW(fs.ftruncate(r, fd, 0, 100), Error);
  EXPECT_THROW(fs.close(r, fd, 100), Error);
}

TEST(Mechanics, EveryKindOfBadFdThrows) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  const int first = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int closed = fs.open(0, "f", kRdWr, 0).fd;
  const int last = fs.open(0, "f", kRdWr, 0).fd;
  (void)fs.close(0, closed, 1);
  expect_bad_fd(fs, 0, 0);           // never opened (a standard stream)
  expect_bad_fd(fs, 0, closed);      // closed
  expect_bad_fd(fs, 0, -1);          // negative
  expect_bad_fd(fs, 0, last + 1);    // above any allocated fd
  expect_bad_fd(fs, 0, 1 << 30);
  expect_bad_fd(fs, 1, first);       // another rank's fd
  expect_bad_fd(fs, 5000, first);    // a rank that never opened anything
  // The survivors still work.
  EXPECT_EQ(fs.pwrite(0, first, 0, 10, 2).err, 0);
  EXPECT_EQ(fs.close(0, last, 3).ret, 0);
  EXPECT_EQ(fs.close(0, first, 4).ret, 0);
  expect_bad_fd(fs, 0, first);
}

TEST(Mechanics, OpenMissingWithoutCreateFails) {
  Pfs fs(with_model(ConsistencyModel::Strong));
  EXPECT_EQ(fs.open(0, "nope", kRdOnly, 0).fd, -1);
}

// --- preload (genesis data) ---------------------------------------------

TEST(Preload, VisibleUnderEveryModel) {
  for (auto m : {ConsistencyModel::Strong, ConsistencyModel::Commit,
                 ConsistencyModel::Session, ConsistencyModel::Eventual}) {
    SCOPED_TRACE(to_string(m));
    Pfs fs(with_model(m));
    fs.preload("input.dat", 1000);
    const int fd = fs.open(3, "input.dat", kRdOnly, 0).fd;
    const auto res = fs.pread(3, fd, 0, 1000, 1);
    EXPECT_EQ(res.bytes, 1000u);
    EXPECT_NE(tag_at(res.extents, 999), 0u);
  }
}

// --- lock-traffic cost model ---------------------------------------------

TEST(Locks, StrongModelCountsConflictTraffic) {
  PfsConfig cfg;
  cfg.model = ConsistencyModel::Strong;
  cfg.lock_block = 1024;
  Pfs fs(cfg);
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int b = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(0, a, 0, 1024, 10);  // rank 0 takes block 0 exclusive
  const auto before = fs.lock_stats();
  EXPECT_GE(before.requests, 1u);
  (void)fs.pwrite(1, b, 0, 1024, 20);  // rank 1 must revoke rank 0
  const auto after = fs.lock_stats();
  EXPECT_GT(after.requests, before.requests);
  EXPECT_GT(after.revocations, before.revocations);
}

TEST(Locks, RepeatedAccessReusesLock) {
  PfsConfig cfg;
  cfg.model = ConsistencyModel::Strong;
  cfg.lock_block = 1024;
  Pfs fs(cfg);
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.pwrite(0, a, 0, 512, 10);
  const auto first = fs.lock_stats().requests;
  (void)fs.pwrite(0, a, 512, 512, 20);  // same block, lock already held
  EXPECT_EQ(fs.lock_stats().requests, first);
}

// A close releases every hold the rank has on the file, whichever of its
// fds took it; a later write through another fd re-acquires and is
// released again by that fd's close.
TEST(Locks, CloseReleasesHoldsTakenThroughAnotherFd) {
  PfsConfig cfg;
  cfg.model = ConsistencyModel::Strong;
  cfg.lock_block = 1024;
  Pfs fs(cfg);
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int b = fs.open(0, "f", kRdWr, 0).fd;
  const int c = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(0, b, 0, 2048, 10);  // rank 0 holds blocks 0-1 via b
  (void)fs.close(0, a, 20);
  const LockStats before = fs.lock_stats();
  (void)fs.pwrite(1, c, 0, 2048, 30);
  EXPECT_EQ(fs.lock_stats().revocations, before.revocations);
  EXPECT_EQ(fs.lock_stats().requests, before.requests + 2);
  (void)fs.pwrite(0, b, 0, 1024, 40);  // re-acquire block 0, revoking rank 1
  const LockStats reacquired = fs.lock_stats();
  EXPECT_EQ(reacquired.revocations, before.revocations + 1);
  (void)fs.close(0, b, 50);
  (void)fs.pwrite(1, c, 0, 2048, 60);
  EXPECT_EQ(fs.lock_stats().revocations, reacquired.revocations);
  EXPECT_EQ(fs.lock_stats().requests, reacquired.requests + 1);
}

// A close drops only the closing rank's holds: rank 1's exclusive and
// shared holds survive rank 0's close, so repeating them costs nothing.
TEST(Locks, CloseLeavesOtherRanksHolds) {
  PfsConfig cfg;
  cfg.model = ConsistencyModel::Strong;
  cfg.lock_block = 1024;
  Pfs fs(cfg);
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int c = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(1, c, 0, 2048, 10);     // rank 1: blocks 0-1 exclusive
  (void)fs.pwrite(0, a, 2048, 1024, 20);  // rank 0: block 2 exclusive
  (void)fs.pread(1, c, 2048, 1024, 30);   // block 2 shared by rank 1 ...
  (void)fs.pread(0, a, 2048, 1024, 40);   // ... and rank 0
  (void)fs.close(0, a, 50);
  const LockStats before = fs.lock_stats();
  (void)fs.pwrite(1, c, 0, 2048, 60);
  (void)fs.pread(1, c, 2048, 1024, 70);
  EXPECT_EQ(fs.lock_stats().requests, before.requests);
  EXPECT_EQ(fs.lock_stats().revocations, before.revocations);
}

TEST(Locks, RelaxedModelsChargeNoLockTraffic) {
  for (auto m : {ConsistencyModel::Commit, ConsistencyModel::Session,
                 ConsistencyModel::Eventual}) {
    SCOPED_TRACE(to_string(m));
    Pfs fs(with_model(m));
    const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
    const int b = fs.open(1, "f", kRdWr, 0).fd;
    (void)fs.pwrite(0, a, 0, 4096, 10);
    (void)fs.pwrite(1, b, 0, 4096, 20);
    EXPECT_EQ(fs.lock_stats().requests, 0u);
    EXPECT_EQ(fs.lock_stats().revocations, 0u);
  }
}

// --- strong-view oracle ---------------------------------------------------

TEST(Oracle, StrongViewMatchesWriteOrder) {
  Pfs fs(with_model(ConsistencyModel::Session));
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int b = fs.open(1, "f", kRdWr, 0).fd;
  const auto w1 = fs.pwrite(0, a, 0, 100, 10);
  const auto w2 = fs.pwrite(1, b, 50, 100, 20);
  const auto view = fs.strong_view("f", 0, 150);
  EXPECT_EQ(tag_at(view, 10), w1.version);
  EXPECT_EQ(tag_at(view, 75), w2.version);
  EXPECT_EQ(tag_at(view, 149), w2.version);
}


// --- lamination (UnifyFS, Section 3.2) ------------------------------------

TEST(Laminate, PublishesUnderEveryModel) {
  for (auto m : {ConsistencyModel::Commit, ConsistencyModel::Session,
                 ConsistencyModel::Eventual}) {
    SCOPED_TRACE(to_string(m));
    PfsConfig cfg = with_model(m);
    cfg.eventual_propagation = 1'000'000'000;
    Pfs fs(cfg);
    const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
    const auto wr = fs.pwrite(0, w, 0, 100, 10);
    const int rd = fs.open(1, "f", kRdWr, 20).fd;
    EXPECT_EQ(tag_at(fs.pread(1, rd, 0, 100, 30).extents, 0), 0u)
        << "not yet visible before lamination";
    EXPECT_EQ(fs.laminate("f", 40).ret, 0);
    // Session model still gates on the reader session: reopen.
    const int rd2 = fs.open(1, "f", kRdOnly, 50).fd;
    EXPECT_EQ(tag_at(fs.pread(1, rd2, 0, 100, 60).extents, 0), wr.version);
  }
}

TEST(Laminate, FileBecomesReadOnly) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  (void)fs.pwrite(0, w, 0, 100, 10);
  fs.laminate("f", 20);
  const auto res = fs.pwrite(0, w, 0, 100, 30);
  EXPECT_EQ(res.version, 0u) << "writes to a laminated file must fail";
  EXPECT_EQ(fs.file_size("f"), 100u);
}

TEST(Laminate, MissingFileFails) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  EXPECT_EQ(fs.laminate("nope", 0).ret, -1);
}

TEST(Laminate, LaminatedWritesSurviveCrashUnderEveryModel) {
  for (auto m : {ConsistencyModel::Strong, ConsistencyModel::Commit,
                 ConsistencyModel::Session, ConsistencyModel::Eventual}) {
    SCOPED_TRACE(to_string(m));
    PfsConfig cfg = with_model(m);
    cfg.eventual_propagation = 1'000'000'000;  // nothing propagates by t=50
    Pfs fs(cfg);
    const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
    const auto wr = fs.pwrite(0, w, 0, 100, 10);
    // No fsync, no close: only the lamination makes this durable.
    EXPECT_EQ(fs.laminate("f", 20).ret, 0);
    const auto lost = fs.crash_rank(0, 50);
    EXPECT_TRUE(lost.empty()) << "laminated data must survive a crash";
    EXPECT_EQ(tag_at(fs.strong_view("f", 0, 100), 0), wr.version);
    EXPECT_EQ(fs.file_size("f"), 100u);
  }
}

TEST(Laminate, UnlaminatedControlLosesTheWriteUnderCommit) {
  Pfs fs(with_model(ConsistencyModel::Commit));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 100, 10);
  const auto lost = fs.crash_rank(0, 50);
  EXPECT_EQ(lost, std::vector<VersionTag>{wr.version});
  EXPECT_EQ(tag_at(fs.strong_view("f", 0, 100), 0), 0u);
  EXPECT_EQ(fs.file_size("f"), 0u);
}


// --- striping (Lustre-style OST layout) ------------------------------------

TEST(Striping, SingleOstMatchesUnstripedModel) {
  PfsConfig a = with_model(ConsistencyModel::Strong);
  PfsConfig b = a;
  b.stripe_count = 1;
  Pfs fa(a), fb(b);
  const int x = fa.open(0, "f", kCreate | kWrOnly, 0).fd;
  const int y = fb.open(0, "f", kCreate | kWrOnly, 0).fd;
  EXPECT_EQ(fa.pwrite(0, x, 123, 77777, 10).cost,
            fb.pwrite(0, y, 123, 77777, 10).cost);
}

TEST(Striping, AlignedWriteTouchesOneOst) {
  PfsConfig cfg = with_model(ConsistencyModel::Commit);
  cfg.stripe_count = 4;
  cfg.stripe_size = 1 << 20;
  Pfs fs(cfg);
  const int fd = fs.open(0, "f", kCreate | kWrOnly, 0).fd;
  (void)fs.pwrite(0, fd, 0, 1 << 20, 10);          // OST 0
  (void)fs.pwrite(0, fd, 2u << 20, 1 << 20, 20);   // OST 2
  const auto& osts = fs.ost_stats();
  EXPECT_EQ(osts.requests[0], 1u);
  EXPECT_EQ(osts.requests[1], 0u);
  EXPECT_EQ(osts.requests[2], 1u);
  EXPECT_EQ(osts.bytes[0], 1u << 20);
}

TEST(Striping, MisalignedWriteSplitsAcrossTwoOsts) {
  PfsConfig cfg = with_model(ConsistencyModel::Commit);
  cfg.stripe_count = 4;
  cfg.stripe_size = 1 << 20;
  Pfs fs(cfg);
  const int fd = fs.open(0, "f", kCreate | kWrOnly, 0).fd;
  (void)fs.pwrite(0, fd, 512 * 1024, 1 << 20, 10);  // halves on OST 0 and 1
  const auto& osts = fs.ost_stats();
  EXPECT_EQ(osts.requests[0], 1u);
  EXPECT_EQ(osts.requests[1], 1u);
  EXPECT_EQ(osts.bytes[0], 512u * 1024);
  EXPECT_EQ(osts.bytes[1], 512u * 1024);
}

TEST(Striping, ParallelStripesCutTransferTime) {
  // One 4 MiB write over 4 OSTs costs like 1 MiB on one OST.
  PfsConfig striped = with_model(ConsistencyModel::Commit);
  striped.stripe_count = 4;
  striped.stripe_size = 1 << 20;
  PfsConfig single = with_model(ConsistencyModel::Commit);
  Pfs fs4(striped), fs1(single);
  const int a = fs4.open(0, "f", kCreate | kWrOnly, 0).fd;
  const int b = fs1.open(0, "f", kCreate | kWrOnly, 0).fd;
  const auto c4 = fs4.pwrite(0, a, 0, 4u << 20, 10).cost;
  const auto c1 = fs1.pwrite(0, b, 0, 4u << 20, 10).cost;
  EXPECT_LT(c4, c1);
  // Transfer part should shrink ~4x (latency is common to both).
  EXPECT_NEAR(static_cast<double>(c4 - striped.data_latency) * 4.0,
              static_cast<double>(c1 - single.data_latency),
              static_cast<double>(c1) * 0.01);
}

TEST(Striping, WholeFileRoundRobinBalances) {
  PfsConfig cfg = with_model(ConsistencyModel::Commit);
  cfg.stripe_count = 8;
  cfg.stripe_size = 64 * 1024;
  Pfs fs(cfg);
  const int fd = fs.open(0, "f", kCreate | kWrOnly, 0).fd;
  (void)fs.pwrite(0, fd, 0, 8u * 64 * 1024 * 10, 10);  // 80 stripes
  const auto& osts = fs.ost_stats();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(osts.bytes[i], 10u * 64 * 1024) << "OST " << i;
  }
}

}  // namespace
}  // namespace pfsem::vfs
