// Unit tests for the metadata-dependency extension (Section 7 future
// work): namespace mutate/observe pairing, hard vs soft observations,
// ancestor-directory dependencies, and happens-before classification.

#include <gtest/gtest.h>

#include "pfsem/core/metadata_conflict.hpp"
#include "pfsem/trace/serialize.hpp"

namespace pfsem::core {
namespace {

using trace::Func;
using trace::Layer;

class NsTraceBuilder {
 public:
  explicit NsTraceBuilder(int nranks) { bundle_.nranks = nranks; }

  NsTraceBuilder& create(Rank r, const std::string& path) {
    add(r, Func::open, path, trace::kCreate, /*ret=*/3);
    return *this;
  }
  NsTraceBuilder& open_existing(Rank r, const std::string& path) {
    add(r, Func::open, path, trace::kRdOnly, /*ret=*/3);
    return *this;
  }
  NsTraceBuilder& mkdir(Rank r, const std::string& path) {
    add(r, Func::mkdir, path, 0, 0);
    return *this;
  }
  NsTraceBuilder& unlink(Rank r, const std::string& path) {
    add(r, Func::unlink, path, 0, 0);
    return *this;
  }
  NsTraceBuilder& stat(Rank r, const std::string& path, bool ok) {
    add(r, Func::stat, path, 0, ok ? 0 : -1);
    return *this;
  }
  NsTraceBuilder& readdir(Rank r, const std::string& path) {
    add(r, Func::readdir, path, 0, 0);
    return *this;
  }
  NsTraceBuilder& barrier_all() {
    trace::CollectiveEvent ev;
    ev.kind = trace::CollectiveKind::Barrier;
    ev.root = kNoRank;
    for (Rank r = 0; r < bundle_.nranks; ++r) {
      ev.arrivals.push_back({r, t_, t_ + 5});
    }
    t_ += 10;
    trace::detail::put_collective(bundle_.comm.collectives, ev);
    ++bundle_.comm.collective_count;
    return *this;
  }

  [[nodiscard]] const trace::TraceBundle& bundle() const { return bundle_; }

 private:
  void add(Rank r, Func f, const std::string& path, int flags, std::int64_t ret) {
    trace::Record rec;
    rec.tstart = t_;
    rec.tend = t_ + 5;
    t_ += 10;
    rec.rank = r;
    rec.layer = Layer::Posix;
    rec.func = f;
    rec.file = bundle_.intern(path);
    rec.flags = flags;
    rec.ret = ret;
    bundle_.records.push_back(std::move(rec));
  }
  trace::TraceBundle bundle_;
  SimTime t_ = 0;
};

TEST(MetadataDeps, OpenExistingAfterRemoteCreateIsHardDep) {
  NsTraceBuilder tb(2);
  tb.create(0, "shared").open_existing(1, "shared");
  const auto rep = detect_metadata_dependencies(tb.bundle());
  EXPECT_EQ(rep.cross_process, 1u);
  EXPECT_EQ(rep.hard_cross_process, 1u);
  ASSERT_EQ(rep.dependencies.size(), 1u);
  EXPECT_EQ(rep.dependencies[0].mutate.rank, 0);
  EXPECT_EQ(rep.dependencies[0].observe.rank, 1);
  EXPECT_TRUE(rep.dependencies[0].observe.hard);
  EXPECT_FALSE(rep.metadata_independent());
}

TEST(MetadataDeps, ConcurrentCreatesAreTolerant) {
  NsTraceBuilder tb(2);
  tb.create(0, "shared").create(1, "shared");  // second O_CREAT open
  const auto rep = detect_metadata_dependencies(tb.bundle());
  EXPECT_EQ(rep.cross_process, 0u) << "O_CREAT opens tolerate missing files";
}

TEST(MetadataDeps, SameRankNeverDepends) {
  NsTraceBuilder tb(2);
  tb.create(0, "f").open_existing(0, "f").stat(0, "f", true);
  EXPECT_TRUE(detect_metadata_dependencies(tb.bundle()).metadata_independent());
}

TEST(MetadataDeps, SuccessfulStatIsSoftDep) {
  NsTraceBuilder tb(2);
  tb.create(0, "marker").stat(1, "marker", true);
  const auto rep = detect_metadata_dependencies(tb.bundle());
  EXPECT_EQ(rep.cross_process, 1u);
  EXPECT_EQ(rep.hard_cross_process, 0u);
  EXPECT_TRUE(rep.lazy_metadata_safe())
      << "soft probes degrade to polling, not incorrectness";
}

TEST(MetadataDeps, FailedStatObservesNothing) {
  NsTraceBuilder tb(2);
  tb.stat(1, "marker", false).create(0, "marker").stat(1, "marker", false);
  EXPECT_EQ(detect_metadata_dependencies(tb.bundle()).cross_process, 0u);
}

TEST(MetadataDeps, ReaddirIsHard) {
  NsTraceBuilder tb(2);
  tb.mkdir(0, "out").readdir(1, "out");
  const auto rep = detect_metadata_dependencies(tb.bundle());
  EXPECT_EQ(rep.hard_cross_process, 1u);
}

TEST(MetadataDeps, AncestorDirectoryCountsAsMutation) {
  NsTraceBuilder tb(2);
  tb.mkdir(0, "out.bp").open_existing(1, "out.bp/data.0");
  const auto rep = detect_metadata_dependencies(tb.bundle());
  EXPECT_EQ(rep.cross_process, 1u);
  EXPECT_EQ(rep.dependencies[0].mutate.func, trace::Func::mkdir);
}

TEST(MetadataDeps, ExactPathBeatsAncestor) {
  NsTraceBuilder tb(3);
  tb.mkdir(0, "dir").create(1, "dir/f").open_existing(2, "dir/f");
  const auto rep = detect_metadata_dependencies(tb.bundle());
  ASSERT_GE(rep.dependencies.size(), 1u);
  // The observation of dir/f must pair with the file create, not mkdir.
  const auto& dep = rep.dependencies.back();
  EXPECT_EQ(dep.mutate.rank, 1);
  EXPECT_EQ(tb.bundle().paths.view(dep.mutate.file), "dir/f");
}

TEST(MetadataDeps, UnlinkIsAMutation) {
  NsTraceBuilder tb(2);
  tb.create(0, "f").open_existing(1, "f").unlink(1, "f").stat(0, "f", true);
  const auto rep = detect_metadata_dependencies(tb.bundle());
  // Three dependencies: open_existing(1) after create(0); unlink(1) after
  // create(0) (removing a name requires seeing it); stat(0) after
  // unlink(1).
  EXPECT_EQ(rep.cross_process, 3u);
}

TEST(MetadataDeps, BarrierMakesDependencySynchronized) {
  NsTraceBuilder tb(2);
  tb.create(0, "f").barrier_all().open_existing(1, "f");
  const core::HappensBefore hb(trace::decode_comm(tb.bundle().comm, 2), 2);
  const auto rep = detect_metadata_dependencies(tb.bundle(), &hb);
  EXPECT_EQ(rep.cross_process, 1u);
  EXPECT_EQ(rep.unsynchronized, 0u);
  EXPECT_TRUE(rep.lazy_metadata_safe());
}

TEST(MetadataDeps, NoBarrierMeansUnsynchronized) {
  NsTraceBuilder tb(2);
  tb.create(0, "f").open_existing(1, "f");
  const core::HappensBefore hb(trace::decode_comm(tb.bundle().comm, 2), 2);
  const auto rep = detect_metadata_dependencies(tb.bundle(), &hb);
  EXPECT_EQ(rep.hard_unsynchronized, 1u);
  EXPECT_FALSE(rep.lazy_metadata_safe());
}

TEST(MetadataDeps, ExampleCapKeepsCountsExact) {
  NsTraceBuilder tb(2);
  tb.create(0, "f");
  for (int i = 0; i < 50; ++i) tb.stat(1, "f", true);
  const auto rep =
      detect_metadata_dependencies(tb.bundle(), nullptr, {.max_examples = 5});
  EXPECT_EQ(rep.dependencies.size(), 5u);
  EXPECT_EQ(rep.cross_process, 50u);

  // Dependencies on paths under two first components ("a", "b"),
  // interleaved in trace order; the cap cuts through the interleaving.
  // The kept examples are the first five in trace order.
  NsTraceBuilder mixed(3);
  mixed.create(0, "a/x").create(0, "b/y");
  for (int i = 0; i < 6; ++i) {
    mixed.stat(1, "a/x", true).open_existing(2, "b/y");
  }
  const auto& bundle = mixed.bundle();
  const auto capped =
      detect_metadata_dependencies(bundle, nullptr, {.max_examples = 5});
  EXPECT_EQ(capped.cross_process, 12u);
  EXPECT_EQ(capped.hard_cross_process, 6u);
  EXPECT_EQ(capped.unsynchronized, 0u);
  EXPECT_EQ(capped.paths.at(bundle.paths.find("a/x")), 6u);
  EXPECT_EQ(capped.paths.at(bundle.paths.find("b/y")), 6u);
  ASSERT_EQ(capped.dependencies.size(), 5u);
  for (std::size_t i = 0; i < capped.dependencies.size(); ++i) {
    const auto& dep = capped.dependencies[i];
    EXPECT_EQ(bundle.paths.view(dep.observe.file), i % 2 == 0 ? "a/x" : "b/y")
        << "example " << i;
    EXPECT_EQ(dep.observe.t, static_cast<SimTime>(20 + 10 * i))
        << "example " << i;
  }
}

}  // namespace
}  // namespace pfsem::core
