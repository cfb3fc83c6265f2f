// Unit tests for pfsem::util — extents, RNG determinism, table rendering.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "pfsem/util/error.hpp"
#include "pfsem/util/extent.hpp"
#include "pfsem/util/fd_table.hpp"
#include "pfsem/util/rng.hpp"
#include "pfsem/util/table.hpp"

namespace pfsem {
namespace {

TEST(Extent, SizeAndEmpty) {
  EXPECT_EQ((Extent{10, 20}).size(), 10u);
  EXPECT_TRUE((Extent{5, 5}).empty());
  EXPECT_TRUE(Extent{}.empty());
  EXPECT_FALSE((Extent{0, 1}).empty());
}

TEST(Extent, OverlapBasics) {
  const Extent a{10, 20};
  EXPECT_TRUE(a.overlaps({15, 25}));
  EXPECT_TRUE(a.overlaps({0, 11}));
  EXPECT_TRUE(a.overlaps({12, 13}));
  EXPECT_FALSE(a.overlaps({20, 30})) << "half-open: touching is not overlap";
  EXPECT_FALSE(a.overlaps({0, 10}));
  EXPECT_FALSE(a.overlaps({}));
}

TEST(Extent, EmptyNeverOverlaps) {
  EXPECT_FALSE((Extent{10, 10}).overlaps({0, 100}));
  EXPECT_FALSE((Extent{0, 100}).overlaps({10, 10}));
}

TEST(Extent, Contains) {
  const Extent a{10, 20};
  EXPECT_TRUE(a.contains(Extent{10, 20}));
  EXPECT_TRUE(a.contains(Extent{12, 15}));
  EXPECT_FALSE(a.contains(Extent{9, 15}));
  EXPECT_FALSE(a.contains(Extent{15, 21}));
  EXPECT_TRUE(a.contains(Offset{10}));
  EXPECT_FALSE(a.contains(Offset{20}));
}

TEST(Extent, Intersect) {
  EXPECT_EQ((Extent{10, 20}).intersect({15, 30}), (Extent{15, 20}));
  EXPECT_TRUE((Extent{10, 20}).intersect({20, 30}).empty());
  EXPECT_EQ((Extent{0, 100}).intersect({40, 50}), (Extent{40, 50}));
}

TEST(Extent, NormalizeMergesAndSorts) {
  std::vector<Extent> v{{30, 40}, {0, 10}, {5, 15}, {15, 20}, {50, 50}};
  normalize(v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (Extent{0, 20}));
  EXPECT_EQ(v[1], (Extent{30, 40}));
  EXPECT_EQ(covered_bytes(v), 30u);
}

TEST(Extent, NormalizeEmptyInput) {
  std::vector<Extent> v;
  normalize(v);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(covered_bytes(v), 0u);
}

// --- FdTable -------------------------------------------------------------

// Random opens and closes over a few ranks, checked after every step
// against a (rank, fd)-keyed map: the sliding per-rank window must find
// exactly the open fds, including long-lived ones far behind the newest.
TEST(FdTable, MatchesAMapUnderRandomOpensAndCloses) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FdTable<std::unique_ptr<int>> table;
    std::map<std::pair<Rank, int>, int> model;
    int next_fd[4] = {3, 3, 3, 3};
    for (int step = 0; step < 400; ++step) {
      const auto r = static_cast<Rank>(rng.below(4));
      if (model.empty() || rng.below(3) != 0) {
        const int fd = table.add(r, std::make_unique<int>(step));
        EXPECT_EQ(fd, next_fd[r]++);
        model[{r, fd}] = step;
      } else {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.below(model.size())));
        EXPECT_EQ(*table.remove(it->first.first, it->first.second),
                  it->second);
        model.erase(it);
      }
      for (Rank q = 0; q < 4; ++q) {
        for (int fd = -1; fd < next_fd[q] + 2; ++fd) {
          const auto it = model.find({q, fd});
          const int* got = table.find(q, fd);
          ASSERT_EQ(got != nullptr, it != model.end()) << q << ":" << fd;
          if (got != nullptr) {
            EXPECT_EQ(*got, it->second);
          }
        }
      }
    }
    std::size_t visited = 0;
    table.for_all([&](int&) { ++visited; });
    EXPECT_EQ(visited, model.size());
  }
}

TEST(FdTable, PutFollowsAnotherTablesFdsAndRejectsReuse) {
  FdTable<std::optional<FileId>> table;
  table.put(2, 5, FileId{7});
  table.put(2, 9, FileId{8});
  EXPECT_EQ(table.at(2, 9, "read"), 8u);
  EXPECT_EQ(table.find(2, 6), nullptr);
  EXPECT_THROW(table.put(2, 9, FileId{1}), Error);  // fds never come back
  EXPECT_THROW(table.put(2, 4, FileId{1}), Error);
  EXPECT_EQ(table.remove(2, 5), FileId{7});
  EXPECT_EQ(table.find(2, 5), nullptr);
  EXPECT_THROW((void)table.at(2, 5, "read"), Error);
  EXPECT_THROW((void)table.remove(2, 5), Error);
  EXPECT_THROW(table.put(-1, 3, FileId{1}), Error);
  table.drop_rank(2);
  EXPECT_EQ(table.find(2, 9), nullptr);
  EXPECT_EQ(table.add(2, FileId{3}), 10);  // numbering carries on
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(123), c2(124);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-50, 50);
    EXPECT_GE(v, -50);
    EXPECT_LE(v, 50);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"app", "class"});
  t.add_row({"FLASH", "M-1"});
  t.add_row({"LBANN-long-name", "N-1"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("FLASH"), std::string::npos);
  EXPECT_NE(text.find("LBANN-long-name"), std::string::npos);
  EXPECT_NE(text.find('+'), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "quote\"inside"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"one", "two"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(ErrorHelpers, RequireThrowsTheMessageAlone) {
  EXPECT_NO_THROW(require(true, "fine"));
  // The message is the text alone: no source path or line of the build.
  try {
    require(false, "m");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "m");
  }
  try {
    require(false, std::string("broken invariant"));
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
  EXPECT_THROW(fail("x"), Error);
}

TEST(Format, PercentAndFixed) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.625), "62.5%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Types, SecondsConversion) {
  using namespace literals;
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(1_ms, 1'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000'000), 1.5);
}

}  // namespace
}  // namespace pfsem
