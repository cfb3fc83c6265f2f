// Differential test of PfsCluster's striping accounting (charge_transfer,
// which sums each touched OST's bytes arithmetically) against a
// brute-force walk of the round-robin layout, one stripe block at a time,
// kept here as the oracle. Seeded random reads and writes over several
// OST counts and stripe blocks cover extents shorter than one block,
// extents touching fewer blocks than there are OSTs and extents spanning
// several full rounds; after every op the per-OST request and byte
// counters, total_bytes and the returned cost must match the walk, also
// under a fault plan that slows one OST for part of the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "pfsem/fault/injector.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/vfs/cluster.hpp"

namespace pfsem::vfs {
namespace {

/// Block-walk accounting of one transfer: which OSTs it touches and how
/// many bytes each serves.
struct Walk {
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> bytes;
  std::uint64_t total_bytes = 0;

  explicit Walk(int osts)
      : requests(static_cast<std::size_t>(osts), 0),
        bytes(static_cast<std::size_t>(osts), 0) {}

  /// Charge `ext`; returns the touched OSTs.
  std::vector<bool> charge(Extent ext, Offset stripe) {
    const std::size_t n = requests.size();
    std::vector<Offset> per_ost(n, 0);
    for (Offset pos = ext.begin; pos < ext.end;) {
      const Offset block = pos / stripe;
      const Offset end = std::min(ext.end, (block + 1) * stripe);
      per_ost[static_cast<std::size_t>(block % n)] += end - pos;
      pos = end;
    }
    std::vector<bool> touched(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      if (per_ost[i] == 0) continue;
      touched[i] = true;
      ++requests[i];
      bytes[i] += per_ost[i];
      total_bytes += per_ost[i];
    }
    return touched;
  }
};

/// Random extent of one of three shapes, at a random (mostly misaligned)
/// offset within the first 64 rounds of the layout.
Extent random_extent(std::mt19937_64& rng, int osts, Offset stripe) {
  const Offset n = static_cast<Offset>(osts);
  auto pick = [&](Offset lo, Offset hi) {
    return std::uniform_int_distribution<Offset>(lo, hi)(rng);
  };
  Offset begin = pick(0, 64 * n * stripe);
  if (pick(0, 3) == 0) begin -= begin % stripe;  // aligned start
  Offset len = 0;
  switch (pick(0, 2)) {
    case 0: len = pick(1, stripe - 1); break;                 // < one block
    case 1: len = pick(stripe, std::max(stripe, (n - 1) * stripe)); break;
    default: len = pick(2 * n * stripe, 5 * n * stripe); break;  // rounds
  }
  if (pick(0, 3) == 0 && len > stripe) len -= len % stripe;  // whole blocks
  return {begin, begin + len};
}

struct Slowdown {
  int ost = 0;
  double factor = 1.0;
  SimTime to = 0;  ///< active over [0, to)
};

/// Drive `ops` random reads and writes through a Commit-model PfsCluster
/// (no lock traffic, so cost = data_latency + transfer) and compare every
/// step with the walk.
void run_diff(int osts, Offset stripe, std::uint64_t seed, int ops,
              const Slowdown* slow) {
  SCOPED_TRACE("osts=" + std::to_string(osts) +
               " stripe=" + std::to_string(stripe) +
               " seed=" + std::to_string(seed) + (slow ? " slowed" : ""));
  ClusterConfig cfg;
  cfg.base.model = ConsistencyModel::Commit;
  cfg.ost_count = osts;
  cfg.stripe = stripe;
  PfsCluster fs(cfg);
  std::unique_ptr<fault::Injector> inj;
  if (slow != nullptr) {
    inj = std::make_unique<fault::Injector>(
        fault::FaultPlan::parse(
            "slow:ost=" + std::to_string(slow->ost) +
            ",factor=" + std::to_string(static_cast<int>(slow->factor)) +
            ",from=0,to=" + std::to_string(slow->to) + "ns"),
        /*seed=*/1, /*ranks_per_node=*/1);
    fs.set_fault_injector(inj.get());
  }
  fs.preload("in", Offset{1} << 30);  // past every random extent
  const int rd = fs.open(0, "in", trace::kRdOnly, 0).fd;
  const int wr = fs.open(0, "out", trace::kCreate | trace::kWrOnly, 0).fd;

  Walk walk(osts);
  std::uint64_t slowed = 0;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const SimTime now = 1000 + static_cast<SimTime>(i) * 1000;
    const Extent ext = random_extent(rng, osts, stripe);
    const bool write = (rng() & 1) != 0;
    const SimDuration cost =
        write ? fs.pwrite(0, wr, ext.begin, ext.size(), now).cost
              : fs.pread(0, rd, ext.begin, ext.size(), now).cost;

    const std::vector<bool> touched = walk.charge(ext, stripe);
    double factor = 1.0;
    if (slow != nullptr && now < slow->to &&
        touched[static_cast<std::size_t>(slow->ost)]) {
      factor = slow->factor;
      ++slowed;
    }
    const auto transfer = static_cast<SimDuration>(
        static_cast<double>(ext.size()) / cfg.base.bytes_per_ns * factor);
    SCOPED_TRACE("op " + std::to_string(i) + " [" +
                 std::to_string(ext.begin) + ", " + std::to_string(ext.end) +
                 ")");
    ASSERT_EQ(cost, cfg.base.data_latency + transfer);
    ASSERT_EQ(fs.ost_stats().requests, walk.requests);
    ASSERT_EQ(fs.ost_stats().bytes, walk.bytes);
    ASSERT_EQ(fs.ost_stats().total_bytes, walk.total_bytes);
  }
  if (inj != nullptr) {
    EXPECT_EQ(inj->stats().slowed_transfers, slowed);
    EXPECT_GT(slowed, 0u) << "the slowdown window must hit some transfers";
  }
}

constexpr int kOsts[] = {1, 3, 4, 8};
constexpr Offset kStripes[] = {4u << 10, 64u << 10, 1u << 20};

TEST(StripingDiff, ChargeMatchesBlockWalk) {
  for (const int osts : kOsts) {
    for (const Offset stripe : kStripes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        run_diff(osts, stripe, seed, 300, nullptr);
      }
    }
  }
}

TEST(StripingDiff, SlowOstStretchesOnlyTheTransfersThatTouchIt) {
  for (const int osts : kOsts) {
    for (const Offset stripe : kStripes) {
      const Slowdown slow{osts - 1, 3.0, 150'000};  // half of 300 ops
      run_diff(osts, stripe, 11, 300, &slow);
    }
  }
}

TEST(StripingDiff, PartialBlocksAtBothEnds) {
  // Hand-picked edges: one byte either side of a block boundary, an
  // extent ending exactly on a boundary, and a round that wraps.
  constexpr Offset kStripe = 4096;
  const Extent edges[] = {
      {kStripe - 1, kStripe + 1},          // 1 byte on each of two OSTs
      {0, kStripe},                        // exactly one block
      {1, kStripe},                        // ends on the boundary
      {kStripe, 2 * kStripe - 1},          // stops one byte short
      {kStripe - 1, 5 * kStripe + 1},      // wraps a 4-OST round
      {3 * kStripe + 7, 11 * kStripe + 9}, // two rounds, ragged ends
  };
  ClusterConfig cfg;
  cfg.base.model = ConsistencyModel::Commit;
  cfg.ost_count = 4;
  cfg.stripe = kStripe;
  PfsCluster fs(cfg);
  const int fd = fs.open(0, "f", trace::kCreate | trace::kWrOnly, 0).fd;
  Walk walk(4);
  for (const Extent& e : edges) {
    (void)fs.pwrite(0, fd, e.begin, e.size(), 10);
    (void)walk.charge(e, kStripe);
    ASSERT_EQ(fs.ost_stats().requests, walk.requests)
        << "[" << e.begin << ", " << e.end << ")";
    ASSERT_EQ(fs.ost_stats().bytes, walk.bytes)
        << "[" << e.begin << ", " << e.end << ")";
  }
}

}  // namespace
}  // namespace pfsem::vfs
