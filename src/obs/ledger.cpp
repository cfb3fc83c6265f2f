#include "pfsem/obs/ledger.hpp"

#include <algorithm>
#include <bit>

#include "pfsem/util/error.hpp"

namespace pfsem::obs {

const char* to_string(OpClass c) {
  switch (c) {
    case OpClass::Open: return "open";
    case OpClass::Close: return "close";
    case OpClass::Read: return "read";
    case OpClass::Write: return "write";
    case OpClass::Sync: return "sync";
    case OpClass::Meta: return "meta";
  }
  return "?";
}

namespace {

using RankSlots = std::vector<std::pair<Rank, std::uint64_t>>;

/// The slot holding `r` in a table of at least 8 slots, or the empty slot
/// that ends its probe run. Fibonacci hashing keeps strided rank sets
/// (every 8th rank, say) spread over the whole table.
std::size_t rank_slot(const RankSlots& slots, Rank r) {
  const int shift = 64 - std::countr_zero(slots.size());
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) *
       0x9e3779b97f4a7c15ULL) >>
      shift);
  while (slots[i].first != r && slots[i].first != kNoRank) {
    i = (i + 1) & mask;
  }
  return i;
}

/// Double the table (at least 8 slots) and re-place every occupied slot.
void grow(RankSlots& slots) {
  RankSlots bigger(std::max<std::size_t>(8, slots.size() * 2),
                   {kNoRank, 0});
  for (const auto& s : slots) {
    if (s.first != kNoRank) bigger[rank_slot(bigger, s.first)] = s;
  }
  slots.swap(bigger);
}

}  // namespace

void Ledger::record(const LedgerOp& op) {
  if (op.file == kNoFile) return;
  if (op.file >= files_.size()) files_.resize(op.file + 1);
  Entry& e = files_[op.file];
  // Capture happens strictly before analysis-driven retirement, so a
  // condensed file can never see another record; catching it here keeps
  // the early-vs-late condensation byte-identity honest. Hand-rolled
  // instead of require(): that helper builds its std::string message on
  // every call, and this is the ledger's per-record hot path.
  if (e.condensed) [[unlikely]] {
    throw Error("obs ledger: record after condense for this file");
  }
  if (!e.touched) {
    e.touched = true;
    ++touched_files_;
  }
  Cell& c = e.cells[static_cast<std::size_t>(op.cls)];
  ++c.ops;
  c.stall_ns += static_cast<std::uint64_t>(op.stall_ns < 0 ? 0 : op.stall_ns);
  c.bytes += op.bytes;
  c.lock_requests += op.lock_requests;
  c.lock_revocations += op.lock_revocations;
  c.meta_rpcs += op.meta_rpcs;
  c.ost_bytes += op.ost_bytes;
  c.retries += op.retries;
  c.failovers += op.failovers;

  const auto stall =
      static_cast<std::uint64_t>(op.stall_ns < 0 ? 0 : op.stall_ns);
  if (op.rank == kNoRank) return;  // kNoRank marks an empty slot
  if (2 * (e.ranks_touched + 1) > e.rank_stall.size()) grow(e.rank_stall);
  auto& slot = e.rank_stall[rank_slot(e.rank_stall, op.rank)];
  if (slot.first == kNoRank) {
    slot.first = op.rank;
    ++e.ranks_touched;
  }
  slot.second += stall;
}

void Ledger::condense(FileId f) {
  if (f == kNoFile || f >= files_.size()) return;
  Entry& e = files_[f];
  if (e.condensed) return;
  e.condensed = true;
  if (!e.touched) return;
  // Max per-rank stall, ties to the lowest rank (the table is unordered).
  for (const auto& [rank, stall] : e.rank_stall) {
    if (rank == kNoRank) continue;
    if (e.hottest_rank == kNoRank || stall > e.hottest_rank_stall_ns ||
        (stall == e.hottest_rank_stall_ns && rank < e.hottest_rank)) {
      e.hottest_rank = rank;
      e.hottest_rank_stall_ns = stall;
    }
  }
  e.rank_stall.clear();
  e.rank_stall.shrink_to_fit();
}

void Ledger::condense_all() {
  for (FileId f = 0; f < files_.size(); ++f) condense(f);
}

void Ledger::note_path(FileId f, std::string_view path) {
  if (f == kNoFile || f >= files_.size()) return;
  files_[f].path.assign(path);
}

std::size_t Ledger::live_rank_cells() const {
  std::size_t n = 0;
  for (const Entry& e : files_) {
    for (const auto& s : e.rank_stall) n += s.first != kNoRank;
  }
  return n;
}

}  // namespace pfsem::obs
