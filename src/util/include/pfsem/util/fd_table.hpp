#pragma once
// Descriptor table indexed by rank, then by fd. Every simulated I/O call
// looks up its descriptor, so a lookup is two bounds-checked indexings,
// whatever the number of ranks or open files.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/util/error.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem {

/// Maps (rank, fd) to a Slot: a nullable handle (std::unique_ptr,
/// std::optional) that is empty when the fd is not open. Each rank's fds
/// only grow (a backend hands them out from 3 upward and never reuses one,
/// because trace records name every open by its fd), so a rank's live fds
/// occupy a window `slots[fd - base]` that slides past closed fds at both
/// ends: a rank that opens files one after another keeps a one-slot
/// window. Every lookup is bounds-checked; a never-opened, closed,
/// negative or other rank's fd is simply not found.
template <class Slot>
class FdTable {
 public:
  /// What a lookup yields: `Slot`'s dereference (shallow-const, so a
  /// unique_ptr slot gives a mutable handle from a const table).
  using Ref = decltype(*std::declval<const Slot&>());
  using Ptr = decltype(&*std::declval<const Slot&>());

  static constexpr int kFirstFd = 3;  ///< 0-2 are the standard streams

  /// Open `s` as rank `r`'s next fd and return that fd.
  int add(Rank r, Slot s) {
    const int fd = std::max(kFirstFd, known(r) ? ranks_[idx(r)].next : 0);
    put(r, fd, std::move(s));
    return fd;
  }

  /// Open `s` under `fd`, handed out by another table: it must be above
  /// every fd rank `r` has used here before.
  void put(Rank r, int fd, Slot s) {
    require(r >= 0 && fd >= 0, "fd table: negative rank or fd");
    if (!known(r)) ranks_.resize(idx(r) + 1);
    RankFds& t = ranks_[idx(r)];
    require(fd >= t.next, "fd table: fd reused");
    t.next = fd + 1;
    if (t.slots.empty()) t.base = fd;
    t.slots.resize(static_cast<std::size_t>(fd - t.base) + 1);
    t.slots.back() = std::move(s);
  }

  /// The open handle, or nullptr for a bad fd.
  [[nodiscard]] Ptr find(Rank r, int fd) const {
    if (!known(r)) return nullptr;
    const RankFds& t = ranks_[idx(r)];
    if (fd < t.base) return nullptr;
    const auto i = static_cast<std::size_t>(fd - t.base);
    return i < t.slots.size() && t.slots[i] ? &*t.slots[i] : nullptr;
  }

  /// find(), throwing pfsem::Error "<op>: bad file descriptor" if absent.
  [[nodiscard]] Ref at(Rank r, int fd, const char* op) const {
    const Ptr p = find(r, fd);
    if (p == nullptr) throw Error(std::string(op) + ": bad file descriptor");
    return *p;
  }

  /// Close `fd` (which must be open) and return its slot.
  Slot remove(Rank r, int fd) {
    (void)at(r, fd, "close");
    RankFds& t = ranks_[idx(r)];
    Slot s = std::move(t.slots[static_cast<std::size_t>(fd - t.base)]);
    t.slots[static_cast<std::size_t>(fd - t.base)] = Slot{};
    while (!t.slots.empty() && !t.slots.back()) t.slots.pop_back();
    const auto live = std::find_if(t.slots.begin(), t.slots.end(),
                                   [](const Slot& x) { return bool(x); });
    t.base += static_cast<int>(live - t.slots.begin());
    t.slots.erase(t.slots.begin(), live);
    return s;
  }

  /// Close every fd of rank `r`; its fd numbering carries on.
  void drop_rank(Rank r) {
    if (known(r)) ranks_[idx(r)].slots.clear();
  }

  /// Visit rank `r`'s open handles in fd order.
  template <class Fn>
  void for_rank(Rank r, Fn&& fn) const {
    if (!known(r)) return;
    for (const Slot& s : ranks_[idx(r)].slots) {
      if (s) fn(*s);
    }
  }

  /// Visit every open handle, by rank then fd.
  template <class Fn>
  void for_all(Fn&& fn) const {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      for_rank(static_cast<Rank>(r), fn);
    }
  }

 private:
  struct RankFds {
    int base = 0;  ///< fd of slots[0]
    int next = 0;  ///< lowest fd not yet used
    std::vector<Slot> slots;
  };

  static std::size_t idx(Rank r) { return static_cast<std::size_t>(r); }
  [[nodiscard]] bool known(Rank r) const {
    return r >= 0 && idx(r) < ranks_.size();
  }

  std::vector<RankFds> ranks_;
};

}  // namespace pfsem
