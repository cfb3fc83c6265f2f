#include "pfsem/iolib/posix_io.hpp"

#include <coroutine>
#include <string>
#include <type_traits>
#include <utility>

#include "pfsem/fault/injector.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::iolib {

namespace {

/// Fail-stop boundary check shared by every façade entry point.
void check_crash(const IoContext& ctx, Rank r) {
  if (ctx.injector != nullptr && ctx.injector->crashed(r)) {
    throw sim::TaskKilled(r);
  }
}

/// Ledger attribution collected over one facade call: the vfs counter
/// traffic its attempts consumed plus the retry-loop events. Deltas are
/// snapshotted around each *synchronous* pfs call — never across a
/// co_await, where other ranks' operations interleave and their traffic
/// would be misattributed to this call.
struct CallCosts {
  vfs::CostSnapshot delta;
  std::uint32_t retries = 0;
  std::uint32_t failovers = 0;

  void accumulate(const vfs::CostSnapshot& before,
                  const vfs::CostSnapshot& after) {
    delta.lock_requests += after.lock_requests - before.lock_requests;
    delta.lock_revocations += after.lock_revocations - before.lock_revocations;
    delta.meta_rpcs += after.meta_rpcs - before.meta_rpcs;
    delta.ost_bytes += after.ost_bytes - before.ost_bytes;
  }
};

/// Per-facade-call ledger hook (obs/ledger.hpp): one branch on the
/// nullable obs pointer at construction; when the ledger is off, costs()
/// returns nullptr and every other member is a no-op.
class LedgerScope {
 public:
  LedgerScope(IoContext& ctx, Rank r, obs::OpClass cls)
      : ctx_(ctx),
        r_(r),
        cls_(cls),
        on_(ctx.obs != nullptr && ctx.obs->ledger_on()),
        t0_(ctx.engine->now()) {}

  /// Cost accumulator for Retry, nullptr when the ledger is off.
  [[nodiscard]] CallCosts* costs() { return on_ ? &costs_ : nullptr; }

  /// Bracket one synchronous vfs call on the no-retry paths (close,
  /// lseek): returns fn()'s result with its counter delta accumulated.
  template <class Fn>
  auto snap(Fn&& fn) {
    if (!on_) return fn();
    const vfs::CostSnapshot before = ctx_.pfs->cost_snapshot();
    auto res = fn();
    costs_.accumulate(before, ctx_.pfs->cost_snapshot());
    return res;
  }

  /// Fold the finished call into the ledger. Call after the facade's
  /// final time advance; the stall is now - construction time, so retry
  /// backoffs are included.
  void record(FileId file, std::uint64_t bytes) {
    if (!on_) return;
    ctx_.obs->ledger.record({cls_, file, r_, ctx_.engine->now() - t0_, bytes,
                             costs_.delta.lock_requests,
                             costs_.delta.lock_revocations,
                             costs_.delta.meta_rpcs, costs_.delta.ost_bytes,
                             costs_.retries, costs_.failovers});
  }

 private:
  IoContext& ctx_;
  Rank r_;
  obs::OpClass cls_;
  bool on_;
  SimTime t0_;
  CallCosts costs_;
};

/// One synchronous attempt of `op` at `now`, bracketing the vfs counter
/// snapshot when ledger attribution is on (costs != nullptr).
template <class Op>
auto issue(IoContext& ctx, Op& op, CallCosts* costs, SimTime now) {
  if (costs == nullptr) return op(now);
  const vfs::CostSnapshot before = ctx.pfs->cost_snapshot();
  auto res = op(now);
  costs->accumulate(before, ctx.pfs->cost_snapshot());
  return res;
}

/// The retry path of Retry: await the failed first attempt's cost
/// `res`, then, while the result carries a retryable simulated errno,
/// back off in simulated time and re-issue. Exhausting the budget — or a
/// non-retryable errno such as EROFS from a laminated file — throws
/// pfsem::Error; the degraded-mode stats count it as a give-up.
template <class Op, class Result>
sim::Task<Result> retry_loop(IoContext& ctx, Rank r, Op& op, CallCosts* costs,
                             Result res) {
  co_await ctx.engine->delay(res.cost);
  int failovers = 0;
  for (int attempt = 1; res.err != 0;) {
    // Server failover is its own budget: EHOSTDOWN means a dead server,
    // and the redirect (after detection + reconnect time) lands on the
    // standby the cluster promoted. Exhausting it — no replica remains —
    // is a loud permanent failure, like any other give-up.
    if (ctx.retry.is_failover(res.err)) {
      if (failovers >= ctx.retry.failover_attempts) {
        if (ctx.injector != nullptr) ctx.injector->note_giveup();
        if (ctx.obs != nullptr && ctx.obs->tracing()) {
          ctx.obs->tracer.instant({obs::kPidIo, r}, "failover give-up",
                                  ctx.engine->now(), {"errno", res.err},
                                  {"redirects", failovers});
        }
        throw Error("simulated I/O failed permanently: no server replica "
                    "remains after " +
                    std::to_string(failovers) +
                    " failover redirect(s): " + fault::errno_name(res.err));
      }
      ++failovers;
      if (costs != nullptr) ++costs->failovers;
      if (ctx.injector != nullptr) ctx.injector->note_failover_redirect();
      if (ctx.obs != nullptr && ctx.obs->tracing()) {
        ctx.obs->tracer.instant({obs::kPidIo, r}, "failover redirect",
                                ctx.engine->now(), {"errno", res.err},
                                {"redirect", failovers});
      }
      co_await ctx.engine->delay(ctx.retry.failover_backoff);
      check_crash(ctx, r);
      res = issue(ctx, op, costs, ctx.engine->now());
      co_await ctx.engine->delay(res.cost);
      continue;
    }
    if (!ctx.retry.is_retryable(res.err) ||
        attempt >= ctx.retry.max_attempts) {
      if (ctx.injector != nullptr) ctx.injector->note_giveup();
      if (ctx.obs != nullptr && ctx.obs->tracing()) {
        ctx.obs->tracer.instant({obs::kPidIo, r}, "retry give-up",
                                ctx.engine->now(), {"errno", res.err},
                                {"attempts", attempt});
      }
      throw Error("simulated I/O failed permanently after " +
                  std::to_string(attempt) +
                  " attempt(s): " + fault::errno_name(res.err));
    }
    if (costs != nullptr) ++costs->retries;
    if (ctx.injector != nullptr) ctx.injector->note_retry();
    if (ctx.obs != nullptr && ctx.obs->tracing()) {
      ctx.obs->tracer.instant({obs::kPidIo, r}, "retry", ctx.engine->now(),
                              {"errno", res.err}, {"attempt", attempt});
    }
    co_await ctx.engine->delay(ctx.retry.backoff_for(attempt));
    check_crash(ctx, r);
    res = issue(ctx, op, costs, ctx.engine->now());
    co_await ctx.engine->delay(res.cost);
    ++attempt;
  }
  co_return res;
}

/// Awaitable for one façade call's vfs operation. Construction runs the
/// first attempt (crash check, then `op` — a callable taking the current
/// simulated time and returning a vfs result struct) in the caller's
/// frame. Awaiting it then waits out the attempt's cost; only a result
/// that carries an errno starts retry_loop, the one coroutine frame on
/// this path. Retries are invisible to callers: the awaited result is the
/// first successful attempt's. Either way the first wake-up is scheduled
/// at the same time and sequence number, so fault-free and faulted runs
/// replay event for event.
template <class Op>
class Retry {
 public:
  using Result = std::invoke_result_t<Op&, SimTime>;

  Retry(IoContext& ctx, Rank r, Op op, CallCosts* costs)
      : ctx_(ctx), r_(r), op_(std::move(op)), costs_(costs) {
    check_crash(ctx_, r_);
    res_ = issue(ctx_, op_, costs_, ctx_.engine->now());
  }

  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    if (res_.err == 0) {
      ctx_.engine->delay(res_.cost).await_suspend(h);
      return std::noop_coroutine();
    }
    loop_ = retry_loop(ctx_, r_, op_, costs_, std::move(res_));
    return std::move(loop_).operator co_await().await_suspend(h);
  }

  Result await_resume() {
    if (!loop_.valid()) return std::move(res_);
    return std::move(loop_).operator co_await().await_resume();
  }

 private:
  IoContext& ctx_;
  Rank r_;
  Op op_;
  CallCosts* costs_;
  Result res_;
  sim::Task<Result> loop_;
};

}  // namespace

PosixIo::PosixIo(IoContext ctx, trace::Layer origin)
    : ctx_(ctx), origin_(origin) {
  require(ctx_.valid(), "PosixIo needs a fully-wired IoContext");
}

void PosixIo::check_alive(Rank r) const { check_crash(ctx_, r); }

void PosixIo::emit(Rank r, trace::Func f, SimTime t0, SimTime t1, int fd,
                   std::int64_t ret, Offset off, std::uint64_t count, int flags,
                   FileId file) {
  trace::Record rec;
  rec.tstart = t0;
  rec.tend = t1;
  rec.rank = r;
  rec.layer = trace::Layer::Posix;
  rec.origin = origin_;
  rec.func = f;
  rec.fd = fd;
  rec.ret = ret;
  rec.offset = off;
  rec.count = count;
  rec.flags = flags;
  rec.file = file;
  ctx_.collector->emit(rec);
}

FileId PosixIo::file_of(Rank r, int fd) const {
  const FileId* file = fd_files_.find(r, fd);
  require(file != nullptr, "file_of: unknown fd");
  return *file;
}

sim::Task<int> PosixIo::open(Rank r, std::string path, int flags) {
  LedgerScope led(ctx_, r, obs::OpClass::Open);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r,
      [&](SimTime now) { return ctx_.pfs->open(r, path, flags, now); },
      led.costs());
  require(res.fd >= 0, "simulated open failed: " + path);
  // Paths are interned once at open; every later record on this fd
  // carries the id.
  const FileId file = ctx_.collector->intern(path);
  fd_files_.put(r, res.fd, file);
  emit(r, trace::Func::open, t0, ctx_.engine->now(), res.fd, res.fd, 0, 0,
       flags, file);
  led.record(file, 0);
  co_return res.fd;
}

sim::Task<void> PosixIo::close(Rank r, int fd) {
  check_alive(r);
  LedgerScope led(ctx_, r, obs::OpClass::Close);
  const SimTime t0 = ctx_.engine->now();
  const FileId file = file_of(r, fd);
  auto res = led.snap([&] { return ctx_.pfs->close(r, fd, t0); });
  co_await ctx_.engine->delay(res.cost);
  fd_files_.remove(r, fd);
  emit(r, trace::Func::close, t0, ctx_.engine->now(), fd, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
}

sim::Task<std::uint64_t> PosixIo::write(Rank r, int fd, std::uint64_t count) {
  LedgerScope led(ctx_, r, obs::OpClass::Write);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->write(r, fd, count, now); },
      led.costs());
  // res.offset is ground truth for validating offset reconstruction only.
  emit(r, trace::Func::write, t0, ctx_.engine->now(), fd,
       static_cast<std::int64_t>(count), res.offset, count, 0, file_of(r, fd));
  led.record(file_of(r, fd), count);
  co_return count;
}

sim::Task<std::uint64_t> PosixIo::read(Rank r, int fd, std::uint64_t count) {
  LedgerScope led(ctx_, r, obs::OpClass::Read);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->read(r, fd, count, now); },
      led.costs());
  last_read_ = std::move(res.extents);
  emit(r, trace::Func::read, t0, ctx_.engine->now(), fd,
       static_cast<std::int64_t>(res.bytes), res.offset, count, 0,
       file_of(r, fd));
  led.record(file_of(r, fd), res.bytes);
  co_return res.bytes;
}

sim::Task<std::uint64_t> PosixIo::pwrite(Rank r, int fd, Offset off,
                                         std::uint64_t count) {
  LedgerScope led(ctx_, r, obs::OpClass::Write);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r,
      [&](SimTime now) { return ctx_.pfs->pwrite(r, fd, off, count, now); },
      led.costs());
  (void)res;
  emit(r, trace::Func::pwrite, t0, ctx_.engine->now(), fd,
       static_cast<std::int64_t>(count), off, count, 0, file_of(r, fd));
  led.record(file_of(r, fd), count);
  co_return count;
}

sim::Task<std::uint64_t> PosixIo::pread(Rank r, int fd, Offset off,
                                        std::uint64_t count) {
  LedgerScope led(ctx_, r, obs::OpClass::Read);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r,
      [&](SimTime now) { return ctx_.pfs->pread(r, fd, off, count, now); },
      led.costs());
  last_read_ = std::move(res.extents);
  emit(r, trace::Func::pread, t0, ctx_.engine->now(), fd,
       static_cast<std::int64_t>(res.bytes), off, count, 0, file_of(r, fd));
  led.record(file_of(r, fd), res.bytes);
  co_return res.bytes;
}

sim::Task<std::int64_t> PosixIo::lseek(Rank r, int fd, std::int64_t offset,
                                       int whence) {
  check_alive(r);
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = led.snap([&] { return ctx_.pfs->lseek(r, fd, offset, whence, t0); });
  require(res.ret >= 0, "simulated lseek failed");
  co_await ctx_.engine->delay(res.cost);
  emit(r, trace::Func::lseek, t0, ctx_.engine->now(), fd, res.ret,
       static_cast<Offset>(offset), 0, whence, file_of(r, fd));
  led.record(file_of(r, fd), 0);
  co_return res.ret;
}

sim::Task<void> PosixIo::fsync(Rank r, int fd) {
  LedgerScope led(ctx_, r, obs::OpClass::Sync);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->fsync(r, fd, now); },
      led.costs());
  emit(r, trace::Func::fsync, t0, ctx_.engine->now(), fd, res.ret, 0, 0, 0,
       file_of(r, fd));
  led.record(file_of(r, fd), 0);
}

sim::Task<void> PosixIo::fdatasync(Rank r, int fd) {
  LedgerScope led(ctx_, r, obs::OpClass::Sync);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->fsync(r, fd, now); },
      led.costs());
  emit(r, trace::Func::fdatasync, t0, ctx_.engine->now(), fd, res.ret, 0, 0, 0,
       file_of(r, fd));
  led.record(file_of(r, fd), 0);
}

sim::Task<void> PosixIo::ftruncate(Rank r, int fd, Offset length) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r,
      [&](SimTime now) { return ctx_.pfs->ftruncate(r, fd, length, now); },
      led.costs());
  emit(r, trace::Func::ftruncate, t0, ctx_.engine->now(), fd, res.ret, length,
       0, 0, file_of(r, fd));
  led.record(file_of(r, fd), 0);
}

sim::Task<void> PosixIo::meta_call(Rank r, trace::Func f, FileId file,
                                   SimDuration cost, std::int64_t ret) {
  check_alive(r);
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  co_await ctx_.engine->delay(cost);
  emit(r, f, t0, ctx_.engine->now(), -1, ret, 0, 0, 0, file);
  led.record(file, 0);
}

sim::Task<std::int64_t> PosixIo::stat(Rank r, std::string path) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->stat(path, now); },
      led.costs());
  const FileId file = ctx_.collector->intern(path);
  emit(r, trace::Func::stat, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::lstat(Rank r, std::string path) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->stat(path, now); },
      led.costs());
  const FileId file = ctx_.collector->intern(path);
  emit(r, trace::Func::lstat, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::fstat(Rank r, int fd) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  const FileId file = file_of(r, fd);
  auto res = co_await Retry(
      ctx_, r,
      [&](SimTime now) {
        return ctx_.pfs->stat(std::string(ctx_.collector->path_view(file)),
                              now);
      },
      led.costs());
  emit(r, trace::Func::fstat, t0, ctx_.engine->now(), fd, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::access(Rank r, std::string path) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->access(path, now); },
      led.costs());
  const FileId file = ctx_.collector->intern(path);
  emit(r, trace::Func::access, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::unlink(Rank r, std::string path) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->unlink(path, now); },
      led.costs());
  const FileId file = ctx_.collector->intern(path);
  emit(r, trace::Func::unlink, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::mkdir(Rank r, std::string path) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->mkdir(path, now); },
      led.costs());
  const FileId file = ctx_.collector->intern(path);
  emit(r, trace::Func::mkdir, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<std::int64_t> PosixIo::rename(Rank r, std::string from,
                                        std::string to) {
  LedgerScope led(ctx_, r, obs::OpClass::Meta);
  const SimTime t0 = ctx_.engine->now();
  auto res = co_await Retry(
      ctx_, r, [&](SimTime now) { return ctx_.pfs->rename(from, to, now); },
      led.costs());
  // The record carries the source path's id; on success the destination
  // name aliases that id so the file keeps one dense slot across the
  // rename. A failed rename touches no namespace, so no alias.
  const FileId file = res.ret == 0 ? ctx_.collector->intern_rename(from, to)
                                   : ctx_.collector->intern(from);
  emit(r, trace::Func::rename, t0, ctx_.engine->now(), -1, res.ret, 0, 0, 0,
       file);
  led.record(file, 0);
  co_return res.ret;
}

sim::Task<void> PosixIo::getcwd(Rank r) {
  return meta_call(r, trace::Func::getcwd, kNoFile, 100, 0);
}
sim::Task<void> PosixIo::umask(Rank r) {
  return meta_call(r, trace::Func::umask, kNoFile, 100, 0);
}
sim::Task<void> PosixIo::fcntl(Rank r, int fd) {
  return meta_call(r, trace::Func::fcntl, file_of(r, fd), 200, 0);
}
sim::Task<void> PosixIo::dup(Rank r, int fd) {
  return meta_call(r, trace::Func::dup, file_of(r, fd), 200, 0);
}
sim::Task<void> PosixIo::readdir(Rank r, std::string path) {
  return meta_call(r, trace::Func::readdir, ctx_.collector->intern(path),
                   ctx_.pfs->meta_latency(), 0);
}

}  // namespace pfsem::iolib
