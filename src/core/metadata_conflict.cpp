#include "pfsem/core/metadata_conflict.hpp"

#include <algorithm>
#include <string_view>

namespace pfsem::core {

namespace {

using trace::Func;

/// Does this record mutate the namespace? An open with O_CREAT mutates
/// only when it actually created the file — we approximate "created" as
/// "first successful O_CREAT open of this path in the trace", tracked by
/// the caller.
bool is_observe(Func f) {
  switch (f) {
    case Func::stat:
    case Func::lstat:
    case Func::access:
    case Func::readdir:
    case Func::opendir:
      return true;
    default:
      return false;
  }
}

bool is_plain_mutate(Func f) {
  switch (f) {
    case Func::mkdir:
    case Func::rmdir:
    case Func::unlink:
    case Func::rename:
    case Func::symlink:
    case Func::link:
    case Func::mknod:
      return true;
    default:
      return false;
  }
}

}  // namespace

MetadataConflictReport detect_metadata_dependencies(
    const trace::TraceBundle& bundle, const HappensBefore* hb,
    MetadataConflictOptions opts) {
  const std::size_t npaths = bundle.paths.size();
  // Collect namespace ops in timestamp order. All per-path state below is
  // a FileId-indexed vector over the bundle's intern table.
  std::vector<NsOp> ops;
  std::vector<unsigned char> created(npaths, 0);  // id -> create seen
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    if (bundle.records[i].layer == trace::Layer::Posix) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bundle.records[a].tstart < bundle.records[b].tstart;
  });
  for (std::size_t idx : order) {
    const auto& rec = bundle.records[idx];
    if (!rec.has_path() || bundle.paths.view(rec.file).empty()) continue;
    NsOp op;
    op.t = rec.tstart;
    op.rank = rec.rank;
    op.func = rec.func;
    op.file = rec.file;
    if (rec.func == Func::open && rec.ret >= 0) {
      unsigned char& was_created = created[rec.file];
      if (rec.flags & trace::kCreate) {
        if (was_created) continue;  // concurrent O_CREAT: create-tolerant
        was_created = 1;
        op.kind = NsOpKind::Mutate;  // this open created the file
      } else {
        op.kind = NsOpKind::Observe;  // the name *must* already exist
        op.hard = true;
      }
    } else if (is_plain_mutate(rec.func)) {
      op.kind = NsOpKind::Mutate;
    } else if (is_observe(rec.func)) {
      if (rec.ret < 0) continue;  // failed probe: nothing was observed
      op.kind = NsOpKind::Observe;
      op.hard = rec.func == Func::readdir || rec.func == Func::opendir;
    } else {
      continue;
    }
    ops.push_back(op);
  }

  // Pair each op with the nearest preceding mutation of the same path by
  // a different process, walking the ops once in trace order.
  MetadataConflictReport report;
  std::vector<const NsOp*> last_mutate(npaths, nullptr);
  // Nearest preceding mutation of this exact path, or of an ancestor
  // directory (creating "out.bp" is what makes "out.bp/data.0"
  // reachable). Ancestors resolve through the intern table; a prefix
  // that was never interned was never mutated in the trace.
  auto find_mutate = [&](FileId file) -> const NsOp* {
    if (const NsOp* m = last_mutate[file]) return m;
    const std::string_view path = bundle.paths.view(file);
    for (auto pos = path.rfind('/'); pos != std::string_view::npos && pos > 0;
         pos = path.rfind('/', pos - 1)) {
      const FileId anc = bundle.paths.find(path.substr(0, pos));
      if (anc != kNoFile && last_mutate[anc]) return last_mutate[anc];
    }
    return nullptr;
  };
  for (const NsOp& op : ops) {
    if (const NsOp* m = find_mutate(op.file); m && m->rank != op.rank) {
      ++report.cross_process;
      if (op.hard) ++report.hard_cross_process;
      ++report.paths[op.file];
      MetadataDependency dep;
      dep.mutate = *m;
      dep.observe = op;
      if (hb) {
        dep.synchronized =
            hb->ordered(dep.mutate.rank, dep.mutate.t, op.rank, op.t);
      }
      if (!dep.synchronized) {
        ++report.unsynchronized;
        if (op.hard) ++report.hard_unsynchronized;
      }
      if (report.dependencies.size() < opts.max_examples) {
        report.dependencies.push_back(std::move(dep));
      }
    }
    // Pointers into `ops` stay valid: the vector is fully built above.
    if (op.kind == NsOpKind::Mutate) last_mutate[op.file] = &op;
  }
  return report;
}

}  // namespace pfsem::core
