// PFS advisor: run one of the bundled application models (or all of them)
// and report the weakest consistency model it can run on, plus real-world
// file systems in that class (Table 1).
//
//   $ ./pfs_advisor                 # all configurations
//   $ ./pfs_advisor FLASH-fbs       # one configuration
//   $ ./pfs_advisor --list          # list configuration names

#include <iostream>
#include <string>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/util/table.hpp"

namespace {

using namespace pfsem;

const char* filesystems_for(vfs::ConsistencyModel m) {
  switch (m) {
    case vfs::ConsistencyModel::Strong:
      return "GPFS, Lustre, GekkoFS, BeeGFS, BatchFS, OrangeFS";
    case vfs::ConsistencyModel::Commit:
      return "BSCFS, UnifyFS, SymphonyFS, BurstFS";
    case vfs::ConsistencyModel::Session:
      return "NFS, AFS, DDN IME, Gfarm/BB (and anything stronger)";
    case vfs::ConsistencyModel::Eventual:
      return "PLFS, echofs, MarFS (and anything stronger)";
  }
  return "?";
}

void advise_one(const apps::AppInfo& info, Table& table) {
  apps::AppConfig cfg;
  cfg.nranks = 64;
  const auto bundle = apps::run_app(info, cfg);
  const auto log = core::reconstruct_accesses(bundle);
  const auto report = core::detect_conflicts(log);
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, cfg.nranks),
                               cfg.nranks);
  const auto advice = core::advise(report, &hb);
  table.add_row({info.name, vfs::to_string(advice.weakest),
                 filesystems_for(advice.weakest)});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "";
  if (arg == "--list") {
    for (const auto& info : apps::registry()) std::cout << info.name << "\n";
    return 0;
  }
  Table t({"Configuration", "weakest safe model", "suitable file systems"});
  if (!arg.empty()) {
    const auto* info = apps::find_app(arg);
    if (!info) {
      std::cerr << "unknown configuration '" << arg
                << "' (use --list to see the options)\n";
      return 1;
    }
    advise_one(*info, t);
  } else {
    for (const auto& info : apps::registry()) advise_one(info, t);
  }
  t.print(std::cout);
  std::cout << "\n('weakest safe' assumes the PFS orders same-process "
               "accesses, which all studied systems except BurstFS do.)\n";
  return 0;
}
