#pragma once
// vfs::Pfs: the single-server parallel file system, the 1-MDS/1-OST
// preset of PfsCluster (cluster.hpp). `Pfs fs(PfsConfig{...})` builds the
// preset; every operation, counter and cost is PfsCluster's.

#include "pfsem/vfs/cluster.hpp"

namespace pfsem::vfs {

using Pfs = PfsCluster;

}  // namespace pfsem::vfs
