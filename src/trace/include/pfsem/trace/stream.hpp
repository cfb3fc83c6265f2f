#pragma once
// Streaming capture interface: a Collector in streaming mode hands
// finished records to a StreamSink in global emission (seq) order instead
// of accumulating a TraceBundle, and finishes by handing over a
// StreamMeta — everything a TraceBundle carries *except* the record
// column. The sink of record is ChunkWriter (spill.hpp), which frames the
// records into the pinned chunk format on a bounded SpillStore; tests
// install small in-memory sinks to observe the chunking contract.

#include <cstdint>
#include <span>
#include <vector>

#include "pfsem/trace/comm_log.hpp"
#include "pfsem/trace/path_table.hpp"
#include "pfsem/trace/record.hpp"

namespace pfsem::trace {

/// Receives the record stream of one capture. `base_seq` is the global
/// emission sequence number of `records[0]`; calls arrive with strictly
/// increasing, gapless base_seq (base_seq == total records delivered so
/// far), so the concatenation of all batches *is* the bundle's record
/// column in emission order.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void on_records(std::uint64_t base_seq,
                          std::span<const Record> records) = 0;
};

/// Everything of a run's capture except the streamed-away records: the
/// geometry, the final intern table, the comm log, and the per-column
/// sizing hints. Produced by Collector::take_stream() once the run is
/// done — streaming analysis is a post-capture phase, so the path table
/// is final by the time anyone consumes this.
struct StreamMeta {
  int nranks = 0;
  PathTable paths;
  /// The comm log in its trailer encoding, the same bytes a materialized
  /// capture's TraceBundle::comm holds. ChunkWriter::finish and the
  /// compact v2 transcode copy it on as is.
  EncodedCommLog comm;
  /// Per-FileId op-count hints (same contract as
  /// TraceBundle::file_op_counts — advisory, never serialized).
  std::vector<std::uint32_t> file_op_counts;
  /// Per-rank count of Posix-layer records in the stream. The streaming
  /// reconstructor's reorder buffer uses these to retire ranks that have
  /// no Posix records left, so ranks that never touch the fs (or finish
  /// early) do not pin the release frontier. Advisory, never serialized.
  std::vector<std::uint64_t> rank_posix_counts;
  /// Per-FileId count of Posix-layer records carrying that file id —
  /// exact, because windowed retirement depends on it (file_op_counts
  /// only sizes columns).
  /// Windowed analysis decrements these as records replay; a file whose
  /// count hits zero can never be touched again, so its per-file state
  /// retires from the window. Advisory, never serialized.
  std::vector<std::uint64_t> file_posix_counts;
  std::uint64_t records = 0;
};

}  // namespace pfsem::trace
