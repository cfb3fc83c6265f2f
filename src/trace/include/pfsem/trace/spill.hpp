#pragma once
// Bounded spill store + chunked compact-v2 framing ("PFSEMCK1").
//
// A streaming capture spills fixed-size record chunks as the collector's
// pending batch fills, then replays them after the run for analysis or
// transcode.
// The spill byte format is pinned (tests/test_compact_codec.cpp carries a
// hand-crafted fixture):
//
//   header   "PFSEMCK1"  varint(nranks)
//   chunk    'C'  varint(base_seq)  varint(nrec)  nrec × record
//   ...                                       (any number of chunks)
//   trailer  'T'  varint(total_records)
//            varint(npaths)  npaths × (varint(len) bytes)
//            comm log               (identical encoding to compact v2)
//
// Records use the compact-v2 field encoding (varint rank, zig-zag
// per-rank tstart delta — the delta chain continues *across* chunks —
// zig-zag duration, packed layer/origin/func, fd, ret, offset, count,
// flags) with one difference: the file field is varint(0) for "no file"
// and varint(file + 1) otherwise, because the intern table is unknown
// until the trailer so the empty-slot trick of compact v2 cannot work
// mid-stream. base_seq is the global emission seq of the chunk's first
// record; the reader rejects gaps and reordering.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/stream.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::trace {

/// Append-only byte store with a memory ceiling: bytes live in memory
/// until the ceiling is crossed, then everything stored so far (and
/// everything after it) spills to a private temp file that is removed on
/// destruction. This is the only place the streaming pipeline's memory
/// can grow with run length, and it is capped here. In memory, bytes
/// fill fixed-size blocks one after another, so an append never moves
/// what is already stored.
class SpillStore {
 public:
  static constexpr std::size_t kDefaultCeiling = std::size_t{64} << 20;
  /// In-memory block size (smaller when the ceiling is).
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  explicit SpillStore(std::size_t memory_ceiling = kDefaultCeiling);
  ~SpillStore();
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  void append(std::string_view bytes);

  /// Total bytes appended so far.
  [[nodiscard]] std::size_t bytes() const { return total_; }
  /// Peak bytes held in memory — the store's RSS contribution (the last
  /// block's unwritten tail is never touched).
  [[nodiscard]] std::size_t peak_memory() const { return peak_mem_; }
  [[nodiscard]] bool spilled() const { return !path_.empty(); }

  /// Fresh read stream over everything appended so far. The writer side
  /// must be done: appending after open_read() is an error. An unspilled
  /// store hands out a seekable view of its blocks, not a copy, so the
  /// stream must not outlive the store; any number of views may be open
  /// at once.
  [[nodiscard]] std::unique_ptr<std::istream> open_read();

 private:
  std::size_t ceiling_;
  std::size_t block_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::string path_;
  std::ofstream file_;
  std::size_t total_ = 0;
  std::size_t peak_mem_ = 0;
  bool reading_ = false;
};

/// StreamSink that frames collector batches into PFSEMCK1 chunks on a
/// SpillStore. One collector batch == one chunk, so the chunk size is
/// whatever chunk_records the collector was configured with.
class ChunkWriter final : public StreamSink {
 public:
  ChunkWriter(SpillStore& store, int nranks);

  void on_records(std::uint64_t base_seq,
                  std::span<const Record> records) override;

  /// Write the trailer: its head, then meta.comm's bytes as they are.
  /// Must be called exactly once, after the collector's take_stream()
  /// flushed the final batch.
  void finish(const StreamMeta& meta);

 private:
  SpillStore& store_;
  std::string buf_;
  std::vector<SimTime> last_t_;
  std::uint64_t expected_seq_ = 0;
  bool finished_ = false;
};

/// Replays a PFSEMCK1 stream record by record, validating framing as it
/// goes. Usage: construct, call next() until it returns false, then
/// read_trailer(). The reader decodes from its own block buffer, so it
/// may consume `is` past the end of the chunk stream; `is` must outlive
/// the reader, and a caller that reads the stream again must clear() and
/// seekg() it first.
class ChunkReader {
 public:
  explicit ChunkReader(std::istream& is);

  [[nodiscard]] int nranks() const { return nranks_; }
  /// Records decoded so far.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

  /// Decode the next record; false once the trailer marker is reached.
  bool next(Record& out);

  /// Read and validate the trailer: the record count, the path table
  /// (no duplicate, and every file id seen in range) and every comm-log
  /// event. The comm log's bytes are kept in `*comm`, and the path table
  /// is built into `*paths`, only for a caller that passes them;
  /// otherwise both are checked and dropped. Only valid after next()
  /// returned false.
  void read_trailer(EncodedCommLog* comm = nullptr,
                    PathTable* paths = nullptr);

 private:
  detail::ByteReader in_;
  int nranks_ = 0;
  std::vector<SimTime> last_t_;
  std::uint64_t seen_ = 0;
  std::uint64_t chunk_left_ = 0;
  std::uint64_t max_file_seen_ = 0;
  bool any_file_seen_ = false;
  bool at_trailer_ = false;
};

}  // namespace pfsem::trace
