#pragma once
// The one trace format pfsem writes ("PFSEMCK2", a chunk stream) and the
// bounded spill store a streaming capture writes it into: a saved trace
// is the bytes a streaming capture of the same run spills. The format is
// pinned (tests/test_compact_codec.cpp carries a hand-made fixture):
//
//   header   "PFSEMCK2"  varint(nranks)
//   chunk    'C'  varint(base_seq)  varint(nrec)  nrec × record
//   ...      (kChunkRecords records per chunk, fewer in the last one)
//   trailer  'T'  varint(total_records)
//            varint(npaths)  npaths × (varint(len) bytes)
//            varint(nranks)  nranks × varint(Posix records of the rank)
//            varint(npaths)  npaths × varint(Posix records on the file)
//            comm log               (the EncodedCommLog bytes)
//   tail     8 bytes: the offset of 'T' from the magic, little-endian
//
// A record is varint rank, zig-zag per-rank tstart delta (the delta
// chain continues *across* chunks), zig-zag duration, packed
// layer/origin/func, zig-zag fd, zig-zag ret, offset, count, zig-zag
// flags, then the file: varint(0) for "no file" and varint(file + 1)
// otherwise, because the path table is only final at the trailer.
// base_seq is the global emission seq of the chunk's first record; the
// reader rejects gaps and reordering. Chunks hold a fixed record count,
// so the bytes do not depend on how the collector batched them. The
// budgets are the exact counts the windowed analysis retires ranks and
// files by; the tail lets read_index() read them before any record.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/bundle.hpp"
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

/// What a chunk stream's trailer says before the records are read: the
/// geometry, the path table and the exact Posix budgets (see the format
/// above). read_index() fills it; ChunkReader::follow() checks a replay
/// against it.
struct TraceIndex {
  int nranks = 0;
  std::uint64_t records = 0;
  /// Offset of the trailer's 'T' from the magic (the tail's value).
  std::uint64_t trailer_offset = 0;
  /// paths.size(), which follow() checks file ids against (a caller may
  /// move the table into its analyzer).
  std::uint64_t npaths = 0;
  PathTable paths;
  std::vector<std::uint64_t> rank_posix_counts;  ///< nranks entries
  std::vector<std::uint64_t> file_posix_counts;  ///< one per path
};

/// StreamSink that frames records into the chunk stream, on a SpillStore
/// (a streaming capture) or an ostream (write_compact of a bundle). It
/// tallies the trailer's budgets from the records themselves, so both
/// feeds of the same records write the same bytes.
class ChunkWriter final : public StreamSink {
 public:
  /// Records per chunk (the last chunk holds the rest).
  static constexpr std::size_t kChunkRecords = 4096;

  ChunkWriter(SpillStore& store, int nranks);
  ChunkWriter(std::ostream& os, int nranks);

  void on_records(std::uint64_t base_seq,
                  std::span<const Record> records) override;

  /// Write the last chunk, the trailer (meta.comm's bytes as they are)
  /// and the tail. Must be called exactly once, after the collector's
  /// take_stream() flushed the final batch.
  void finish(const StreamMeta& meta);
  /// finish() for a caller without a StreamMeta: `paths` must name every
  /// file id the records carry.
  void finish(const PathTable& paths, const EncodedCommLog& comm);

 private:
  ChunkWriter(SpillStore* store, std::ostream* os, int nranks);
  void put(std::string_view bytes);
  void flush_chunk();

  SpillStore* store_ = nullptr;
  std::ostream* os_ = nullptr;
  std::uint64_t written_ = 0;  ///< bytes put so far
  std::string buf_;            ///< the open chunk's encoded records
  std::size_t chunk_count_ = 0;
  std::uint64_t expected_seq_ = 0;
  std::vector<SimTime> last_t_;
  std::vector<std::uint64_t> rank_posix_counts_;
  std::vector<std::uint64_t> file_posix_counts_;
  bool finished_ = false;
};

/// Replays a chunk stream record by record, validating framing as it
/// goes. Usage: construct, call next() until it returns false, then
/// read_trailer(); or follow() read_index()'s index before the first
/// next(). The reader decodes from its own block buffer, so it may
/// consume `is` past the end of the chunk stream; `is` must outlive the
/// reader, and a caller that reads the stream again must clear() and
/// seekg() it first.
class ChunkReader {
 public:
  /// Reads the header. Throws pfsem::Error on a bad magic; a trace of a
  /// format older pfsem builds wrote gets an error that names the format
  /// and `pfsem trace <config>` as the way to a current trace.
  explicit ChunkReader(std::istream& is);

  [[nodiscard]] int nranks() const { return nranks_; }

  /// Decode the next record; false once the trailer marker is reached.
  bool next(Record& out);

  /// Read and validate the trailer and the tail: the record count, the
  /// path table (no duplicate, and every file id seen in range), both
  /// budget sections, every comm-log event, and a tail that points at
  /// this trailer and ends the input. The comm log's bytes are kept in
  /// `*comm`, and the path table is built into `*paths`, only for a
  /// caller that passes them; otherwise both are checked and dropped.
  /// Only valid after next() returned false.
  void read_trailer(EncodedCommLog* comm = nullptr,
                    PathTable* paths = nullptr);

  /// Replay against `index` (read_index of the same stream), instead of
  /// reading the trailer after the records: next() then rejects a file id
  /// outside the index's path table as it decodes it, and a trailer
  /// marker where the index does not put it or after another record
  /// count. Call before the first next().
  void follow(const TraceIndex& index);

 private:
  detail::ByteReader in_;
  int nranks_ = 0;
  std::vector<SimTime> last_t_;
  std::uint64_t seen_ = 0;
  std::uint64_t chunk_left_ = 0;
  std::uint64_t max_file_seen_ = 0;
  std::uint64_t trailer_at_ = 0;
  const TraceIndex* index_ = nullptr;  ///< set by follow()
  std::uint64_t file_limit_ = ~std::uint64_t{0};
  bool any_file_seen_ = false;
  bool at_trailer_ = false;
};

/// Read a chunk stream's trailer first: seek to the tail, then to the
/// trailer it points at, and validate the trailer whole (comm-log events
/// included) before any record is read. `is` must be seekable and
/// positioned at the magic, and is left there.
[[nodiscard]] TraceIndex read_index(std::istream& is);

/// Decode a whole chunk stream into a TraceBundle (records, paths, comm
/// log). Throws pfsem::Error on malformed input, an older format
/// included (see ChunkReader's constructor).
[[nodiscard]] TraceBundle read_chunks(std::istream& is);

}  // namespace pfsem::trace
