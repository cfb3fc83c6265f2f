#include "pfsem/trace/spill.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

constexpr char kChunkMagic[8] = {'P', 'F', 'S', 'E', 'M', 'C', 'K', '2'};
constexpr char kChunkMarker = 'C';
constexpr char kTrailerMarker = 'T';
constexpr std::size_t kTailBytes = sizeof(std::uint64_t);

using detail::put_varint;
using detail::unzigzag;
using detail::wrap_add;
using detail::wrap_sub;
using detail::zigzag;

std::string fresh_spill_path() {
  static std::atomic<unsigned> counter{0};
  const auto n = counter.fetch_add(1, std::memory_order_relaxed);
  const auto name = "pfsem-spill-" + std::to_string(::getpid()) + "-" +
                    std::to_string(n) + ".bin";
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Read-only, seekable istream over a store's blocks: replays an
/// unspilled store without copying it. Each block in turn is the get
/// area, so reads run on the streambuf's own fast path.
class BlockStream final : public std::istream {
 public:
  BlockStream(const std::vector<std::unique_ptr<char[]>>& blocks,
              std::size_t block, std::size_t size)
      : std::istream(nullptr), buf_(blocks, block, size) {
    rdbuf(&buf_);
  }

 private:
  class BlockBuf final : public std::streambuf {
   public:
    BlockBuf(const std::vector<std::unique_ptr<char[]>>& blocks,
             std::size_t block, std::size_t size)
        : blocks_(blocks), block_(block), size_(size) {
      load(0);
    }

   protected:
    int_type underflow() override {
      if (gptr() == egptr()) {
        const auto next = base_ + static_cast<std::size_t>(egptr() - eback());
        if (next >= size_) return traits_type::eof();
        load(next);
      }
      return traits_type::to_int_type(*gptr());
    }

    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override {
      const auto size = static_cast<off_type>(size_);
      const off_type base =
          dir == std::ios_base::beg   ? 0
          : dir == std::ios_base::cur ? static_cast<off_type>(base_) +
                                            (gptr() - eback())
                                      : size;
      const off_type to = base + off;
      if (!(which & std::ios_base::in) || to < 0 || to > size) {
        return pos_type(off_type(-1));
      }
      load(static_cast<std::size_t>(to));
      return pos_type(to);
    }

    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
      return seekoff(off_type(pos), std::ios_base::beg, which);
    }

   private:
    /// Make the block holding byte `at` the get area, positioned at `at`.
    /// At the end of the store the get area is empty.
    void load(std::size_t at) {
      if (at >= size_) {
        base_ = size_;
        setg(nullptr, nullptr, nullptr);
        return;
      }
      const std::size_t i = at / block_;
      base_ = i * block_;
      char* const b = blocks_[i].get();
      setg(b, b + (at - base_), b + std::min(block_, size_ - base_));
    }

    const std::vector<std::unique_ptr<char[]>>& blocks_;
    std::size_t block_;
    std::size_t size_;
    std::size_t base_ = 0;  ///< store offset of eback()
  };
  BlockBuf buf_;
};

}  // namespace

SpillStore::SpillStore(std::size_t memory_ceiling)
    : ceiling_(memory_ceiling),
      block_(std::clamp(memory_ceiling, std::size_t{1}, kBlockBytes)) {}

SpillStore::~SpillStore() {
  if (!path_.empty()) {
    file_.close();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
}

void SpillStore::append(std::string_view bytes) {
  // Readers view the blocks or read the file in place: both must stay
  // frozen.
  require(!reading_, "SpillStore::append after open_read");
  if (path_.empty() && total_ + bytes.size() > ceiling_) {
    path_ = fresh_spill_path();
    file_.open(path_, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(file_), "cannot open spill file " + path_);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      file_.write(blocks_[i].get(), static_cast<std::streamsize>(std::min(
                                        block_, total_ - i * block_)));
    }
    blocks_.clear();
    blocks_.shrink_to_fit();
  }
  if (!path_.empty()) {
    file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    require(static_cast<bool>(file_), "spill file write failure");
    total_ += bytes.size();
    return;
  }
  while (!bytes.empty()) {
    if (total_ == blocks_.size() * block_) {
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_));
    }
    const std::size_t at = total_ - (blocks_.size() - 1) * block_;
    const std::size_t n = std::min(bytes.size(), block_ - at);
    std::memcpy(blocks_.back().get() + at, bytes.data(), n);
    bytes.remove_prefix(n);
    total_ += n;
  }
  peak_mem_ = std::max(peak_mem_, total_);
}

std::unique_ptr<std::istream> SpillStore::open_read() {
  reading_ = true;
  if (path_.empty()) {
    return std::make_unique<BlockStream>(blocks_, block_, total_);
  }
  file_.flush();
  auto in = std::make_unique<std::ifstream>(path_, std::ios::binary);
  require(static_cast<bool>(*in), "cannot reopen spill file " + path_);
  return in;
}

namespace {

/// Read the magic and the rank count. The magics of the two formats
/// older pfsem builds wrote are named, with the way to a current trace.
int read_header(detail::ByteReader& in) {
  char magic[8];
  require(in.read(magic, sizeof magic), "not a pfsem chunk stream");
  const std::string_view m(magic, sizeof magic);
  if (m == "PFSEMTRC" || m == "PFSEMTR2") {
    throw Error(std::string(m == "PFSEMTRC" ? "a v1" : "a compact v2") +
                " trace (" + std::string(m) +
                ") is a format pfsem no longer reads; regenerate it with "
                "`pfsem trace <config> out.trc` and the run's original "
                "options, which a saved trace does not record");
  }
  require(m == std::string_view(kChunkMagic, sizeof kChunkMagic),
          "not a pfsem chunk stream");
  const auto nranks = in.varint();
  require(nranks > 0 && nranks < (1 << 24), "bad rank count");
  return static_cast<int>(nranks);
}

/// One budget section: a length that must be `n`, then n counts that
/// must fit in `*left` (what the section may still claim), which they
/// shrink. Kept in `*out` if it is not null.
void read_budgets(detail::ByteReader& in, std::uint64_t n,
                  std::uint64_t* left, std::vector<std::uint64_t>* out) {
  require(in.varint() == n, "budget section length mismatch in chunk stream");
  if (out != nullptr) {
    out->clear();
    out->reserve(std::min(n, detail::kMaxReserve));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = in.varint();
    require(v <= *left, "budget exceeds the record count in chunk stream");
    *left -= v;
    if (out != nullptr) out->push_back(v);
  }
}

/// What the trailer's head says: its record count and path count.
struct TrailerCounts {
  std::uint64_t records = 0;
  std::uint64_t npaths = 0;
};

/// The trailer after its 'T' marker: everything but the tail. Checks the
/// path table for duplicates without building one unless `paths` is
/// given, and checks both budget sections: their lengths, that the rank
/// budgets sum to at most the record count, and the file budgets to at
/// most the rank budgets (a Posix record counts once in each section
/// if it names a file).
TrailerCounts read_trailer_body(detail::ByteReader& in, int nranks,
                                PathTable* paths,
                                std::vector<std::uint64_t>* rank_counts,
                                std::vector<std::uint64_t>* file_counts,
                                EncodedCommLog* comm) {
  TrailerCounts n;
  n.records = in.varint();
  n.npaths = in.varint();
  require(n.npaths <= (1u << 24), "implausible path-table size");
  // The table's strings, back to back in one buffer, checked for
  // duplicates by sorting views of them.
  std::string bytes;
  std::vector<std::size_t> ends;
  ends.reserve(std::min(n.npaths, detail::kMaxReserve));
  for (std::uint64_t i = 0; i < n.npaths; ++i) {
    in.append_string(bytes);
    ends.push_back(bytes.size());
  }
  std::vector<std::string_view> views;
  views.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    views.emplace_back(bytes.data() + begin, end - begin);
    begin = end;
  }
  if (paths != nullptr) {
    *paths = PathTable{};
    for (const auto v : views) (void)paths->intern(v);
  }
  std::sort(views.begin(), views.end());
  require(std::adjacent_find(views.begin(), views.end()) == views.end(),
          "duplicate path in chunk table");
  std::uint64_t left = n.records;
  read_budgets(in, static_cast<std::uint64_t>(nranks), &left, rank_counts);
  left = n.records - left;  // the Posix records, which file budgets share
  read_budgets(in, n.npaths, &left, file_counts);
  detail::read_comm(in, nranks, comm);
  return n;
}

/// The tail: the trailer's offset as a u64 in host byte order
/// (little-endian on every host pfsem builds for).
std::uint64_t read_tail(detail::ByteReader& in) {
  std::uint64_t at = 0;
  require(in.read(reinterpret_cast<char*>(&at), sizeof at),
          "truncated chunk stream");
  return at;
}

void put_record(std::string& out, const Record& r, SimTime& prev) {
  put_varint(out, static_cast<std::uint64_t>(r.rank));
  // Wrapping deltas: legal times never wrap, and hostile ones decode
  // without overflow. The delta chain spans chunks.
  put_varint(out, zigzag(wrap_sub(r.tstart, prev)));
  put_varint(out, zigzag(wrap_sub(r.tend, r.tstart)));
  prev = r.tstart;
  put_varint(out, static_cast<std::uint64_t>(r.layer) |
                      (static_cast<std::uint64_t>(r.origin) << 3) |
                      (static_cast<std::uint64_t>(r.func) << 6));
  put_varint(out, zigzag(r.fd));
  put_varint(out, zigzag(r.ret));
  put_varint(out, r.offset);
  put_varint(out, r.count);
  put_varint(out, zigzag(r.flags));
  put_varint(out,
             r.file == kNoFile ? 0 : static_cast<std::uint64_t>(r.file) + 1);
}

/// Decode one record's fields up to its file. `last_t` holds each
/// rank's previous tstart, one entry per rank, and is advanced.
void get_record(detail::ByteReader& in, std::vector<SimTime>& last_t,
                Record& out) {
  const auto rank = in.varint();
  require(rank < last_t.size(), "bad record rank");
  out.rank = static_cast<Rank>(rank);
  auto& prev = last_t[rank];
  out.tstart = wrap_add(prev, unzigzag(in.varint()));
  out.tend = wrap_add(out.tstart, unzigzag(in.varint()));
  prev = out.tstart;
  const auto packed = in.varint();
  require((packed & 0x7) < kLayerCount && ((packed >> 3) & 0x7) < kLayerCount,
          "bad layer id in trace");
  out.layer = static_cast<Layer>(packed & 0x7);
  out.origin = static_cast<Layer>((packed >> 3) & 0x7);
  const auto func = packed >> 6;
  require(func < kFuncCount, "bad function id in trace");
  out.func = static_cast<Func>(func);
  out.fd = in.zigzag_int32();
  out.ret = unzigzag(in.varint());
  out.offset = in.varint();
  out.count = in.varint();
  out.flags = in.zigzag_int32();
}

}  // namespace

ChunkWriter::ChunkWriter(SpillStore& store, int nranks)
    : ChunkWriter(&store, nullptr, nranks) {}

ChunkWriter::ChunkWriter(std::ostream& os, int nranks)
    : ChunkWriter(nullptr, &os, nranks) {}

ChunkWriter::ChunkWriter(SpillStore* store, std::ostream* os, int nranks)
    : store_(store), os_(os) {
  require(nranks > 0, "ChunkWriter needs a positive rank count");
  last_t_.assign(static_cast<std::size_t>(nranks), 0);
  rank_posix_counts_.assign(static_cast<std::size_t>(nranks), 0);
  buf_.assign(kChunkMagic, sizeof kChunkMagic);
  put_varint(buf_, static_cast<std::uint64_t>(nranks));
  put(buf_);
  buf_.clear();
}

void ChunkWriter::put(std::string_view bytes) {
  if (store_ != nullptr) {
    store_->append(bytes);
  } else {
    os_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    require(static_cast<bool>(*os_), "trace write failure");
  }
  written_ += bytes.size();
}

void ChunkWriter::flush_chunk() {
  if (chunk_count_ == 0) return;
  std::string head(1, kChunkMarker);
  put_varint(head, expected_seq_ - chunk_count_);
  put_varint(head, chunk_count_);
  put(head);
  put(buf_);
  buf_.clear();
  chunk_count_ = 0;
}

void ChunkWriter::on_records(std::uint64_t base_seq,
                             std::span<const Record> records) {
  require(!finished_, "ChunkWriter fed after finish");
  require(base_seq == expected_seq_, "ChunkWriter fed out of order");
  for (const auto& r : records) {
    require(r.rank >= 0 && std::cmp_less(r.rank, last_t_.size()),
            "ChunkWriter fed a record with a bad rank");
    put_record(buf_, r, last_t_[static_cast<std::size_t>(r.rank)]);
    // The budgets the windowed analysis retires ranks and files by: the
    // same predicate the collector tallies and the analyzer decrements.
    if (r.layer == Layer::Posix) {
      ++rank_posix_counts_[static_cast<std::size_t>(r.rank)];
      if (r.file != kNoFile) {
        if (r.file >= file_posix_counts_.size()) {
          file_posix_counts_.resize(r.file + 1, 0);
        }
        ++file_posix_counts_[r.file];
      }
    }
    ++expected_seq_;
    if (++chunk_count_ == kChunkRecords) flush_chunk();
  }
}

void ChunkWriter::finish(const StreamMeta& meta) {
  require(meta.records == expected_seq_,
          "stream meta record count does not match the chunks written");
  finish(meta.paths, meta.comm);
}

void ChunkWriter::finish(const PathTable& paths, const EncodedCommLog& comm) {
  require(!finished_, "ChunkWriter finished twice");
  require(file_posix_counts_.size() <= paths.size(),
          "record file id outside the trace's path table");
  finished_ = true;
  flush_chunk();
  const std::uint64_t trailer_at = written_;
  buf_.push_back(kTrailerMarker);
  put_varint(buf_, expected_seq_);
  put_varint(buf_, paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    detail::put_string(buf_, paths.view(static_cast<FileId>(i)));
  }
  put_varint(buf_, rank_posix_counts_.size());
  for (const auto c : rank_posix_counts_) put_varint(buf_, c);
  file_posix_counts_.resize(paths.size(), 0);
  put_varint(buf_, file_posix_counts_.size());
  for (const auto c : file_posix_counts_) put_varint(buf_, c);
  put(buf_);
  detail::put_comm(comm, [this](std::string_view bytes) { put(bytes); });
  put(std::string_view(reinterpret_cast<const char*>(&trailer_at),
                       sizeof trailer_at));
  // No more chunks: give the buffers back.
  std::string().swap(buf_);
  std::vector<std::uint64_t>().swap(file_posix_counts_);
}

ChunkReader::ChunkReader(std::istream& is) : in_(is) {
  nranks_ = read_header(in_);
  last_t_.assign(static_cast<std::size_t>(nranks_), 0);
}

bool ChunkReader::next(Record& out) {
  while (chunk_left_ == 0) {
    if (at_trailer_) return false;
    const int marker = in_.get();
    require(marker != std::char_traits<char>::eof(),
            "truncated chunk stream");
    if (marker == kTrailerMarker) {
      at_trailer_ = true;
      trailer_at_ = in_.consumed() - 1;
      if (index_ != nullptr) {
        require(trailer_at_ == index_->trailer_offset,
                "tail does not point at the trailer in chunk stream");
        require(seen_ == index_->records,
                "record count mismatch in chunk stream");
      }
      return false;
    }
    require(marker == kChunkMarker, "bad chunk marker in stream");
    const auto base_seq = in_.varint();
    require(base_seq == seen_, "out-of-order chunk in stream");
    chunk_left_ = in_.varint();
  }
  --chunk_left_;
  ++seen_;
  get_record(in_, last_t_, out);
  const auto fid = in_.varint();
  if (fid == 0) {
    out.file = kNoFile;
  } else {
    require(fid - 1 < file_limit_, "bad path id in chunk stream");
    out.file = static_cast<FileId>(fid - 1);
    max_file_seen_ = std::max(max_file_seen_, fid - 1);
    any_file_seen_ = true;
  }
  return true;
}

void ChunkReader::read_trailer(EncodedCommLog* comm, PathTable* paths) {
  require(at_trailer_, "trailer read before the record stream was drained");
  const auto n =
      read_trailer_body(in_, nranks_, paths, nullptr, nullptr, comm);
  require(n.records == seen_, "record count mismatch in chunk stream");
  require(!any_file_seen_ || max_file_seen_ < n.npaths,
          "bad path id in chunk stream");
  require(read_tail(in_) == trailer_at_,
          "tail does not point at the trailer in chunk stream");
  require(in_.exhausted(), "trailing bytes after the chunk stream's tail");
}

void ChunkReader::follow(const TraceIndex& index) {
  require(seen_ == 0 && !at_trailer_, "follow after records were read");
  require(index.nranks == nranks_, "index of another chunk stream");
  index_ = &index;
  file_limit_ = index.npaths;
}

TraceIndex read_index(std::istream& is) {
  TraceIndex index;
  const std::streampos start = is.tellg();
  index.nranks = ChunkReader(is).nranks();
  is.clear();
  require(static_cast<bool>(is.seekg(-static_cast<std::streamoff>(kTailBytes),
                                     std::ios::end)),
          "reading a chunk stream's trailer first needs a seekable stream");
  const auto size = static_cast<std::uint64_t>(is.tellg() - start);
  detail::ByteReader tail(is);
  index.trailer_offset = read_tail(tail);
  const std::uint64_t at = index.trailer_offset;
  require(at < size, "tail points outside the chunk stream");
  is.seekg(start + static_cast<std::streamoff>(at));
  detail::ByteReader in(is);
  require(in.get() == kTrailerMarker,
          "tail does not point at the trailer in chunk stream");
  const auto n = read_trailer_body(in, index.nranks, &index.paths,
                                   &index.rank_posix_counts,
                                   &index.file_posix_counts, nullptr);
  index.records = n.records;
  index.npaths = n.npaths;
  require(in.consumed() == size - at,
          "trailer does not end at the tail in chunk stream");
  is.clear();
  is.seekg(start);
  return index;
}

void write_compact(const TraceBundle& bundle, std::ostream& os) {
  ChunkWriter writer(os, bundle.nranks);
  writer.on_records(0, bundle.records);
  writer.finish(bundle.paths, bundle.comm);
}

TraceBundle read_chunks(std::istream& is) {
  ChunkReader reader(is);
  TraceBundle b;
  b.nranks = reader.nranks();
  Record rec;
  while (reader.next(rec)) b.records.push_back(rec);
  reader.read_trailer(&b.comm, &b.paths);
  return b;
}

}  // namespace pfsem::trace
