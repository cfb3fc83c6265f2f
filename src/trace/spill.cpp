#include "pfsem/trace/spill.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
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

constexpr char kChunkMagic[8] = {'P', 'F', 'S', 'E', 'M', 'C', 'K', '1'};
constexpr char kChunkMarker = 'C';
constexpr char kTrailerMarker = 'T';

using detail::put_varint;
using detail::unzigzag;
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

ChunkWriter::ChunkWriter(SpillStore& store, int nranks) : store_(store) {
  require(nranks > 0, "ChunkWriter needs a positive rank count");
  last_t_.assign(static_cast<std::size_t>(nranks), 0);
  buf_.assign(kChunkMagic, sizeof kChunkMagic);
  put_varint(buf_, static_cast<std::uint64_t>(nranks));
  store_.append(buf_);
}

void ChunkWriter::on_records(std::uint64_t base_seq,
                             std::span<const Record> records) {
  require(!finished_, "ChunkWriter fed after finish");
  require(base_seq == expected_seq_, "ChunkWriter fed out of order");
  if (records.empty()) return;
  buf_.clear();
  buf_.push_back(kChunkMarker);
  put_varint(buf_, base_seq);
  put_varint(buf_, records.size());
  for (const auto& r : records) {
    auto& prev = last_t_[static_cast<std::size_t>(r.rank)];
    put_varint(buf_, static_cast<std::uint64_t>(r.rank));
    put_varint(buf_, zigzag(r.tstart - prev));  // delta chain spans chunks
    put_varint(buf_, zigzag(r.tend - r.tstart));
    prev = r.tstart;
    put_varint(buf_, static_cast<std::uint64_t>(r.layer) |
                         (static_cast<std::uint64_t>(r.origin) << 3) |
                         (static_cast<std::uint64_t>(r.func) << 6));
    put_varint(buf_, zigzag(r.fd));
    put_varint(buf_, zigzag(r.ret));
    put_varint(buf_, r.offset);
    put_varint(buf_, r.count);
    put_varint(buf_, zigzag(r.flags));
    put_varint(buf_, r.file == kNoFile
                         ? 0
                         : static_cast<std::uint64_t>(r.file) + 1);
  }
  store_.append(buf_);
  expected_seq_ += records.size();
}

void ChunkWriter::finish(const StreamMeta& meta) {
  require(!finished_, "ChunkWriter finished twice");
  require(meta.records == expected_seq_,
          "stream meta record count does not match the chunks written");
  finished_ = true;
  buf_.clear();
  buf_.push_back(kTrailerMarker);
  put_varint(buf_, meta.records);
  put_varint(buf_, meta.paths.size());
  for (std::size_t i = 0; i < meta.paths.size(); ++i) {
    detail::put_string(buf_, meta.paths.view(static_cast<FileId>(i)));
  }
  store_.append(buf_);
  detail::put_comm(meta.comm,
                   [this](std::string_view bytes) { store_.append(bytes); });
  std::string().swap(buf_);  // no more chunks: give the buffer back
}

ChunkReader::ChunkReader(std::istream& is) : in_(is) {
  char magic[8];
  require(in_.read(magic, sizeof magic) &&
              std::equal(std::begin(magic), std::end(magic), kChunkMagic),
          "not a pfsem chunk stream");
  nranks_ = static_cast<int>(in_.varint());
  require(nranks_ > 0 && nranks_ < (1 << 24), "bad rank count");
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
      return false;
    }
    require(marker == kChunkMarker, "bad chunk marker in stream");
    const auto base_seq = in_.varint();
    require(base_seq == seen_, "out-of-order chunk in stream");
    chunk_left_ = in_.varint();
  }
  --chunk_left_;
  ++seen_;
  const auto rank = in_.varint();
  require(rank < static_cast<std::uint64_t>(nranks_), "bad record rank");
  out.rank = static_cast<Rank>(rank);
  auto& prev = last_t_[rank];
  out.tstart = prev + unzigzag(in_.varint());
  out.tend = out.tstart + unzigzag(in_.varint());
  prev = out.tstart;
  const auto packed = in_.varint();
  require((packed & 0x7) < kLayerCount && ((packed >> 3) & 0x7) < kLayerCount,
          "bad layer id in chunk stream");
  out.layer = static_cast<Layer>(packed & 0x7);
  out.origin = static_cast<Layer>((packed >> 3) & 0x7);
  const auto func = packed >> 6;
  require(func < kFuncCount, "bad function id in chunk stream");
  out.func = static_cast<Func>(func);
  out.fd = in_.zigzag_int32();
  out.ret = unzigzag(in_.varint());
  out.offset = in_.varint();
  out.count = in_.varint();
  out.flags = in_.zigzag_int32();
  const auto fid = in_.varint();
  if (fid == 0) {
    out.file = kNoFile;
  } else {
    out.file = static_cast<FileId>(fid - 1);
    max_file_seen_ = std::max(max_file_seen_, fid - 1);
    any_file_seen_ = true;
  }
  return true;
}

void ChunkReader::read_trailer(EncodedCommLog* comm, PathTable* paths) {
  require(at_trailer_, "trailer read before the record stream was drained");
  require(in_.varint() == seen_, "record count mismatch in chunk stream");
  const auto npaths = in_.varint();
  require(npaths <= (1u << 24), "implausible path-table size");
  // The table's strings, back to back in one buffer, checked for
  // duplicates by sorting views of them: no PathTable unless the caller
  // asks for one.
  std::string bytes;
  std::vector<std::size_t> ends;
  ends.reserve(std::min(npaths, detail::kMaxReserve));
  for (std::uint64_t i = 0; i < npaths; ++i) {
    in_.append_string(bytes);
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
  require(!any_file_seen_ || max_file_seen_ < npaths,
          "bad path id in chunk stream");
  detail::read_comm(in_, nranks_, comm);
}

}  // namespace pfsem::trace
