#pragma once
// LEB128 varint and zig-zag primitives of the trace codec: the chunk
// stream (spill.cpp) and the comm-log events it carries (compact.cpp).
// There is one encoder and one decoder: writers append to a std::string
// and hand the stream whole blocks; readers decode through a ByteReader,
// which pulls the stream's bytes in fixed blocks and walks them with
// plain pointer reads. Both sides of the format use exactly these
// functions, so the encodings cannot drift apart.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <string>
#include <string_view>

#include "pfsem/util/error.hpp"

namespace pfsem::trace::detail {

/// Block size of ByteReader refills and of streamed writers' flushes.
inline constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

/// Counts read from input are untrusted: decoders reserve at most this
/// many elements up front and let the container grow as elements
/// actually decode, so a few hostile bytes cannot claim a large buffer.
inline constexpr std::uint64_t kMaxReserve = 4096;

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// a - b and a + b modulo 2^64. Record and comm-event times are stored
/// as deltas, and a decoder re-encodes whatever int64 times its input
/// holds: a wrapping delta cannot overflow, and wrapping back restores
/// the value.
constexpr std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

constexpr std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Narrow a decoded field that was written from an int32 (fd, flags,
/// rank, tag). A value outside int32 is malformed input: truncating it
/// would let 2^32 + 1 pass as 1 and re-encode to different bytes.
inline std::int32_t to_int32(std::int64_t v) {
  require(v >= INT32_MIN && v <= INT32_MAX,
          "int32 field out of range in trace");
  return static_cast<std::int32_t>(v);
}

/// Buffered decoder over an istream's streambuf. It refills a fixed
/// kBlockBytes buffer with sgetn, so it may consume bytes past the end of
/// the format it decodes: a caller that reuses the stream afterwards must
/// reposition it (clear() + seekg()). The stream's state flags are not
/// touched; every failure is a pfsem::Error. A reader over bytes already
/// in memory walks them in place.
class ByteReader {
 public:
  explicit ByteReader(std::istream& is)
      : sb_(is.rdbuf()),
        buf_(std::make_unique_for_overwrite<char[]>(kBlockBytes)) {}

  /// Decode `bytes` in place; they must outlive the reader.
  explicit ByteReader(std::string_view bytes)
      : sb_(nullptr),
        begin_(bytes.data()),
        cur_(bytes.data()),
        end_(bytes.data() + bytes.size()) {}

  /// Bytes decoded so far: the input offset of the next byte, counted
  /// from where the reader started.
  [[nodiscard]] std::uint64_t consumed() const {
    return pulled_ + static_cast<std::uint64_t>(cur_ - begin_);
  }

  /// Next byte as unsigned char, or EOF.
  int get() {
    if (cur_ == end_ && !refill()) return std::char_traits<char>::eof();
    return static_cast<unsigned char>(*cur_++);
  }

  /// Copy exactly `n` bytes to `dst`; false if the stream ends first.
  bool read(char* dst, std::size_t n) {
    while (n > 0) {
      if (cur_ == end_ && !refill()) return false;
      const auto k = std::min(n, static_cast<std::size_t>(end_ - cur_));
      std::memcpy(dst, cur_, k);
      cur_ += k;
      dst += k;
      n -= k;
    }
    return true;
  }

  std::uint64_t varint() {
    // Fast path: a whole maximal varint is buffered, so no byte needs a
    // refill check. Anything else (a short buffer, an overlong varint)
    // re-decodes from cur_ on the checked path.
    if (end_ - cur_ >= kMaxVarintBytes) {
      const char* p = cur_;
      std::uint64_t v = 0;
      for (int shift = 0; shift < 64; shift += 7) {
        const auto c = static_cast<unsigned char>(*p++);
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80)) {
          cur_ = p;
          return v;
        }
      }
    }
    return varint_checked();
  }

  /// Zig-zag varint that must fit int32 (see to_int32).
  std::int32_t zigzag_int32() { return to_int32(unzigzag(varint())); }

  /// varint length, then that many bytes, appended to `out`. The string
  /// grows only by bytes actually read, never by the length the input
  /// claims.
  void append_string(std::string& out) {
    const auto n = varint();
    require(n <= (1u << 20), "implausible string length in trace");
    for (auto left = static_cast<std::size_t>(n); left > 0;) {
      require(cur_ != end_ || refill(), "truncated trace");
      const auto k = std::min(left, static_cast<std::size_t>(end_ - cur_));
      out.append(cur_, k);
      cur_ += k;
      left -= k;
    }
  }

  /// True once every byte of the input has been consumed.
  [[nodiscard]] bool exhausted() { return cur_ == end_ && !refill(); }

 private:
  static constexpr std::ptrdiff_t kMaxVarintBytes = 10;  // ceil(64 / 7)

  std::uint64_t varint_checked() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      require(cur_ != end_ || refill(), "truncated trace");
      require(shift < 64, "overlong varint in trace");
      const auto c = static_cast<unsigned char>(*cur_++);
      v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if (!(c & 0x80)) return v;
    }
  }

  /// Only called with the buffer drained. A short read is fine; zero
  /// bytes means end of stream (always, for a reader over memory).
  bool refill() {
    if (sb_ == nullptr) return false;
    pulled_ += static_cast<std::uint64_t>(end_ - begin_);
    begin_ = cur_ = buf_.get();
    end_ = cur_ + sb_->sgetn(buf_.get(),
                             static_cast<std::streamsize>(kBlockBytes));
    return cur_ != end_;
  }

  std::streambuf* sb_;
  std::unique_ptr<char[]> buf_;
  /// Bytes of the input before begin_, the start of the current block.
  std::uint64_t pulled_ = 0;
  const char* begin_ = nullptr;
  const char* cur_ = nullptr;
  const char* end_ = nullptr;
};

}  // namespace pfsem::trace::detail
