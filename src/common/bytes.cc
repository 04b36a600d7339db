#include "common/bytes.h"

namespace rrmp {

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> data) {
  put_varint(data.size());
  put_raw(data);
}

std::uint8_t ByteReader::get_u8() {
  if (!require(1)) return 0;
  return data_[pos_++];
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (!require(1)) return 0;
    std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
  ok_ = false;  // varint longer than 10 bytes is malformed
  return 0;
}

SharedBytes ByteReader::get_shared_bytes() {
  std::uint64_t n = get_varint();
  if (!require(n)) return {};
  std::size_t at = pos_;
  pos_ += n;
  // Alias the source buffer only when the bytes *outside* this blob are
  // bounded (a frame header, or another similarly-sized payload): a
  // long-lived stored payload may then pin at most ~2x its own size. A
  // small slice of a much larger buffer — one of many payloads in a big
  // Handoff batch — is copied instead, so retaining it can never pin an
  // arbitrarily larger wire allocation.
  constexpr std::uint64_t kAliasOverheadCap = 64;
  std::uint64_t overhead = data_.size() - n;
  if (owner_ != nullptr && overhead <= kAliasOverheadCap + n) {
    return owner_->slice(at, n);
  }
  return SharedBytes::copy_of(data_.subspan(at, n));
}

}  // namespace rrmp
