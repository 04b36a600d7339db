// Bounds-checked binary serialization primitives and shared immutable
// arrays.
//
// ByteWriter appends little-endian fixed-width integers, length-prefixed
// blobs, and varints to a growable buffer. ByteReader consumes the same
// formats and *never* reads out of bounds: any overrun marks the reader
// failed and all subsequent reads return zero values. Callers check ok()
// once at the end of decoding instead of after every field.
//
// SharedArray<T> is a refcounted *immutable* array: copies share the
// underlying storage, and a slice() aliases a sub-range of the same owner
// without copying. Immutability is by construction — every owner is a
// vector moved into a const allocation here, no other code holds a writable
// handle to it, and SharedArray exposes no mutator — so sharing can never
// observe a mutation. Two instances carry the wire messages:
//   - SharedBytes, the payload type: a multicast fan-out, a buffered copy,
//     and every repair retransmission of the same message all reference
//     one allocation;
//   - a BufferDigest's run list: the sender builds it once, and every
//     region peer's DigestTable row refers to that one allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrmp {

template <typename T>
class SharedArray {
 public:
  SharedArray() = default;

  /// Take ownership of `items` (no copy). Implicit so aggregate message
  /// literals like `Data{id, std::vector<uint8_t>(...)}` keep working.
  SharedArray(std::vector<T> items)  // NOLINT(google-explicit-constructor)
      : owner_(std::make_shared<const std::vector<T>>(std::move(items))),
        data_(owner_->data()),
        size_(owner_->size()) {}

  /// Literal arrays: `Data{id, {1, 2, 3}}`.
  SharedArray(std::initializer_list<T> items)
      : SharedArray(std::vector<T>(items)) {}

  /// Copy `items` into a fresh owned array.
  static SharedArray copy_of(std::span<const T> items) {
    return SharedArray(std::vector<T>(items.begin(), items.end()));
  }

  /// A view of [offset, offset+len) sharing this array's owner — no copy.
  /// Requires offset + len <= size().
  SharedArray slice(std::size_t offset, std::size_t len) const {
    SharedArray out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }
  operator std::span<const T>() const {  // NOLINT
    return span();
  }

  /// True when both views share the same owning allocation (test hook for
  /// the zero-copy contract; value equality is operator==).
  bool shares_owner_with(const SharedArray& other) const {
    return owner_ != nullptr && owner_ == other.owner_;
  }

  /// Content equality (proto messages compare payloads and runs by value).
  friend bool operator==(const SharedArray& a, const SharedArray& b) {
    if (a.size_ != b.size_) return false;
    if (a.size_ == 0 || a.data_ == b.data_) return true;
    return std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::shared_ptr<const std::vector<T>> owner_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

using SharedBytes = SharedArray<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }

  /// LEB128-style unsigned varint (1..10 bytes).
  void put_varint(std::uint64_t v);

  /// Varint length prefix followed by raw bytes.
  void put_bytes(std::span<const std::uint8_t> data);

  void put_raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reader over a shared buffer: get_shared_bytes() returns zero-copy
  /// slices aliasing `bytes`' owner instead of fresh allocations.
  /// (Templated so vectors — implicitly convertible to both SharedBytes and
  /// span — unambiguously take the span overload above.)
  template <typename B,
            typename = std::enable_if_t<
                std::is_same_v<std::remove_cvref_t<B>, SharedBytes>>>
  explicit ByteReader(const B& bytes) : data_(bytes.span()), owner_(&bytes) {}
  /// The reader stores a pointer to `bytes`; a temporary would dangle.
  /// (Constrained to SharedBytes rvalues — const-qualified ones included —
  /// so vectors and SharedBytes lvalues are unaffected.)
  template <typename B,
            typename = std::enable_if_t<
                std::is_same_v<std::remove_cvref_t<B>, SharedBytes> &&
                !std::is_lvalue_reference_v<B>>,
            typename = void>
  explicit ByteReader(B&& bytes) = delete;

  std::uint8_t get_u8();
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  std::uint64_t get_varint();
  /// Length-prefixed blob as SharedBytes: a borrowed slice of the reader's
  /// SharedBytes source when one was provided, a copy otherwise.
  SharedBytes get_shared_bytes();

  /// True iff no read has overrun the buffer so far.
  bool ok() const { return ok_; }
  /// True iff the whole buffer was consumed and no read failed.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  template <typename T>
  T get_le() {
    if (!require(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  bool require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  const SharedBytes* owner_ = nullptr;  // set for zero-copy blob slices
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace rrmp
