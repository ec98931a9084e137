// Little-endian binary encoder/decoder for the control-channel protocol.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bate {

/// Appends little-endian fields to a byte buffer: its own (bytes()), or one
/// it is handed, so an encoder can write straight into a frame batch.
class BufferWriter {
 public:
  BufferWriter() : out_(&own_) {}
  explicit BufferWriter(std::vector<std::uint8_t>& out) : out_(&out) {}
  BufferWriter(const BufferWriter&) = delete;
  BufferWriter& operator=(const BufferWriter&) = delete;

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) { put<4>(v); }
  void u64(std::uint64_t v) { put<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void f64_vec(std::span<const double> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (double x : v) f64(x);
  }
  void f64_vec(std::initializer_list<double> v) {
    f64_vec(std::span<const double>(v.begin(), v.size()));
  }

  const std::vector<std::uint8_t>& bytes() const { return *out_; }

 private:
  /// One append of the N low bytes of `v`, least significant first.
  template <int N>
  void put(std::uint64_t v) {
    std::uint8_t b[N];
    for (int i = 0; i < N; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out_->insert(out_->end(), b, b + N);
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* out_;
};

class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::string(b.begin(), b.end());
  }
  std::vector<double> f64_vec() {
    std::vector<double> v(count(8));
    for (auto& x : v) x = f64();
    return v;
  }
  /// A u32 element count, checked against the bytes left before anyone
  /// sizes a container by it: `element_bytes` is one element's encoded
  /// size, so a hostile count throws here instead of allocating.
  std::uint32_t count(std::size_t element_bytes) {
    const std::uint32_t n = u32();
    if (n * element_bytes > data_.size() - offset_) {
      throw std::out_of_range("BufferReader: count exceeds message");
    }
    return n;
  }
  bool exhausted() const { return offset_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (offset_ + n > data_.size()) {
      throw std::out_of_range("BufferReader: truncated message");
    }
    auto s = data_.subspan(offset_, n);
    offset_ += n;
    return s;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace bate
