// ByteWriter/ByteReader: little-endian binary serialization used for the
// guest file system's on-disk metadata. Round-tripping through real bytes is
// what makes "mount the disk snapshot and read the files back" a genuine
// operation rather than bookkeeping.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer.h"

namespace blobcr::common {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  std::size_t size() const { return out_.size(); }
  Buffer take() { return Buffer::real(std::move(out_)); }

 private:
  void raw(const void* p, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  std::vector<std::byte> out_;
};

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class ByteReader {
 public:
  explicit ByteReader(const Buffer& buf) : data_(buf.bytes()) {
    if (!buf.fully_real())
      throw CodecError("cannot decode phantom payload (metadata must be real)");
  }

  std::uint8_t u8() { return read_int<std::uint8_t>(); }
  std::uint32_t u32() { return read_int<std::uint32_t>(); }
  std::uint64_t u64() { return read_int<std::uint64_t>(); }
  std::string str() {
    const std::uint32_t n = u32();
    check(n);
    std::string s(n, '\0');
    std::memcpy(s.data(), data_.data() + pos_, n);
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <class T>
  T read_int() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void check(std::size_t n) const {
    if (pos_ + n > data_.size()) throw CodecError("decode past end");
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace blobcr::common
