#ifndef GROUPLINK_STORAGE_PAGE_H_
#define GROUPLINK_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace grouplink {
namespace storage {

/// On-disk page format of the persistent index tier (DESIGN.md §12).
///
/// A store file is an array of fixed-size pages. Every page carries a
/// CRC32 over everything after the checksum field, so a torn write, a
/// bit flip, or a stale sector is detected on first read and surfaces
/// Status::DataLoss — never a silently different link set. Layout:
///
///   offset  0  u32  crc32 of bytes [4, page_bytes)
///   offset  4  u32  page id (== file offset / page_bytes)
///   offset  8  u16  PageType
///   offset 10  u16  reserved (0)
///   offset 12  u32  payload length (<= page_bytes - 16)
///   offset 16  payload, zero-padded to page_bytes
///
/// Zero padding is covered by the checksum, so the frame a reader
/// verifies is bit-for-bit the frame the writer sealed.

/// Fixed byte overhead of every page before the payload.
inline constexpr uint32_t kPageHeaderBytes = 16;
/// Allowed page sizes. The minimum also bounds the "sniff" read that
/// discovers a store's page size before its header page can be verified.
inline constexpr uint32_t kMinPageBytes = 256;
inline constexpr uint32_t kMaxPageBytes = 1u << 20;
/// Store format version; bumped on any layout change.
inline constexpr uint32_t kFormatVersion = 5;
/// First 8 payload bytes of the header page.
inline constexpr char kFileMagic[8] = {'G', 'L', 'S', 'N', 'A', 'P', '0', '1'};
/// Seal sentinel, written as the very last page of a persist. A store
/// without a valid seal page was never completely written and is
/// rejected as a unit — the write-new-then-rename protocol's tail.
inline constexpr uint64_t kSealMagic = 0x5ea1ed5ea1ed5eaULL;

enum class PageType : uint16_t {
  kHeader = 1,
  kSegment = 2,
  kSeal = 3,
};

/// Payload bytes available per page.
inline constexpr uint32_t PagePayloadCapacity(uint32_t page_bytes) {
  return page_bytes - kPageHeaderBytes;
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`, computed eight
/// bytes per step (slicing-by-8); the value is the bytewise table's. `seed`
/// chains incremental computation: Crc32(b, Crc32(a)) == Crc32(a+b).
[[nodiscard]] uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

// --- Append-only encoders over a growable byte buffer. All integers in
// --- the store are LEB128 varints (every serialized quantity is
// --- non-negative) or fixed-width little-endian; doubles are their raw
// --- IEEE-754 bit pattern, so decoded values are bit-identical.

void PutVarint(std::vector<uint8_t>& out, uint64_t value);
void PutFixed32(std::vector<uint8_t>& out, uint32_t value);
void PutFixed64(std::vector<uint8_t>& out, uint64_t value);
void PutDouble(std::vector<uint8_t>& out, double value);
/// Varint length + raw bytes.
void PutString(std::vector<uint8_t>& out, const std::string& value);

/// Bounds-checked decoder over a byte range. Every read past the end or
/// malformed varint returns Status::DataLoss — after a page passed its
/// checksum, a decode failure means the store was written by a buggy or
/// incompatible encoder, which is the same "bytes are not trustworthy"
/// condition as corruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] Result<uint64_t> ReadVarint();
  [[nodiscard]] Result<uint32_t> ReadFixed32();
  [[nodiscard]] Result<uint64_t> ReadFixed64();
  [[nodiscard]] Result<double> ReadDouble();
  [[nodiscard]] Result<std::string> ReadString();
  [[nodiscard]] Status ReadBytes(size_t n, uint8_t* out);
  /// Varint that must fit in a non-negative int64 (all our counts/ids).
  [[nodiscard]] Result<int64_t> ReadCount();

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Writes the page header into `frame` (page_bytes long, payload already
/// placed at offset kPageHeaderBytes and the tail zero-padded by the
/// caller) and seals it with the checksum. Returns the stored crc.
uint32_t SealPageFrame(uint32_t page_id, PageType type, uint32_t payload_len,
                       uint8_t* frame, uint32_t page_bytes);

/// A verified page: type and payload view into the caller's frame.
struct PageView {
  PageType type = PageType::kSegment;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
};

/// Verifies checksum, page id, and payload bounds of a raw frame.
/// Returns DataLoss on any mismatch.
[[nodiscard]] Result<PageView> VerifyPageFrame(const uint8_t* frame,
                                               uint32_t page_bytes,
                                               uint64_t expected_page_id);

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_PAGE_H_
