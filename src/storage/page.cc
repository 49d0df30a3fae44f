#include "storage/page.h"

#include <array>

#include "common/logging.h"

namespace grouplink {
namespace storage {
namespace {

/// Slicing-by-8 CRC-32 tables (polynomial 0xEDB88320, the reflected IEEE
/// form). Row 0 is the classic bytewise table; row k advances a byte's
/// contribution through k further zero bytes, so one step folds eight
/// input bytes with eight independent lookups. Built once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("truncated or malformed store data: ") + what);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  const CrcTables& t = Tables();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  // Eight bytes per step: the running crc folds into the first four, and
  // each byte's table row accounts for the bytes that follow it.
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80u) {
    out.push_back(static_cast<uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

void PutFixed32(std::vector<uint8_t>& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void PutFixed64(std::vector<uint8_t>& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void PutDouble(std::vector<uint8_t>& out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(out, bits);
}

void PutString(std::vector<uint8_t>& out, const std::string& value) {
  PutVarint(out, value.size());
  out.insert(out.end(), value.begin(), value.end());
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (pos_ < size_) {
    const uint8_t byte = data_[pos_++];
    if (shift == 63 && byte > 1) return Truncated("varint overflow");
    value |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
    if (shift > 63) return Truncated("varint overflow");
  }
  return Truncated("varint");
}

Result<uint32_t> ByteReader::ReadFixed32() {
  if (remaining() < 4) return Truncated("fixed32");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  return value;
}

Result<uint64_t> ByteReader::ReadFixed64() {
  if (remaining() < 8) return Truncated("fixed64");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  return value;
}

Result<double> ByteReader::ReadDouble() {
  GL_ASSIGN_OR_RETURN(const uint64_t bits, ReadFixed64());
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string> ByteReader::ReadString() {
  GL_ASSIGN_OR_RETURN(const uint64_t length, ReadVarint());
  if (length > remaining()) return Truncated("string");
  std::string value(reinterpret_cast<const char*>(data_ + pos_),
                    static_cast<size_t>(length));
  pos_ += static_cast<size_t>(length);
  return value;
}

Status ByteReader::ReadBytes(size_t n, uint8_t* out) {
  if (n > remaining()) return Truncated("bytes");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Result<int64_t> ByteReader::ReadCount() {
  GL_ASSIGN_OR_RETURN(const uint64_t value, ReadVarint());
  if (value > static_cast<uint64_t>(INT64_MAX)) return Truncated("count range");
  return static_cast<int64_t>(value);
}

uint32_t SealPageFrame(uint32_t page_id, PageType type, uint32_t payload_len,
                       uint8_t* frame, uint32_t page_bytes) {
  GL_CHECK_LE(payload_len, PagePayloadCapacity(page_bytes));
  const uint32_t type_raw = static_cast<uint32_t>(type);
  frame[4] = static_cast<uint8_t>(page_id);
  frame[5] = static_cast<uint8_t>(page_id >> 8);
  frame[6] = static_cast<uint8_t>(page_id >> 16);
  frame[7] = static_cast<uint8_t>(page_id >> 24);
  frame[8] = static_cast<uint8_t>(type_raw);
  frame[9] = static_cast<uint8_t>(type_raw >> 8);
  frame[10] = 0;
  frame[11] = 0;
  frame[12] = static_cast<uint8_t>(payload_len);
  frame[13] = static_cast<uint8_t>(payload_len >> 8);
  frame[14] = static_cast<uint8_t>(payload_len >> 16);
  frame[15] = static_cast<uint8_t>(payload_len >> 24);
  const uint32_t crc = Crc32(frame + 4, page_bytes - 4);
  frame[0] = static_cast<uint8_t>(crc);
  frame[1] = static_cast<uint8_t>(crc >> 8);
  frame[2] = static_cast<uint8_t>(crc >> 16);
  frame[3] = static_cast<uint8_t>(crc >> 24);
  return crc;
}

Result<PageView> VerifyPageFrame(const uint8_t* frame, uint32_t page_bytes,
                                 uint64_t expected_page_id) {
  if (LoadLe32(frame) != Crc32(frame + 4, page_bytes - 4)) {
    return Status::DataLoss("page checksum mismatch at page " +
                            std::to_string(expected_page_id));
  }
  if (LoadLe32(frame + 4) != expected_page_id) {
    return Status::DataLoss("page id mismatch at page " +
                            std::to_string(expected_page_id));
  }
  const uint32_t type_raw = static_cast<uint32_t>(frame[8]) |
                            static_cast<uint32_t>(frame[9]) << 8;
  if (type_raw < static_cast<uint32_t>(PageType::kHeader) ||
      type_raw > static_cast<uint32_t>(PageType::kSeal)) {
    return Status::DataLoss("unknown page type at page " +
                            std::to_string(expected_page_id));
  }
  PageView view;
  view.type = static_cast<PageType>(type_raw);
  view.payload_len = LoadLe32(frame + 12);
  if (view.payload_len > PagePayloadCapacity(page_bytes)) {
    return Status::DataLoss("page payload overflow at page " +
                            std::to_string(expected_page_id));
  }
  view.payload = frame + kPageHeaderBytes;
  return view;
}

}  // namespace storage
}  // namespace grouplink
