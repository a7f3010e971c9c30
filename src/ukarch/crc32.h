// ukarch/crc32.h - CRC-32C (Castagnoli) over byte spans.
//
// Used by the persistence tier to checksum snapshot files: a snapshot is only
// eligible for replay-on-boot when its trailer CRC matches the body, so a
// crash mid-BGSAVE (or a torn sector) demotes the file instead of loading
// garbage. Incremental (feed chunks as they are produced), no hardware
// dependency.
//
// Portable slice-by-8: eight 256-entry tables fold 8 input bytes per step
// (one little-endian load pair, eight lookups), and a byte-wise loop handles
// the tail. The values are those of the classic one-table loop, so every
// image ever written keeps verifying.
#ifndef UKARCH_CRC32_H_
#define UKARCH_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ukarch {

namespace crc32_detail {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// t[0] is the classic byte table; t[k][i] is the CRC of byte i followed by
// k zero bytes, which is what lets one step consume 8 bytes at once.
inline const Tables& Table() {
  static const Tables tables = [] {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;  // reflected CRC-32C
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

inline std::uint32_t LoadLe32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace crc32_detail

// Incremental accumulator: construct, Update() over chunks, value().
class Crc32 {
 public:
  void Update(std::span<const std::byte> data) {
    const auto& t = crc32_detail::Table();
    const std::byte* p = data.data();
    std::size_t n = data.size();
    std::uint32_t c = state_;
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = crc32_detail::LoadLe32(p) ^ c;
      std::uint32_t hi = crc32_detail::LoadLe32(p + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
      c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
  }
  void Update(const void* data, std::size_t len) {
    Update(std::span(static_cast<const std::byte*>(data), len));
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void Reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

inline std::uint32_t Crc32Of(std::span<const std::byte> data) {
  Crc32 c;
  c.Update(data);
  return c.value();
}

}  // namespace ukarch

#endif  // UKARCH_CRC32_H_
