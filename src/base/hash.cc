#include "base/hash.hh"

#include <array>

namespace bigfish {

namespace {

/**
 * Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
 * kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
 * one lookup per byte of an 8-byte block advances the CRC by the whole
 * block.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}();

/** Little-endian 32-bit load, independent of host byte order. */
inline std::uint32_t
load32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    const auto &t = kCrcTables;
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    std::size_t n = data.size();
    std::uint32_t crc = 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ load32le(p);
        const std::uint32_t hi = load32le(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
fnv64(std::string_view text)
{
    std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x0000'0100'0000'01b3ULL;
    }
    return hash;
}

} // namespace bigfish
