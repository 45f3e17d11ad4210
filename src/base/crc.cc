#include "base/crc.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace vmsim
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8: tables[0] is the classic byte-at-a-time table, and
// tables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
constexpr CrcTables
makeTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr CrcTables kTables = makeTables();

/** Little-endian 32-bit load from any alignment. */
std::uint32_t
loadLe32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
            (v << 24);
    return v;
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32(const std::string &s)
{
    return crc32(s.data(), s.size());
}

std::string
crc32Hex(std::uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

namespace
{

// The exact frame prefix/infix crcFrameLine() emits; unframing matches
// these textually so the checksummed payload bytes are recovered
// verbatim, independent of any JSON parser's whitespace choices.
constexpr const char kFramePrefix[] = "{\"crc\":\"";
constexpr std::size_t kFramePrefixLen = sizeof(kFramePrefix) - 1;
constexpr const char kFrameInfix[] = "\",\"data\":";
constexpr std::size_t kFrameInfixLen = sizeof(kFrameInfix) - 1;

} // anonymous namespace

std::string
crcFrameLine(const std::string &payload)
{
    std::string line;
    line.reserve(payload.size() + kFramePrefixLen + kFrameInfixLen + 9);
    line += kFramePrefix;
    line += crc32Hex(crc32(payload));
    line += kFrameInfix;
    line += payload;
    line += '}';
    return line;
}

FrameCheck
crcUnframeLine(const std::string &line, std::string &payload)
{
    if (line.compare(0, kFramePrefixLen, kFramePrefix) != 0) {
        payload = line;
        return FrameCheck::Legacy;
    }
    const std::size_t crcEnd = kFramePrefixLen + 8;
    if (line.size() < crcEnd + kFrameInfixLen + 1 ||
        line.compare(crcEnd, kFrameInfixLen, kFrameInfix) != 0 ||
        line.back() != '}')
        return FrameCheck::Malformed;
    std::uint32_t want = 0;
    if (!parseCrc32Hex(line.substr(kFramePrefixLen, 8), want))
        return FrameCheck::Malformed;
    const std::size_t dataBegin = crcEnd + kFrameInfixLen;
    std::string data =
        line.substr(dataBegin, line.size() - dataBegin - 1);
    if (crc32(data) != want)
        return FrameCheck::Mismatch;
    payload = std::move(data);
    return FrameCheck::Ok;
}

bool
parseCrc32Hex(const std::string &text, std::uint32_t &out)
{
    if (text.size() != 8)
        return false;
    std::uint32_t v = 0;
    for (char ch : text) {
        std::uint32_t digit;
        if (ch >= '0' && ch <= '9')
            digit = static_cast<std::uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            digit = static_cast<std::uint32_t>(ch - 'a' + 10);
        else if (ch >= 'A' && ch <= 'F')
            digit = static_cast<std::uint32_t>(ch - 'A' + 10);
        else
            return false;
        v = (v << 4) | digit;
    }
    out = v;
    return true;
}

} // namespace vmsim
