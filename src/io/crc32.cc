#include "io/crc32.hh"

#include <array>

namespace tie {
namespace io {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

using Table = std::array<uint32_t, 256>;

/**
 * Slicing-by-8 tables: kSlice[0] is the classic byte-at-a-time table;
 * kSlice[k][b] is the CRC state after byte b followed by k zero bytes,
 * so one step folds eight input bytes with eight lookups.
 */
constexpr std::array<Table, 8>
makeSlices()
{
    std::array<Table, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr std::array<Table, 8> kSlice = makeSlices();

/** a(x) * b(x) mod P, both in the reflected bit order. */
constexpr uint32_t
mulModP(uint32_t a, uint32_t b)
{
    uint32_t p = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            p ^= b;
        b = (b & 1) ? kPoly ^ (b >> 1) : b >> 1;
    }
    return p;
}

/**
 * Long buffers run four slicing-by-8 chains side by side, one per
 * kLaneBytes lane, so the table-load latency of one chain hides behind
 * the others.
 */
constexpr size_t kLanes = 4;
constexpr size_t kLaneBytes = 512;
static_assert((kLaneBytes & (kLaneBytes - 1)) == 0 && kLaneBytes % 8 == 0,
              "lanes are a power of two of whole 8-byte steps");

/**
 * Tables that advance a CRC state over kLaneBytes zero bytes, i.e.
 * multiply it by x^(8 * kLaneBytes) mod P. That is linear in the
 * state, so four byte-indexed lookups do it; the lane CRCs then join
 * as CRC(A || B) = skip(CRC(A)) ^ CRC_from_zero(B).
 */
constexpr std::array<Table, 4>
makeSkip()
{
    uint32_t x_pow = 1u << 30; // x^1
    for (size_t n = 1; n < 8 * kLaneBytes; n *= 2)
        x_pow = mulModP(x_pow, x_pow);
    std::array<Table, 4> t{};
    for (size_t k = 0; k < 4; ++k)
        for (uint32_t b = 0; b < 256; ++b)
            t[k][b] = mulModP(x_pow, b << (8 * k));
    return t;
}

constexpr std::array<Table, 4> kSkip = makeSkip();

/** Little-endian load; compiles to one move on little-endian hosts. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Fold the eight bytes at @p p into state @p c. */
inline uint32_t
step8(uint32_t c, const uint8_t *p)
{
    const uint32_t lo = loadLe32(p) ^ c;
    const uint32_t hi = loadLe32(p + 4);
    return kSlice[7][lo & 0xFFu] ^ kSlice[6][(lo >> 8) & 0xFFu] ^
           kSlice[5][(lo >> 16) & 0xFFu] ^ kSlice[4][lo >> 24] ^
           kSlice[3][hi & 0xFFu] ^ kSlice[2][(hi >> 8) & 0xFFu] ^
           kSlice[1][(hi >> 16) & 0xFFu] ^ kSlice[0][hi >> 24];
}

inline uint32_t
skipLane(uint32_t c)
{
    return kSkip[0][c & 0xFFu] ^ kSkip[1][(c >> 8) & 0xFFu] ^
           kSkip[2][(c >> 16) & 0xFFu] ^ kSkip[3][c >> 24];
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = crc ^ 0xFFFFFFFFu;
    for (; len >= kLanes * kLaneBytes;
         len -= kLanes * kLaneBytes, p += kLanes * kLaneBytes) {
        uint32_t c1 = 0, c2 = 0, c3 = 0;
        for (size_t i = 0; i < kLaneBytes; i += 8) {
            c = step8(c, p + i);
            c1 = step8(c1, p + kLaneBytes + i);
            c2 = step8(c2, p + 2 * kLaneBytes + i);
            c3 = step8(c3, p + 3 * kLaneBytes + i);
        }
        c = skipLane(c) ^ c1;
        c = skipLane(c) ^ c2;
        c = skipLane(c) ^ c3;
    }
    for (; len >= 8; len -= 8, p += 8)
        c = step8(c, p);
    for (; len > 0; --len, ++p)
        c = kSlice[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace io
} // namespace tie
