#include "util/byte_scan.h"

#include <bit>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "util/log.h"

namespace bisc::scan {

namespace {

#ifdef __SSE2__
__m128i
load16(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

__m128i
splat(std::uint8_t b)
{
    return _mm_set1_epi8(static_cast<char>(b));
}

std::uint64_t
moveMask(__m128i v)
{
    return static_cast<std::uint16_t>(_mm_movemask_epi8(v));
}
#endif

/**
 * Set bits of @p x. Without -mpopcnt, which the build does not assume,
 * std::popcount compiles to a libgcc call; this SWAR sum inlines.
 */
unsigned
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

bool
isSpace(std::uint8_t c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

/**
 * Candidate starts among p[0, 16): bit i is set when p[i] == @p head
 * and p[i + @p last] == @p tail. Reads p[0, last + 16).
 */
std::uint32_t
candidates16(const std::uint8_t *p, std::size_t last, std::uint8_t head,
             std::uint8_t tail)
{
#ifdef __SSE2__
    const __m128i eq =
        _mm_and_si128(_mm_cmpeq_epi8(load16(p), splat(head)),
                      _mm_cmpeq_epi8(load16(p + last), splat(tail)));
    return static_cast<std::uint32_t>(moveMask(eq));
#else
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        if (p[i] == head && p[i + last] == tail)
            mask |= 1u << i;
    }
    return mask;
#endif
}

/**
 * Bit i of @p space is set when p[i] is a word separator, bit i of
 * @p newline when it is '\n', for i in [0, 64).
 */
void
masks64(const std::uint8_t *p, std::uint64_t &space,
        std::uint64_t &newline)
{
    space = 0;
    newline = 0;
#ifdef __SSE2__
    for (unsigned k = 0; k < 4; ++k) {
        const __m128i v = load16(p + 16 * k);
        const __m128i nl = _mm_cmpeq_epi8(v, splat('\n'));
        const __m128i sp = _mm_or_si128(
            _mm_or_si128(nl, _mm_cmpeq_epi8(v, splat(' '))),
            _mm_or_si128(_mm_cmpeq_epi8(v, splat('\t')),
                         _mm_cmpeq_epi8(v, splat('\r'))));
        space |= moveMask(sp) << (16 * k);
        newline |= moveMask(nl) << (16 * k);
    }
#else
    for (unsigned i = 0; i < 64; ++i) {
        space |= std::uint64_t{isSpace(p[i])} << i;
        newline |= std::uint64_t{p[i] == '\n'} << i;
    }
#endif
}

/**
 * Call @p hit(pos) for every occurrence of the needle in increasing
 * order of pos; stop early when it returns false.
 */
template <class Hit>
void
forEachHit(const std::uint8_t *hay, std::size_t n,
           const std::uint8_t *needle, std::size_t m, const Hit &hit)
{
    BISC_ASSERT(m > 0, "empty search needle");
    if (m > n)
        return;
    const std::size_t last = m - 1;
    const std::uint8_t head = needle[0];
    const std::uint8_t tail = needle[last];
    // The filter already compared both end bytes.
    auto confirmed = [&](std::size_t pos) {
        return m <= 2 ||
               std::memcmp(hay + pos + 1, needle + 1, m - 2) == 0;
    };
    const std::size_t starts = n - last;  // candidate starts [0, starts)
    std::size_t i = 0;
    for (; i + 16 <= starts; i += 16) {
        for (std::uint32_t mask = candidates16(hay + i, last, head, tail);
             mask != 0; mask &= mask - 1) {
            const std::size_t pos = i + std::countr_zero(mask);
            if (confirmed(pos) && !hit(pos))
                return;
        }
    }
    for (; i < starts; ++i) {
        if (hay[i] == head && hay[i + last] == tail && confirmed(i) &&
            !hit(i)) {
            return;
        }
    }
}

}  // namespace

std::size_t
find(const std::uint8_t *hay, std::size_t n, const std::uint8_t *needle,
     std::size_t m)
{
    std::size_t found = kNpos;
    forEachHit(hay, n, needle, m, [&](std::size_t pos) {
        found = pos;
        return false;
    });
    return found;
}

std::uint64_t
count(const std::uint8_t *hay, std::size_t n, const std::uint8_t *needle,
      std::size_t m)
{
    std::uint64_t hits = 0;
    forEachHit(hay, n, needle, m, [&](std::size_t) {
        ++hits;
        return true;
    });
    return hits;
}

void
WordCounter::feed(const std::uint8_t *data, std::size_t n)
{
    // Locals, not members: stores through this would alias data.
    std::uint64_t words = words_;
    std::uint64_t lines = lines_;
    bool in_word = in_word_;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        std::uint64_t space;
        std::uint64_t newline;
        masks64(data + i, space, newline);
        // A word starts at a non-separator whose predecessor is a
        // separator; bit 0's predecessor is the previous block's last
        // byte, summarised by in_word.
        const std::uint64_t after_space =
            (space << 1) | std::uint64_t{!in_word};
        words += popcount64(~space & after_space);
        lines += popcount64(newline);
        in_word = (space >> 63) == 0;
    }
    for (; i < n; ++i) {
        const bool space = isSpace(data[i]);
        lines += data[i] == '\n';
        words += !space && !in_word;
        in_word = !space;
    }
    words_ = words;
    lines_ = lines;
    in_word_ = in_word;
}

}  // namespace bisc::scan
