/**
 * @file
 * The functional byte-scan kernels behind every text search and word
 * count in the simulator: host grep (host::BoyerMoore), the device
 * grep tally, the channel pattern matcher (pm::PatternMatcher) and
 * the host and device word counts.
 *
 * These kernels only compute answers. The simulated time of a scan is
 * charged by its caller from the configured cost model
 * (grep_ns_per_byte, pm_control_per_page, ...), so how fast the host
 * runs a kernel never changes a simulated result.
 *
 * Substring search filters candidate positions 16 at a time with SSE2
 * compares on the needle's first and last bytes, then confirms each
 * candidate with memcmp. SSE2 is part of the x86-64 baseline; a scalar
 * loop computing the same masks is compiled only when __SSE2__ is not
 * defined. No load ever reads past the end of the haystack.
 */

#ifndef BISCUIT_UTIL_BYTE_SCAN_H_
#define BISCUIT_UTIL_BYTE_SCAN_H_

#include <cstddef>
#include <cstdint>

namespace bisc::scan {

/** Returned by find() when the needle does not occur. */
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/**
 * Offset of the first occurrence of the @p m byte @p needle in
 * @p hay[0, n), or kNpos. @p m must be non-zero.
 */
std::size_t find(const std::uint8_t *hay, std::size_t n,
                 const std::uint8_t *needle, std::size_t m);

/**
 * Number of occurrences of @p needle in @p hay[0, n), overlapping ones
 * included ("aa" occurs 4 times in "aaaaa"). @p m must be non-zero.
 */
std::uint64_t count(const std::uint8_t *hay, std::size_t n,
                    const std::uint8_t *needle, std::size_t m);

/**
 * Words and lines of a byte stream fed in chunks of any size. A word
 * is a maximal run of bytes other than ' ', '\n', '\t' and '\r'; a
 * line is a '\n'. The in-word state carries across feed() calls, so
 * any split of a stream counts the same as the stream in one call.
 */
class WordCounter
{
  public:
    void feed(const std::uint8_t *data, std::size_t n);

    std::uint64_t words() const { return words_; }
    std::uint64_t lines() const { return lines_; }

  private:
    std::uint64_t words_ = 0;
    std::uint64_t lines_ = 0;
    bool in_word_ = false;
};

}  // namespace bisc::scan

#endif  // BISCUIT_UTIL_BYTE_SCAN_H_
