/**
 * @file
 * Tests for the shared byte-scan kernels (util/byte_scan.h) against
 * naive references that live here: substring find/count for needles
 * of 1-16 bytes (the pattern matcher's key limit) over haystacks of
 * 0-200 bytes and around the 16- and 64-byte block sizes, and the
 * chunked word/line counter against a one-shot byte loop at every
 * split point. Every haystack sits in an allocation of exactly its
 * length, so ASan flags any vector load past the end.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/byte_scan.h"
#include "util/rng.h"

namespace bisc::scan {
namespace {

/** Every start of @p needle in @p hay, by brute force, O(n·m). */
std::vector<std::size_t>
naiveHits(const std::uint8_t *hay, std::size_t n,
          const std::uint8_t *needle, std::size_t m)
{
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i + m <= n; ++i) {
        std::size_t j = 0;
        while (j < m && hay[i + j] == needle[j])
            ++j;
        if (j == m)
            hits.push_back(i);
    }
    return hits;
}

struct NaiveWords
{
    std::uint64_t words = 0;
    std::uint64_t lines = 0;
};

/** Words and lines of a whole buffer, one byte at a time. */
NaiveWords
naiveWords(const std::uint8_t *data, std::size_t n)
{
    NaiveWords r;
    bool in_word = false;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t c = data[i];
        const bool space = c == ' ' || c == '\n' || c == '\t' || c == '\r';
        if (c == '\n')
            ++r.lines;
        if (!space && !in_word)
            ++r.words;
        in_word = !space;
    }
    return r;
}

/** A heap copy of exactly @p bytes.size() bytes (ASan-bounded). */
std::unique_ptr<std::uint8_t[]>
exactCopy(const std::vector<std::uint8_t> &bytes)
{
    std::unique_ptr<std::uint8_t[]> p(new std::uint8_t[bytes.size()]);
    if (!bytes.empty())
        std::memcpy(p.get(), bytes.data(), bytes.size());
    return p;
}

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** Random bytes over @p alphabet. */
std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n,
            const std::vector<std::uint8_t> &alphabet)
{
    std::vector<std::uint8_t> b(n);
    for (auto &c : b)
        c = alphabet[rng.below(alphabet.size())];
    return b;
}

/** find() and count() of @p needle in @p hay agree with naiveHits(). */
void
expectAgrees(const std::vector<std::uint8_t> &hay,
             const std::vector<std::uint8_t> &needle)
{
    auto h = exactCopy(hay);
    auto k = exactCopy(needle);
    const auto ref = naiveHits(h.get(), hay.size(), k.get(), needle.size());
    const std::size_t want_first = ref.empty() ? kNpos : ref.front();
    EXPECT_EQ(find(h.get(), hay.size(), k.get(), needle.size()), want_first)
        << "n=" << hay.size() << " m=" << needle.size();
    EXPECT_EQ(count(h.get(), hay.size(), k.get(), needle.size()),
              ref.size())
        << "n=" << hay.size() << " m=" << needle.size();
}

TEST(ByteScan, OverlappingHitsAllCount)
{
    expectAgrees(bytesOf("aaaaa"), bytesOf("aa"));
    auto hay = bytesOf("aaaaa");
    auto needle = bytesOf("aa");
    EXPECT_EQ(count(hay.data(), hay.size(), needle.data(), needle.size()),
              4u);
    EXPECT_EQ(find(hay.data(), hay.size(), needle.data(), needle.size()),
              0u);
    auto abab = bytesOf("abababab");
    auto aba = bytesOf("aba");
    EXPECT_EQ(count(abab.data(), abab.size(), aba.data(), aba.size()), 3u);
}

TEST(ByteScan, BytesPastTheEndNeverMatch)
{
    // The window is "xxa" of "xxab": a kernel that peeked at byte 3
    // would report "ab".
    const auto buf = bytesOf("xxab");
    const auto needle = bytesOf("ab");
    EXPECT_EQ(find(buf.data(), 3, needle.data(), 2), kNpos);
    EXPECT_EQ(count(buf.data(), 3, needle.data(), 2), 0u);
    // Same at the end of a full 16-byte block.
    const std::string s = std::string(15, 'x') + "ab";
    const auto blk = bytesOf(s);
    EXPECT_EQ(count(blk.data(), 16, needle.data(), 2), 0u);
    EXPECT_EQ(count(blk.data(), 17, needle.data(), 2), 1u);
}

TEST(ByteScan, HitsAtBothEndsOfEveryLength)
{
    // A needle planted at offset 0 and at n - m, for every needle
    // length the matcher accepts and lengths straddling the block
    // sizes; the filler byte never occurs in the needle.
    Rng rng(101);
    const std::vector<std::uint8_t> alpha = {'a', 'b', 0x80, 0xfe};
    for (std::size_t m = 1; m <= 16; ++m) {
        const auto needle = randomBytes(rng, m, alpha);
        for (std::size_t n : {m, m + 1, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{31},
                              std::size_t{32}, std::size_t{33},
                              std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{127},
                              std::size_t{128}, std::size_t{129}}) {
            if (n < m)
                continue;
            std::vector<std::uint8_t> hay(n, 'z');
            std::copy(needle.begin(), needle.end(), hay.begin());
            expectAgrees(hay, needle);
            std::vector<std::uint8_t> tail(n, 'z');
            std::copy(needle.begin(), needle.end(), tail.end() - m);
            expectAgrees(tail, needle);
            auto t = exactCopy(tail);
            EXPECT_EQ(find(t.get(), n, needle.data(), m), n - m)
                << "n=" << n << " m=" << m;
        }
    }
}

TEST(ByteScan, AgreesWithNaiveOnRandomData)
{
    // Small alphabets (with bytes >= 0x80) so hits, near misses and
    // first/last-byte false candidates are all common.
    Rng rng(2026);
    const std::vector<std::vector<std::uint8_t>> alphabets = {
        {'a', 'b'}, {'a', 'b', 'c', 0x80}, {0x00, 0x7f, 0x80, 0xff}};
    for (const auto &alpha : alphabets) {
        for (std::size_t n = 0; n <= 200; ++n) {
            const auto hay = randomBytes(rng, n, alpha);
            for (std::size_t m = 1; m <= 16; ++m) {
                // Half the needles are cut from the haystack itself.
                std::vector<std::uint8_t> needle;
                if (n >= m && rng.below(2) == 0) {
                    const std::size_t at = rng.below(n - m + 1);
                    needle.assign(hay.begin() + at, hay.begin() + at + m);
                } else {
                    needle = randomBytes(rng, m, alpha);
                }
                expectAgrees(hay, needle);
            }
        }
    }
}

TEST(ByteScan, AgreesWithNaiveOnLargeBuffers)
{
    Rng rng(7);
    const std::vector<std::uint8_t> alpha = {'e', 'r', 'o', ' ', 0xc3};
    for (std::size_t n : {std::size_t{4096}, std::size_t{16384 + 13}}) {
        const auto hay = randomBytes(rng, n, alpha);
        for (std::size_t m = 1; m <= 16; ++m)
            expectAgrees(hay, randomBytes(rng, m, alpha));
    }
}

/** Feeds @p bytes split at @p cuts (ascending) into one WordCounter. */
WordCounter
feedSplit(const std::vector<std::uint8_t> &bytes,
          const std::vector<std::size_t> &cuts)
{
    WordCounter wc;
    std::size_t from = 0;
    for (std::size_t cut : cuts) {
        auto chunk = exactCopy(std::vector<std::uint8_t>(
            bytes.begin() + from, bytes.begin() + cut));
        wc.feed(chunk.get(), cut - from);
        from = cut;
    }
    auto rest = exactCopy(
        std::vector<std::uint8_t>(bytes.begin() + from, bytes.end()));
    wc.feed(rest.get(), bytes.size() - from);
    return wc;
}

TEST(WordCounter, CountsWordsAndLines)
{
    WordCounter wc;
    const auto text = bytesOf("  one two\tthree\r\nfour\n\nfive");
    wc.feed(text.data(), text.size());
    EXPECT_EQ(wc.words(), 5u);
    EXPECT_EQ(wc.lines(), 3u);
    // A chunk that starts mid-word continues the previous word.
    const auto more = bytesOf("six seven\n");
    wc.feed(more.data(), more.size());
    EXPECT_EQ(wc.words(), 6u);  // "fivesix", "seven"
    EXPECT_EQ(wc.lines(), 4u);
}

TEST(WordCounter, EveryTwoWaySplitMatchesOneShot)
{
    Rng rng(17);
    const std::vector<std::uint8_t> alpha = {'w', 'o', ' ', '\n',
                                             '\t', '\r', 0x80, 0xff};
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                          std::size_t{64}, std::size_t{65},
                          std::size_t{127}, std::size_t{128},
                          std::size_t{200}, std::size_t{300}}) {
        const auto bytes = randomBytes(rng, n, alpha);
        const NaiveWords ref = naiveWords(bytes.data(), bytes.size());
        for (std::size_t cut = 0; cut <= n; ++cut) {
            const WordCounter wc = feedSplit(bytes, {cut});
            EXPECT_EQ(wc.words(), ref.words) << "n=" << n << " cut=" << cut;
            EXPECT_EQ(wc.lines(), ref.lines) << "n=" << n << " cut=" << cut;
        }
    }
}

TEST(WordCounter, ManyChunksWithEmptyOnesMatchOneShot)
{
    // Long words and long separator runs, so chunks often end inside
    // a word or a run; some chunks are empty.
    Rng rng(29);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::uint8_t> bytes;
        while (bytes.size() < 700) {
            const std::size_t run = 1 + rng.below(90);
            const bool word = rng.below(2) == 0;
            for (std::size_t i = 0; i < run; ++i) {
                static const std::uint8_t kSpace[] = {' ', '\n', '\t', '\r'};
                bytes.push_back(word ? static_cast<std::uint8_t>(
                                           'a' + rng.below(26))
                                     : kSpace[rng.below(4)]);
            }
        }
        std::vector<std::size_t> cuts;
        for (std::size_t at = 0; at <= bytes.size();
             at += rng.below(150)) {
            cuts.push_back(at);
        }
        const WordCounter wc = feedSplit(bytes, cuts);
        const NaiveWords ref = naiveWords(bytes.data(), bytes.size());
        EXPECT_EQ(wc.words(), ref.words) << "round " << round;
        EXPECT_EQ(wc.lines(), ref.lines) << "round " << round;
    }
}

}  // namespace
}  // namespace bisc::scan
