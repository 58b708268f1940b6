/**
 * @file
 * Tests for the host system model: contention under StreamBench load,
 * the conventional pread/streamRead paths, Boyer-Moore, and the
 * Conv-vs-Biscuit grep pair (paper Table V shape).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/grep.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "sisc/env.h"
#include "util/common.h"

namespace bisc::host {
namespace {

class HostTest : public ::testing::Test
{
  protected:
    HostTest()
        : env_(ssd::testConfig()),
          host_(env_.kernel, env_.device, env_.fs)
    {}

    sisc::Env env_;
    HostSystem host_;
};

TEST_F(HostTest, ContentionFactorScalesWithThreads)
{
    EXPECT_DOUBLE_EQ(host_.contentionFactor(), 1.0);
    host_.setLoadThreads(24);
    EXPECT_NEAR(host_.contentionFactor(), 1.63, 0.01);
    host_.setLoadThreads(0);
    EXPECT_DOUBLE_EQ(host_.contentionFactor(), 1.0);
}

TEST_F(HostTest, LoadBeyondHardwarePanics)
{
    EXPECT_DEATH(host_.setLoadThreads(25), "exceed hardware");
}

TEST_F(HostTest, StreamBenchIsRaii)
{
    {
        StreamBench load(host_, 12);
        EXPECT_EQ(host_.loadThreads(), 12u);
        {
            StreamBench more(host_, 24);
            EXPECT_EQ(host_.loadThreads(), 24u);
        }
        EXPECT_EQ(host_.loadThreads(), 12u);
    }
    EXPECT_EQ(host_.loadThreads(), 0u);
}

TEST_F(HostTest, PreadReturnsData)
{
    std::string text = "host visible bytes";
    env_.fs.populate("/f", text.data(), text.size());
    std::string out(text.size(), '\0');
    env_.run([&] {
        Bytes n = host_.pread("/f", 0, out.data(), out.size());
        EXPECT_EQ(n, text.size());
    });
    EXPECT_EQ(out, text);
}

TEST_F(HostTest, CpuWorkSlowsUnderLoad)
{
    Tick unloaded = 0, loaded = 0;
    env_.run([&] {
        Tick t0 = env_.kernel.now();
        host_.consumeCpu(1 * kMsec);
        unloaded = env_.kernel.now() - t0;
        StreamBench load(host_, 24);
        t0 = env_.kernel.now();
        host_.consumeCpu(1 * kMsec);
        loaded = env_.kernel.now() - t0;
    });
    EXPECT_EQ(unloaded, 1 * kMsec);
    EXPECT_NEAR(static_cast<double>(loaded) /
                    static_cast<double>(unloaded),
                1.63, 0.01);
}

TEST_F(HostTest, StreamReadCoversWholeFileInOrder)
{
    std::vector<std::uint8_t> data(40 * 1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i % 251);
    env_.fs.populate("/s", data.data(), data.size());

    Bytes seen = 0;
    env_.run([&] {
        host_.streamRead("/s", 0, data.size(), 16 * 1024,
                         [&](Bytes off, const std::uint8_t *p,
                             Bytes n) {
                             EXPECT_EQ(off, seen);
                             for (Bytes i = 0; i < n; ++i)
                                 EXPECT_EQ(p[i], data[off + i]);
                             seen += n;
                         });
    });
    EXPECT_EQ(seen, data.size());
}

TEST_F(HostTest, StreamReadOverlapsComputeWithIo)
{
    // A compute-free streamRead is I/O bound; the same read with
    // per-chunk compute that dominates I/O should cost roughly the
    // compute time, not compute + I/O.
    Bytes size = 64 * 4_KiB;
    std::vector<std::uint8_t> data(size, 7);
    env_.fs.populate("/big", data.data(), data.size());

    Tick io_only = 0, mixed = 0, compute = 20 * kMsec;
    env_.run([&] {
        Tick t0 = env_.kernel.now();
        host_.streamRead("/big", 0, size, 16 * 4_KiB,
                         [](Bytes, const std::uint8_t *, Bytes) {});
        io_only = env_.kernel.now() - t0;

        t0 = env_.kernel.now();
        host_.streamRead("/big", 0, size, 16 * 4_KiB,
                         [&](Bytes, const std::uint8_t *, Bytes) {
                             host_.consumeCpu(compute / 4);
                         });
        mixed = env_.kernel.now() - t0;
    });
    EXPECT_LT(mixed, io_only + compute);
    EXPECT_GE(mixed, compute);
}

// ----- Boyer-Moore -----

TEST(BoyerMoore, FindsFirstOccurrence)
{
    BoyerMoore bm("needle");
    std::string hay = "hay needle hay needle";
    auto hit = bm.find(
        reinterpret_cast<const std::uint8_t *>(hay.data()),
        hay.size());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 4u);
}

TEST(BoyerMoore, FindRespectsStart)
{
    BoyerMoore bm("ab");
    std::string hay = "ab..ab";
    auto hit = bm.find(
        reinterpret_cast<const std::uint8_t *>(hay.data()),
        hay.size(), 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 4u);
}

TEST(BoyerMoore, CountsOverlapping)
{
    BoyerMoore bm("aa");
    std::string hay = "aaaa";
    EXPECT_EQ(bm.count(
                  reinterpret_cast<const std::uint8_t *>(hay.data()),
                  hay.size()),
              3u);
}

TEST(BoyerMoore, AbsentPatternReturnsNothing)
{
    BoyerMoore bm("zebra");
    std::string hay = "no stripes here";
    EXPECT_FALSE(
        bm.find(reinterpret_cast<const std::uint8_t *>(hay.data()),
                hay.size())
            .has_value());
    EXPECT_EQ(bm.count(
                  reinterpret_cast<const std::uint8_t *>(hay.data()),
                  hay.size()),
              0u);
}

TEST(BoyerMoore, WorksOnRepetitivePatterns)
{
    BoyerMoore bm("abab");
    std::string hay = "abababab";
    EXPECT_EQ(bm.count(
                  reinterpret_cast<const std::uint8_t *>(hay.data()),
                  hay.size()),
              3u);
}

// ----- Web-log + grep Conv vs Biscuit -----

TEST_F(HostTest, WebLogGeneratorPlantsNeedles)
{
    auto planted = generateWebLog(env_.fs, "/weblog", 200 * 1024,
                                  "ERROR_XYZ", 40, 7);
    EXPECT_GT(planted, 0u);
    // Reference count by brute scan.
    Bytes size = env_.fs.size("/weblog");
    std::vector<std::uint8_t> all(size);
    env_.fs.peek("/weblog", 0, size, all.data());
    BoyerMoore bm("ERROR_XYZ");
    std::uint64_t ref = bm.count(all.data(), all.size());
    EXPECT_EQ(planted, ref);
}

TEST_F(HostTest, WebLogGeneratorCountsOnlyNeedlesInTheFile)
{
    // At this seed and size the corpus cut falls inside the last
    // planted needle: the count must leave it out.
    const Bytes total = 2_MiB;
    auto planted =
        generateWebLog(env_.fs, "/weblog", total, "heisenbug", 97, 14);
    std::vector<std::uint8_t> all(total);
    env_.fs.peek("/weblog", 0, total, all.data());
    EXPECT_EQ(planted,
              BoyerMoore("heisenbug").count(all.data(), all.size()));
    EXPECT_EQ(planted, 316u);
}

TEST_F(HostTest, GrepConvFindsPlantedNeedles)
{
    generateWebLog(env_.fs, "/weblog", 300 * 1024, "sig_ndp", 25, 11);
    Bytes size = env_.fs.size("/weblog");
    std::vector<std::uint8_t> all(size);
    env_.fs.peek("/weblog", 0, size, all.data());
    std::uint64_t ref = BoyerMoore("sig_ndp").count(all.data(),
                                                    all.size());

    GrepResult r;
    env_.run([&] { r = grepConv(host_, "/weblog", "sig_ndp"); });
    EXPECT_EQ(r.matches, ref);
    EXPECT_EQ(r.bytes_scanned, size);
    EXPECT_GT(r.elapsed, 0u);
}

TEST_F(HostTest, GrepBiscuitMatchesConvModuloPageSeams)
{
    generateWebLog(env_.fs, "/weblog", 300 * 1024, "sig_ndp", 25, 11);
    GrepResult conv, ndp;
    env_.run([&] {
        conv = grepConv(host_, "/weblog", "sig_ndp");
        ndp = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
    });
    // The channel matcher scans page-granular streams; a needle
    // straddling a page boundary is the only legal miss.
    EXPECT_LE(ndp.matches, conv.matches);
    EXPECT_GE(ndp.matches + 3, conv.matches);
    EXPECT_GT(ndp.matches, 0u);
}

TEST_F(HostTest, GrepBiscuitIsFasterAndLoadInsensitive)
{
    generateWebLog(env_.fs, "/weblog", 512 * 1024, "sig_ndp", 50, 3);
    GrepResult conv0, conv24, ndp0, ndp24;
    env_.run([&] {
        conv0 = grepConv(host_, "/weblog", "sig_ndp");
        ndp0 = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
        StreamBench load(host_, 24);
        conv24 = grepConv(host_, "/weblog", "sig_ndp");
        ndp24 = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
    });
    // Conv degrades under load; Biscuit does not (Table V).
    EXPECT_GT(conv24.elapsed, conv0.elapsed);
    double ndp_ratio = static_cast<double>(ndp24.elapsed) /
                       static_cast<double>(ndp0.elapsed);
    EXPECT_NEAR(ndp_ratio, 1.0, 0.05);
}

}  // namespace
}  // namespace bisc::host
