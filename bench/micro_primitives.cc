/**
 * @file
 * Google-benchmark microbenchmarks of the framework's hot primitives
 * (real wall-clock time, unlike the simulated-time table/figure
 * benches): event queue churn, fiber switches, bounded queues, packet
 * serialization, the byte-scan kernels (host grep, the pattern
 * matcher and word count, over uniform bytes and a generated web
 * log), and the runtime allocator.
 */

#include <benchmark/benchmark.h>

#include "util/log.h"

#include <string>
#include <vector>

#include "fiber/fiber.h"
#include "host/grep.h"
#include "host/load_gen.h"
#include "pm/pattern_matcher.h"
#include "runtime/allocator.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "util/bounded_queue.h"
#include "util/byte_scan.h"
#include "util/packet.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace {

using namespace bisc;

// Benchmark fixtures intentionally abandon fibers between
// iterations; silence the teardown warnings.
[[maybe_unused]] const bool g_quiet = [] {
    setLogLevel(LogLevel::Quiet);
    return true;
}();

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int acc = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>(i % 97), [&acc] { ++acc; });
        while (q.runOne()) {
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_FiberSwitch(benchmark::State &state)
{
    fiber::Fiber f("bench", [] {
        while (true)
            fiber::Fiber::suspendCurrent();
    });
    for (auto _ : state)
        f.resume();
    state.SetItemsProcessed(state.iterations() * 2);  // 2 switches
}
BENCHMARK(BM_FiberSwitch);

void
BM_KernelSleepWake(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Kernel k;
        k.spawn("sleeper", [] {
            for (int i = 0; i < 100; ++i)
                sim::Kernel::current().sleep(10);
        });
        k.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KernelSleepWake);

void
BM_BoundedQueuePushPop(benchmark::State &state)
{
    BoundedQueue<std::uint64_t> q(256);
    std::uint64_t v = 0;
    for (auto _ : state) {
        q.tryPush(v++);
        benchmark::DoNotOptimize(q.tryPop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedQueuePushPop);

void
BM_PacketSerializePairVector(benchmark::State &state)
{
    std::vector<std::pair<std::string, std::uint32_t>> kv;
    for (int i = 0; i < 64; ++i)
        kv.emplace_back("word" + std::to_string(i), i);
    for (auto _ : state) {
        Packet p = serialize(kv);
        auto out = deserialize<
            std::vector<std::pair<std::string, std::uint32_t>>>(p);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PacketSerializePairVector);

/** Haystacks for the byte-scan benchmarks. */
enum class Haystack
{
    /** Uniform a-z: the filter's first/last-byte candidates are rare. */
    Uniform,
    /** The serving tier's generated web log: ASCII text with frequent
     *  first/last-byte candidates and planted needles. */
    WebLog,
};

constexpr const char *kWebLogNeedle = "heisenbug";

/** 2 MiB of @p kind bytes, built once per kind. */
const std::vector<std::uint8_t> &
haystack(Haystack kind)
{
    static const std::vector<std::uint8_t> uniform = [] {
        Rng rng(seedFromEnv(5));
        std::vector<std::uint8_t> hay(2_MiB);
        for (auto &b : hay)
            b = static_cast<std::uint8_t>('a' + rng.below(26));
        return hay;
    }();
    static const std::vector<std::uint8_t> weblog = [] {
        sisc::Env env;
        host::generateWebLog(env.fs, "/weblog", 2_MiB, kWebLogNeedle, 97,
                             seedFromEnv(14));
        std::vector<std::uint8_t> hay(env.fs.size("/weblog"));
        env.fs.peek("/weblog", 0, hay.size(), hay.data());
        return hay;
    }();
    return kind == Haystack::Uniform ? uniform : weblog;
}

void
BM_BoyerMooreScan(benchmark::State &state, Haystack kind)
{
    const auto &hay = haystack(kind);
    host::BoyerMoore bm(kind == Haystack::Uniform ? "needlepattern"
                                                  : kWebLogNeedle);
    for (auto _ : state)
        benchmark::DoNotOptimize(bm.count(hay.data(), 1_MiB));
    state.SetBytesProcessed(state.iterations() * 1_MiB);
}
BENCHMARK_CAPTURE(BM_BoyerMooreScan, uniform, Haystack::Uniform);
BENCHMARK_CAPTURE(BM_BoyerMooreScan, weblog, Haystack::WebLog);

void
BM_PatternMatcherScan(benchmark::State &state, Haystack kind)
{
    // One 16 KiB page per iteration, cycling through the haystack.
    const auto &hay = haystack(kind);
    constexpr std::size_t kPage = 16 << 10;
    pm::KeySet keys;
    if (kind == Haystack::Uniform) {
        keys.addKey("1995-09");
        keys.addKey("PROMO");
        keys.addKey("BUILDING");
    } else {
        keys.addKey(kWebLogNeedle);
    }
    pm::PatternMatcher ip;
    ip.configure(keys);
    std::size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ip.scan(hay.data() + off, kPage));
        off = (off + kPage) % (hay.size() - kPage + 1);
    }
    state.SetBytesProcessed(state.iterations() * kPage);
}
BENCHMARK_CAPTURE(BM_PatternMatcherScan, uniform, Haystack::Uniform);
BENCHMARK_CAPTURE(BM_PatternMatcherScan, weblog, Haystack::WebLog);

/** host::wordCount's per-window work: one 1 MiB readahead window. */
void
BM_WordCount(benchmark::State &state)
{
    const auto &hay = haystack(Haystack::WebLog);
    for (auto _ : state) {
        scan::WordCounter wc;
        wc.feed(hay.data(), 1_MiB);
        benchmark::DoNotOptimize(wc.words());
        benchmark::DoNotOptimize(wc.lines());
    }
    state.SetBytesProcessed(state.iterations() * 1_MiB);
}
BENCHMARK(BM_WordCount);

void
BM_AllocatorChurn(benchmark::State &state)
{
    rt::Allocator alloc("bench", 16_MiB);
    Rng rng(seedFromEnv(7));
    std::vector<rt::MemAddr> live;
    for (auto _ : state) {
        if (live.size() < 64 || rng.chance(0.55)) {
            auto a = alloc.allocate(64 + rng.below(4096));
            if (a)
                live.push_back(*a);
        } else {
            std::size_t i = rng.below(live.size());
            alloc.free(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    for (auto a : live)
        alloc.free(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorChurn);

constexpr Bytes kImageFileBytes = 2_MiB;

/** A small populated system for the snapshot/fork benchmarks. */
sisc::Env *
populatedEnv()
{
    auto *env = new sisc::Env();
    std::vector<std::uint8_t> data(kImageFileBytes);
    for (Bytes i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 131);
    env->fs.populate("/bench/data", data.data(), data.size());
    return env;
}

void
BM_DeviceImageFreeze(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sisc::Env *env = populatedEnv();
        state.ResumeTiming();
        auto image = sisc::freezeDeviceImage(*env);
        benchmark::DoNotOptimize(image.nand->pages.size());
        state.PauseTiming();
        delete env;
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * kImageFileBytes);
}
BENCHMARK(BM_DeviceImageFreeze);

void
BM_DeviceImageFork(benchmark::State &state)
{
    sisc::Env *frozen = populatedEnv();
    const sim::DeviceImage image = sisc::freezeDeviceImage(*frozen);

    std::size_t shared = 0;
    std::size_t copied = 0;
    for (auto _ : state) {
        // Fork a lane and run a read-only query over the whole file:
        // every page must be served from the shared image, none
        // copied into the lane's overlay.
        sisc::Env lane(image);
        std::vector<std::uint8_t> buf(lane.fs.pageSize());
        lane.run([&] {
            for (Bytes off = 0; off < kImageFileBytes;
                 off += buf.size())
                lane.fs.read("/bench/data", off, buf.size(),
                             buf.data());
        });
        shared = lane.device.nand().basePages();
        copied = lane.device.nand().overlayPages();
        BISC_ASSERT(copied == 0,
                    "read-only fork copied ", copied, " pages");
        benchmark::DoNotOptimize(buf.data());
    }
    state.counters["pages_shared"] =
        static_cast<double>(shared);
    state.counters["pages_copied"] =
        static_cast<double>(copied);
    state.SetItemsProcessed(state.iterations());
    delete frozen;
}
BENCHMARK(BM_DeviceImageFork);

}  // namespace

BENCHMARK_MAIN();
