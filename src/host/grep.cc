#include "host/grep.h"

#include <algorithm>
#include <vector>

#include "runtime/module.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/byte_scan.h"

namespace bisc::host {

// ----- Boyer-Moore -----

BoyerMoore::BoyerMoore(std::string pattern)
    : pattern_(std::move(pattern))
{
    BISC_ASSERT(!pattern_.empty(), "empty grep pattern");
}

std::optional<std::size_t>
BoyerMoore::find(const std::uint8_t *data, std::size_t len,
                 std::size_t start) const
{
    if (start >= len)
        return std::nullopt;
    const std::size_t at = scan::find(
        data + start, len - start,
        reinterpret_cast<const std::uint8_t *>(pattern_.data()),
        pattern_.size());
    if (at == scan::kNpos)
        return std::nullopt;
    return start + at;
}

std::uint64_t
BoyerMoore::count(const std::uint8_t *data, std::size_t len) const
{
    return scan::count(
        data, len, reinterpret_cast<const std::uint8_t *>(pattern_.data()),
        pattern_.size());
}

// ----- Host streaming scans -----

namespace {

/**
 * Shared skeleton of the host-side streaming scans (grep, word
 * count): stream the file off drive @p drive with OS readahead at a
 * 1 MiB window, charge the scanner's per-byte CPU, and hand each
 * chunk to @p chunk. Bytes and elapsed ticks accumulate into the
 * caller's result fields.
 */
template <class Chunk>
void
hostStreamScan(HostSystem &host, std::uint32_t drive,
               const std::string &path, Bytes &scanned,
               Tick &elapsed, const Chunk &chunk)
{
    const Tick t0 = host.kernel().now();
    const Bytes size = host.fsOf(drive).size(path);
    host.streamReadOn(
        drive, path, 0, size, 1_MiB,
        [&](Bytes off, const std::uint8_t *data, Bytes n) {
            (void)off;
            host.consumeCpuPerByte(n,
                                   host.config().grep_ns_per_byte);
            chunk(data, n);
            scanned += n;
        });
    elapsed = host.kernel().now() - t0;
}

}  // namespace

GrepResult
grepConvOn(HostSystem &host, std::uint32_t drive,
           const std::string &path, const std::string &pattern)
{
    BoyerMoore bm(pattern);
    GrepResult result;
    const std::size_t overlap = pattern.size() - 1;

    // Matches straddling a chunk boundary: the seam is the previous
    // chunk's last m-1 bytes plus this chunk's first m-1, so every hit
    // in it starts before the boundary and ends after it.
    std::vector<std::uint8_t> seam;
    hostStreamScan(
        host, drive, path, result.bytes_scanned, result.elapsed,
        [&](const std::uint8_t *data, Bytes n) {
            result.matches += bm.count(data, n);
            if (!seam.empty()) {
                seam.insert(seam.end(), data,
                            data + std::min<Bytes>(overlap, n));
                result.matches += bm.count(seam.data(), seam.size());
            }
            const Bytes keep = std::min<Bytes>(overlap, n);
            seam.assign(data + n - keep, data + n);
        });
    return result;
}

GrepResult
grepConv(HostSystem &host, const std::string &path,
         const std::string &pattern)
{
    return grepConvOn(host, 0, path, pattern);
}

// ----- NDP grep SSDlet -----

namespace {

/**
 * Streams its file argument through the channel pattern matchers and
 * counts occurrences of the key; only the count leaves the SSD.
 */
class GrepLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, std::string>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const std::string &pattern = arg<1>();
        pm::KeySet keys;
        bool ok = keys.addKey(pattern);
        BISC_ASSERT(ok, "pattern exceeds matcher limits: ", pattern);

        BoyerMoore bm(pattern);
        std::uint64_t total = 0;
        auto token = file.scanMatched(
            0, file.size(), keys,
            [&](Bytes off, const std::uint8_t *data, Bytes n) {
                (void)off;
                // The matcher IP reports hit positions; device
                // software only tallies them (a couple of
                // microseconds per hit on the R7 core).
                std::uint64_t hits = bm.count(data, n);
                consumeCpu(kUsec + 2 * kUsec * hits);
                total += hits;
            });
        token.wait();
        out<0>().put(total);
    }
};

RegisterSSDLet("grep", "idGrep", GrepLet);

}  // namespace

void
installGrepModule(fs::FileSystem &fs)
{
    if (!fs.exists("/var/isc/slets/grep.slet")) {
        rt::ModuleRegistry::global().installModuleFile(
            fs, "/var/isc/slets/grep.slet", "grep");
    }
}

GrepResult
grepBiscuitResident(rt::Runtime &runtime, rt::ModuleId mid,
                    const std::string &path,
                    const std::string &pattern)
{
    auto &kernel = runtime.kernel();
    GrepResult result;
    Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    sisc::Application app(ssd);
    sisc::SSDLet grep(app, mid, "idGrep",
                      std::make_tuple(slet::File(path), pattern));
    auto port = app.connectTo<std::uint64_t>(grep.out(0));
    app.start();
    std::uint64_t count = 0;
    while (port.get(count))
        result.matches += count;
    app.wait();

    result.bytes_scanned = runtime.fs().size(path);
    result.elapsed = kernel.now() - t0;
    return result;
}

GrepResult
grepBiscuit(rt::Runtime &runtime, const std::string &path,
            const std::string &pattern)
{
    auto &kernel = runtime.kernel();
    Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    installGrepModule(runtime.fs());
    auto mid = ssd.loadModule(
        sisc::File(ssd, "/var/isc/slets/grep.slet"));
    GrepResult result = grepBiscuitResident(runtime, mid, path,
                                            pattern);
    ssd.unloadModule(mid);
    result.elapsed = kernel.now() - t0;  // include load/unload
    return result;
}

WordCountResult
wordCount(HostSystem &host, std::uint32_t drive,
          const std::string &path)
{
    WordCountResult result;
    scan::WordCounter counter;
    hostStreamScan(host, drive, path, result.bytes_scanned,
                   result.elapsed,
                   [&](const std::uint8_t *data, Bytes n) {
                       counter.feed(data, n);
                   });
    result.words = counter.words();
    result.lines = counter.lines();
    return result;
}

}  // namespace bisc::host
