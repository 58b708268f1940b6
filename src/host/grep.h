/**
 * @file
 * Simple string search (paper §V-C, Table V): Linux grep with
 * Boyer-Moore on the host versus an NDP grep SSDlet that leans on the
 * per-channel hardware pattern matcher.
 */

#ifndef BISCUIT_HOST_GREP_H_
#define BISCUIT_HOST_GREP_H_

#include <cstdint>
#include <optional>
#include <string>

#include "host/host_system.h"
#include "runtime/runtime.h"
#include "util/common.h"

namespace bisc::host {

/**
 * The host grep's exact string search. Named after the algorithm
 * Linux grep uses (paper ref [33]), whose cost the host charges per
 * byte (HostConfig::grep_ns_per_byte); the functional search itself
 * runs on the shared byte-scan kernel (util/byte_scan.h).
 */
class BoyerMoore
{
  public:
    explicit BoyerMoore(std::string pattern);

    const std::string &pattern() const { return pattern_; }

    /** First occurrence at/after @p start; nullopt when absent. */
    std::optional<std::size_t> find(const std::uint8_t *data,
                                    std::size_t len,
                                    std::size_t start = 0) const;

    /** Number of (possibly overlapping) occurrences. */
    std::uint64_t count(const std::uint8_t *data,
                        std::size_t len) const;

  private:
    std::string pattern_;
};

struct GrepResult
{
    std::uint64_t matches = 0;
    Bytes bytes_scanned = 0;
    Tick elapsed = 0;
};

/**
 * Conventional grep: stream the file to the host with OS readahead
 * and scan it with Boyer-Moore on a host core. Degrades under
 * background memory load.
 */
GrepResult grepConv(HostSystem &host, const std::string &path,
                    const std::string &pattern);

/** grepConv() against drive @p drive of the attached array (the
 *  unified-pipeline host site runs one of these per shard). */
GrepResult grepConvOn(HostSystem &host, std::uint32_t drive,
                      const std::string &path,
                      const std::string &pattern);

/**
 * NDP grep: load the grep SSDlet, stream the file through the
 * per-channel pattern matchers and count occurrences on the device;
 * only the final count crosses the host interface. Loads and unloads
 * the grep module around the search — the one-shot benchmark shape.
 */
GrepResult grepBiscuit(rt::Runtime &runtime, const std::string &path,
                       const std::string &pattern);

/**
 * NDP grep against an already-resident grep module @p mid (loaded
 * once via rt::Runtime::loadModule and kept hot): only instantiation
 * and the scan itself are charged. The serving tier uses this shape —
 * a shared drive keeps its offload modules loaded across requests
 * instead of paying the load/relocate cost per call.
 */
GrepResult grepBiscuitResident(rt::Runtime &runtime, rt::ModuleId mid,
                               const std::string &path,
                               const std::string &pattern);

/** Install the grep .slet file on @p fs if absent (zero time). */
void installGrepModule(fs::FileSystem &fs);

struct WordCountResult
{
    std::uint64_t words = 0;
    std::uint64_t lines = 0;
    Bytes bytes_scanned = 0;
    Tick elapsed = 0;
};

/**
 * Host-side word count over one file of drive @p drive: stream the
 * file with OS readahead and tally whitespace-delimited words and
 * newlines on a host core. The streaming-analytics member of the
 * serving mix's conventional (non-offloaded) jobs.
 */
WordCountResult wordCount(HostSystem &host, std::uint32_t drive,
                          const std::string &path);

}  // namespace bisc::host

#endif  // BISCUIT_HOST_GREP_H_
