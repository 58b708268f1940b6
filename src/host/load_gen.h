/**
 * @file
 * StreamBench-style background load (paper §V-C).
 *
 * The paper stresses the host with N threads of STREAM, a sustained
 * memory-bandwidth benchmark, while measuring Conv vs. Biscuit. The
 * load's only observable effect on the measured thread is memory-
 * hierarchy contention, which HostSystem models as a CPU speed
 * factor; this class owns the load lifecycle and synthesizes a
 * plausible web-log corpus for the string-search experiment.
 */

#ifndef BISCUIT_HOST_LOAD_GEN_H_
#define BISCUIT_HOST_LOAD_GEN_H_

#include <cstdint>
#include <string>

#include "fs/file_system.h"
#include "host/host_system.h"
#include "util/common.h"

namespace bisc::host {

/** RAII background load: N StreamBench threads while in scope. */
class StreamBench
{
  public:
    StreamBench(HostSystem &host, std::uint32_t threads)
        : host_(host), prev_(host.loadThreads())
    {
        host_.setLoadThreads(threads);
    }

    ~StreamBench() { host_.setLoadThreads(prev_); }

    StreamBench(const StreamBench &) = delete;
    StreamBench &operator=(const StreamBench &) = delete;

  private:
    HostSystem &host_;
    std::uint32_t prev_;
};

/**
 * Synthesize a web-log corpus at @p path of ~@p total bytes. Lines
 * look like combined-log entries; @p needle is planted on a
 * deterministic subset of lines (1 in @p needle_period). Returns the
 * number of planted occurrences that made it into the file (the cut
 * at @p total may drop the last one), so search results are
 * verifiable.
 */
std::uint64_t generateWebLog(fs::FileSystem &fs,
                             const std::string &path, Bytes total,
                             const std::string &needle,
                             std::uint32_t needle_period,
                             std::uint64_t seed);

}  // namespace bisc::host

#endif  // BISCUIT_HOST_LOAD_GEN_H_
