#include "host/load_gen.h"

#include <cstring>

#include "util/rng.h"

namespace bisc::host {

namespace {

const char *const kMethods[] = {"GET", "POST", "PUT", "HEAD"};
const char *const kPaths[] = {
    "/index.html", "/img/logo.png", "/api/v1/items", "/login",
    "/search?q=ssd", "/static/app.js", "/feed.xml", "/about",
};
const char *const kAgents[] = {
    "Mozilla/5.0", "curl/7.38", "Wget/1.16", "spider/2.1",
};

/** One synthetic combined-log line for index @p i. */
std::string
logLine(std::uint64_t i, Rng &rng, const std::string &needle,
        std::uint32_t needle_period)
{
    std::string line;
    line.reserve(96);
    line += "10.";
    line += std::to_string(rng.below(256));
    line += '.';
    line += std::to_string(rng.below(256));
    line += '.';
    line += std::to_string(rng.below(256));
    line += " - - [1995-";
    line += std::to_string(1 + rng.below(12));
    line += '-';
    line += std::to_string(1 + rng.below(28));
    line += "] \"";
    line += kMethods[rng.below(4)];
    line += ' ';
    line += kPaths[rng.below(8)];
    line += "\" ";
    line += std::to_string(200 + 100 * rng.below(4));
    line += ' ';
    line += std::to_string(rng.below(100000));
    line += ' ';
    if (needle_period != 0 && i % needle_period == 0)
        line += needle;
    else
        line += kAgents[rng.below(4)];
    line += '\n';
    return line;
}

}  // namespace

std::uint64_t
generateWebLog(fs::FileSystem &fs, const std::string &path, Bytes total,
               const std::string &needle, std::uint32_t needle_period,
               std::uint64_t seed)
{
    // Generate lines once into a byte budget, counting the needles
    // that end inside it (the cut through the last line may drop
    // one); stream into the file system page by page to avoid holding
    // the corpus twice.
    Rng rng(seed);
    std::uint64_t planted = 0;
    std::uint64_t line_no = 0;
    Bytes generated = 0;  // corpus offset just past `pending`
    std::string pending;

    fs.populateWith(path, total,
                    [&](Bytes off, std::uint8_t *buf, Bytes n) {
                        (void)off;
                        while (pending.size() < n) {
                            const bool planting =
                                needle_period != 0 &&
                                line_no % needle_period == 0;
                            std::string line = logLine(
                                line_no++, rng, needle, needle_period);
                            generated += line.size();
                            // The needle is the last field, just
                            // before the newline.
                            if (planting && generated - 1 <= total)
                                ++planted;
                            pending += line;
                        }
                        std::memcpy(buf, pending.data(), n);
                        pending.erase(0, n);
                    });
    return planted;
}

}  // namespace bisc::host
