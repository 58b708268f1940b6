#include "pm/pattern_matcher.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/byte_scan.h"

namespace bisc::pm {

bool
KeySet::addKey(const std::string &key)
{
    if (key.empty() || key.size() > kMaxKeyLength ||
        keys_.size() >= kMaxKeys) {
        return false;
    }
    keys_.push_back(key);
    return true;
}

namespace {

static_assert(scan::kNpos == std::string::npos);

/** First offset of @p key in the window, or npos. */
std::size_t
findKey(const std::uint8_t *data, std::size_t len, const std::string &key)
{
    return scan::find(data, len,
                      reinterpret_cast<const std::uint8_t *>(key.data()),
                      key.size());
}

}  // namespace

MatchResult
PatternMatcher::scan(const std::uint8_t *data, std::size_t len) const
{
    MatchResult r;
    for (std::size_t i = 0; i < keys_.keys().size(); ++i) {
        std::size_t off = findKey(data, len, keys_.keys()[i]);
        if (off != std::string::npos) {
            r.any = true;
            r.hit[i] = true;
            r.first_offset[i] = off;
        }
    }
    if (obs::enabled()) {
        ++scans_;
        bytes_scanned_ += len;
        if (r.any)
            ++matched_scans_;
    }
    return r;
}

std::vector<std::size_t>
PatternMatcher::findAll(const std::uint8_t *data, std::size_t len) const
{
    std::vector<std::size_t> hits;
    for (const auto &key : keys_.keys()) {
        std::size_t base = 0;
        while (base < len) {
            std::size_t off = findKey(data + base, len - base, key);
            if (off == std::string::npos)
                break;
            hits.push_back(base + off);
            base += off + 1;
        }
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    return hits;
}

}  // namespace bisc::pm
