/**
 * @file
 * Span recorder, statistics helpers, digests, the reference-file
 * reader and the device-stack counter snapshot.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "obs/metrics.h"

namespace pb {

using namespace bisc;

// ----- statistics -----

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ----- digests -----

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 1099511628211ull;
}

void
Digest::add(std::uint64_t v)
{
    add(std::to_string(v));
}

void
Digest::addRow(const db::Row &row)
{
    for (const db::Value &v : row) {
        if (const auto *i = std::get_if<std::int64_t>(&v)) {
            add("i" + std::to_string(*i));
        } else if (const auto *d = std::get_if<double>(&v)) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "d%a", *d);
            add(buf);
        } else {
            add("s" + std::get<std::string>(v));
        }
    }
    add("|");
}

void
Digest::addRows(const std::vector<db::Row> &rows)
{
    add(rows.size());
    for (const db::Row &r : rows)
        addRow(r);
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

// ----- reference file -----

std::map<std::string, std::string>
loadReference(const std::string &path)
{
    // reference.json is a flat object of string -> string pairs; a
    // missing file simply means "no reference" (every digest check
    // then reports a failure, never a silent pass).
    std::map<std::string, std::string> ref;
    std::ifstream in(path);
    if (!in)
        return ref;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::vector<std::string> strings;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '"')
            continue;
        std::size_t j = text.find('"', i + 1);
        if (j == std::string::npos)
            break;
        strings.push_back(text.substr(i + 1, j - i - 1));
        i = j;
    }
    for (std::size_t i = 0; i + 1 < strings.size(); i += 2)
        ref[strings[i]] = strings[i + 1];
    return ref;
}

// ----- device-stack counters -----

namespace {

/** True when @p full is @p name or a scoped "<scope>.<name>". */
bool
scopedMatch(const std::string &full, const std::string &name)
{
    if (full == name)
        return true;
    return full.size() > name.size() &&
           full.compare(full.size() - name.size(), name.size(), name) ==
               0 &&
           full[full.size() - name.size() - 1] == '.';
}

}  // namespace

double
registryCounter(sisc::Env &env, const std::string &name)
{
    double sum = 0;
    for (const auto &[full, c] : env.kernel.obs().metrics().counters())
        if (scopedMatch(full, name))
            sum += static_cast<double>(c->value());
    return sum;
}

std::map<std::string, double>
deviceCounters(sisc::Env &env)
{
    std::map<std::string, double> out;
    double pages = 0, busy = 0, pm_scans = 0;
    for (std::uint32_t d = 0; d < env.array.driveCount(); ++d) {
        sim::Stats st;
        auto &dev = env.array.drive(d).device;
        dev.exportStats(st);
        const std::string &s = dev.statsScope();
        pages += st.get(s + "nand.page_reads");
        busy += st.get(s + "nand.channel_busy_ticks");
        pm_scans += st.get(s + "pm.scans");
    }
    out["nand.pages_read"] = pages;
    out["nand.channel_busy_ms"] = busy / 1e6;
    out["pm.scans"] = pm_scans;
    for (const char *c :
         {"ftl.map_lookups", "hil.dma_to_host_bytes", "hil.messages",
          "fs.reads", "fiber.spawns", "rt.modules_loaded"})
        out[c] = registryCounter(env, c);

    auto worstP99 = [&](const std::string &name) {
        double worst = 0;
        for (const auto &[full, h] :
             env.kernel.obs().metrics().histograms())
            if (scopedMatch(full, name) && h->count() > 0)
                worst = std::max(
                    worst, static_cast<double>(h->quantile(0.99)));
        return worst / 1e3;  // ns -> us
    };
    out["sisc.port_recv_wait_p99_us"] = worstP99("sisc.port_recv_wait");
    out["slet.port_send_wait_p99_us"] = worstP99("slet.port_send_wait");
    return out;
}

// ----- spans -----

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::open(const char *name)
{
    SpanRec rec;
    rec.name = name;
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.run = run;
    rec.start = nowS();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = nowS();
    BISC_ASSERT(!stack_.empty() && stack_.back() == id,
                "perfbench spans closed out of order");
    stack_.pop_back();
}

std::map<std::string, std::pair<double, double>>
Tracer::totals() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRec &s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        auto &[dur, self] = out[s.name];
        dur += s.end - s.start;
        self += s.end - s.start - child[i];
    }
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const SpanRec &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

void
Tracer::write(const std::string &path,
              const std::string &extra_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"clock\": \"host-steady-seconds\",\n");
    if (!extra_json.empty())
        std::fprintf(f, "%s,\n", extra_json.c_str());
    std::fprintf(f, "\"self_time_s\": {");
    bool first = true;
    for (const auto &[name, t] : totals()) {
        std::fprintf(f, "%s\n  \"%s\": {\"total\": %.9f, \"self\": %.9f}",
                     first ? "" : ",", name.c_str(), t.first, t.second);
        first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start\": "
                     "%.9f, \"end\": %.9f, \"parent\": %d, \"run\": %d}",
                     i ? "," : "", i, s.name.c_str(), s.start - t0,
                     s.end - t0, s.parent, s.run);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

}  // namespace pb
