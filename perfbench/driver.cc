/**
 * @file
 * perfbench driver: runs one workload and prints, as the last line of
 * standard output, one JSON object with the keys correct, attempted,
 * failed and metrics. Untraced runs (--trace 0) report the end-to-end
 * metrics; traced runs (--trace 1) the per-layer metrics. A summary
 * with the failed share and its base goes to standard error, and a
 * details file (failures, digests, every metric) to --out-dir.
 *
 *   perfbench_driver --workload <tpch_suite|skewed_mixed|serve_open_loop>
 *                    [--seed N] [--seconds S] [--trace 0|1] [--reps N]
 *                    [--reference reference.json] [--out-dir DIR]
 *   perfbench_driver --repro <weblog-grep|unified-serve> [--seed N]
 *   perfbench_driver --repro runserve-equivalence
 *
 * Normally launched through perfbench/run.py, which builds it first.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "util/log.h"

namespace {

using namespace pb;

struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *moves;  ///< end-to-end metric it should move
    const char *on;     ///< ... on which workload
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", "", ""},
    {"run_s", "s", "", ""},
    {"peak_rss_mb", "MiB", "", ""},
    {"sim_speedup_err_pct", "%", "", ""},
    {"sim_makespan_ms", "ms", "", ""},
    {"sim_p50_ms", "ms", "", ""},
    {"sim_p99_ms", "ms", "", ""},
};

/** The per-layer metrics every traced run reports, with the
 *  end-to-end metric and workload each one should move. */
std::vector<MetricSpec>
perLayer()
{
    std::vector<MetricSpec> v = {
        {"tpch.build_s", "s", "setup_s", "skewed_mixed"},
        {"host.weblog_gen_s", "s", "setup_s", "skewed_mixed"},
        {"db.stats.build_s", "s", "setup_s", "skewed_mixed"},
    };
    // Built once and never modified: the specs point into it.
    static const std::vector<std::string> qnames = [] {
        std::vector<std::string> names;
        for (int q = 1; q <= 22; ++q)
            names.push_back("tpch.q" + std::to_string(q) + ".host_ms");
        return names;
    }();
    for (const std::string &n : qnames)
        v.push_back({n.c_str(), "ms", "run_s", "tpch_suite"});
    const std::vector<MetricSpec> rest = {
        {"tpch.conv.host_s", "s", "run_s", "tpch_suite"},
        {"tpch.biscuit.host_s", "s", "run_s", "tpch_suite"},
        {"db.executor.conv_scan_ns_per_page", "ns", "run_s", "tpch_suite"},
        {"db.executor.ndp_scan_ns_per_page", "ns", "run_s", "tpch_suite"},
        {"db.executor.bnl_join_ns_per_row", "ns", "run_s", "tpch_suite"},
        {"db.executor.group_by_ns_per_row", "ns", "run_s", "tpch_suite"},
        {"db.executor.filter_ns_per_row", "ns", "run_s", "tpch_suite"},
        {"db.executor.sort_ns_per_row", "ns", "run_s", "tpch_suite"},
        {"db.table.decode_ns_per_row", "ns", "run_s", "tpch_suite"},
        {"db.planner.ndp_scans", "count", "sim_speedup_err_pct",
         "tpch_suite"},
        {"db.planner.conv_scans", "count", "sim_speedup_err_pct",
         "tpch_suite"},
        {"db.planner.sample_pages", "count", "sim_speedup_err_pct",
         "tpch_suite"},
        {"db.executor.rows_examined", "count", "sim_speedup_err_pct",
         "tpch_suite"},
        {"db.executor.pages_to_host", "count", "sim_speedup_err_pct",
         "tpch_suite"},
        {"sim.speedup_x", "x", "sim_speedup_err_pct", "all"},
        {"db.place.plan_us", "us", "run_s", "skewed_mixed"},
        {"db.workloads.grep_host_ms", "ms", "run_s", "skewed_mixed"},
        {"db.workloads.wordcount_host_ms", "ms", "run_s", "skewed_mixed"},
        {"db.workloads.scan_host_ms", "ms", "run_s", "skewed_mixed"},
        {"db.place.abs_err_pct.median", "%", "sim_makespan_ms",
         "skewed_mixed"},
        {"db.place.abs_err_pct.max", "%", "sim_makespan_ms",
         "skewed_mixed"},
        {"db.place.replans", "count", "sim_makespan_ms", "skewed_mixed"},
        {"db.place.session.joint_rounds", "count", "sim_makespan_ms",
         "skewed_mixed"},
        {"db.place.stages_device", "count", "sim_makespan_ms",
         "skewed_mixed"},
        {"db.place.stages_host", "count", "sim_makespan_ms",
         "skewed_mixed"},
        {"db.prune.pages_skipped", "count", "sim_makespan_ms",
         "skewed_mixed"},
        {"serve.submitted", "count", "sim_p99_ms", "serve_open_loop"},
        {"serve.completed", "count", "sim_p99_ms", "serve_open_loop"},
        {"serve.rejected", "count", "sim_p99_ms", "serve_open_loop"},
        {"serve.infeasible", "count", "sim_p99_ms", "serve_open_loop"},
        {"serve.admission_wait_p99_ms", "ms", "sim_p99_ms",
         "serve_open_loop"},
        {"serve.queue_depth_max", "count", "sim_p99_ms",
         "serve_open_loop"},
        {"serve.host_us_per_job", "us", "run_s", "serve_open_loop"},
        {"ssd.read_pages_ns_per_page", "ns", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"pm.scan_ns_per_page", "ns", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"host.grep_ns_per_byte", "ns", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"host.peak_rss_mb", "MiB", "peak_rss_mb", "all"},
        {"sisc.port_roundtrip_ns", "ns", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"rt.instantiate_us", "us", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"sim.kernel.sleep_wake_ns", "ns", "run_s",
         "serve_open_loop,skewed_mixed"},
        {"fiber.switch_ns", "ns", "run_s", "serve_open_loop,skewed_mixed"},
        {"nand.pages_read", "count", "sim_*", "all"},
        {"nand.channel_busy_ms", "ms", "sim_*", "all"},
        {"ftl.map_lookups", "count", "sim_*", "all"},
        {"hil.dma_to_host_bytes", "B", "sim_*", "all"},
        {"hil.messages", "count", "sim_*", "all"},
        {"pm.scans", "count", "sim_*", "all"},
        {"fs.reads", "count", "sim_*", "all"},
        {"fiber.spawns", "count", "sim_*", "all"},
        {"rt.modules_loaded", "count", "sim_*", "all"},
        {"sisc.port_recv_wait_p99_us", "us", "sim_*", "all"},
        {"slet.port_send_wait_p99_us", "us", "sim_*", "all"},
        {"trace_overhead_pct", "%", "run_s", "all"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
}

const char *
kindName(FailKind k)
{
    switch (k) {
      case FailKind::kIncorrect:
        return "incorrect";
      case FailKind::kKnownDefect:
        return "known-defect";
      case FailKind::kRejected:
        return "rejected";
      case FailKind::kInfeasible:
        return "infeasible";
    }
    return "?";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** JSON number; a non-finite value (a refused job's latency) prints
 *  as the largest double, since JSON has no infinity. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = std::numeric_limits<double>::max();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1] [--reps N] [--reference F] "
                 "[--out-dir D]\n"
                 "       perfbench_driver --repro weblog-grep|unified-serve"
                 "|runserve-equivalence [--seed N]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    bisc::setLogLevel(bisc::LogLevel::Quiet);
    Options opt;
    std::string repro;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v);
        else if (a == "--trace")
            opt.trace = std::atoi(v) != 0;
        else if (a == "--reps")
            opt.reps = std::atoi(v);
        else if (a == "--reference")
            opt.reference = v;
        else if (a == "--out-dir")
            opt.out_dir = v;
        else if (a == "--repro")
            repro = v;
        else
            return usage();
    }
    if (repro == "weblog-grep")
        return reproWeblogGrep(opt.seed);
    if (repro == "unified-serve")
        return reproUnifiedServe();
    if (repro == "runserve-equivalence")
        return checkServeEquivalence();
    if (!repro.empty())
        return usage();
    if (opt.out_dir.empty())
        opt.out_dir = ".";

    Result res;
    if (opt.workload == "tpch_suite")
        res = runTpchSuite(opt);
    else if (opt.workload == "skewed_mixed")
        res = runSkewedMixed(opt);
    else if (opt.workload == "serve_open_loop")
        res = runServeOpenLoop(opt);
    else
        return usage();

    const std::vector<MetricSpec> specs =
        opt.trace ? perLayer() : kEndToEnd;

    // Summary: failed share with its base, failure reasons, notes.
    std::size_t by_kind[4] = {0, 0, 0, 0};
    for (const Failure &f : res.failures)
        ++by_kind[static_cast<int>(f.kind)];
    std::fprintf(stderr,
                 "[perfbench] %s seed %llu: %zu of %llu operations failed "
                 "(%.3f%%); failure reasons: %zu incorrect, %zu known-defect, %zu "
                 "rejected, %zu infeasible; correct=%s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 res.failed_ops.size(),
                 static_cast<unsigned long long>(res.attempted),
                 res.attempted ? 100.0 * res.failed_ops.size() /
                                     res.attempted
                               : 0.0,
                 by_kind[0], by_kind[1], by_kind[2], by_kind[3],
                 res.correct ? "true" : "false");
    for (std::size_t i = 0; i < res.failures.size() && i < 8; ++i)
        std::fprintf(stderr, "[perfbench]   %s [%s]: %s\n",
                     res.failures[i].op.c_str(),
                     kindName(res.failures[i].kind),
                     res.failures[i].why.c_str());
    for (const std::string &n : res.notes)
        std::fprintf(stderr, "[perfbench] %s\n", n.c_str());

    // Details file: everything, for the self-test and for humans.
    const std::string tag = opt.workload + ".seed" +
                            std::to_string(opt.seed) +
                            (opt.trace ? ".trace" : "");
    if (std::FILE *f = std::fopen(
            (opt.out_dir + "/" + tag + ".details.json").c_str(), "w")) {
        std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n",
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed));
        std::fprintf(f, "\"failures\": [");
        for (std::size_t i = 0; i < res.failures.size(); ++i)
            std::fprintf(f, "%s\n  {\"op\": \"%s\", \"kind\": \"%s\", "
                            "\"why\": \"%s\"}",
                         i ? "," : "",
                         jsonEscape(res.failures[i].op).c_str(),
                         kindName(res.failures[i].kind),
                         jsonEscape(res.failures[i].why).c_str());
        std::fprintf(f, "],\n\"digests\": {");
        bool first = true;
        for (const auto &[k, d] : res.digests) {
            std::fprintf(f, "%s\n  \"%s/%s\": \"%s\"", first ? "" : ",",
                         opt.workload.c_str(), jsonEscape(k).c_str(),
                         d.c_str());
            first = false;
        }
        std::fprintf(f, "},\n\"metrics\": {");
        first = true;
        for (const auto &[k, m] : res.metrics) {
            std::fprintf(f, "%s\n  \"%s\": %s", first ? "" : ",",
                         k.c_str(), num(m.value).c_str());
            first = false;
        }
        std::fprintf(f, "}}\n");
        std::fclose(f);
    }

    if (opt.trace) {
        std::string mapping = "\"layer_metrics\": [";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto it = res.metrics.find(specs[i].name);
            mapping += std::string(i ? "," : "") + "\n  {\"name\": \"" +
                       specs[i].name + "\", \"value\": " +
                       num(it == res.metrics.end() ? 0.0
                                                   : it->second.value) +
                       ", \"unit\": \"" + specs[i].unit +
                       "\", \"moves\": \"" + specs[i].moves +
                       "\", \"on\": \"" + specs[i].on + "\"}";
        }
        mapping += "]";
        Tracer::get().write(opt.out_dir + "/" + tag + ".spans.json",
                            mapping);
        bisc::obs::TraceSession::global().flush();
    }

    std::string line = "{\"correct\": ";
    line += res.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(res.attempted);
    line += ", \"failed\": " + std::to_string(res.failed_ops.size());
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto it = res.metrics.find(specs[i].name);
        const double v = it == res.metrics.end() ? 0.0 : it->second.value;
        line += std::string(i ? ", " : "") + "\"" + specs[i].name +
                "\": {\"value\": " + num(v) + ", \"unit\": \"" +
                specs[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
