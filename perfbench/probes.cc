/**
 * @file
 * Layer probes for the traced run. Each probe calls one layer's
 * public entry point directly, on the workload's own populated system,
 * and divides host wall time by the work done. They run after the
 * timed body, never inside it, and only in traced runs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "db/executor.h"
#include "db/expr.h"
#include "fiber/fiber.h"
#include "host/grep.h"
#include "pm/pattern_matcher.h"
#include "runtime/module.h"
#include "sim/kernel.h"
#include "sisc/application.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/ssdlet.h"

namespace pb {

using namespace bisc;

namespace {

/** Device echo: returns every value it receives (port round trips). */
class EchoLet
    : public slet::SSDLet<slet::In<std::uint64_t>,
                          slet::Out<std::uint64_t>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        std::uint64_t v = 0;
        while (in<0>().get(v))
            out<0>().put(v);
    }
};

RegisterSSDLet("perfbench_probe", "idEcho", EchoLet);

constexpr const char *kProbeModulePath = "/perfbench_probe.slet";

double
nsPer(double seconds, double units)
{
    return units > 0 ? seconds * 1e9 / units : 0.0;
}

/** Raw bytes of global pages [0, n) of @p t (functional peek). */
std::vector<std::vector<std::uint8_t>>
peekPages(const db::Table &t, std::uint64_t n)
{
    std::vector<std::vector<std::uint8_t>> pages;
    n = std::min(n, t.pageCount());
    for (std::uint64_t g = 0; g < n; ++g) {
        std::vector<std::uint8_t> buf(t.pageSize());
        t.shardFs(t.shardOf(g))
            .peek(t.file(), t.localPage(g) * t.pageSize(), t.pageSize(),
                  buf.data());
        pages.push_back(std::move(buf));
    }
    return pages;
}

/** Executor, decode, device-read and matcher probes (host fiber). */
void
dbProbes(sisc::Env &env, db::MiniDb &db,
         std::map<std::string, double> &out)
{
    db::Table &li = db.table("lineitem");
    db::Table &ord = db.table("orders");
    const db::Schema &ls = li.schema();
    db::ExprPtr li_pred = db::cmp(ls, "l_shipdate", db::CmpOp::Eq,
                                  std::string("1995-06-17"));
    db::ExprPtr o_pred = db::cmp(ord.schema(), "o_orderdate",
                                 db::CmpOp::Eq,
                                 std::string("1994-07-01"));

    db::DbStats st;
    double t = nowS();
    db::scanTable(db, li, li_pred, db::EngineMode::Conv, st);
    out["db.executor.conv_scan_ns_per_page"] =
        nsPer(nowS() - t, static_cast<double>(
                              std::max<std::uint64_t>(1, st.pages_to_host)));

    // Device-side scan: on cost-model planners force the all-device
    // plan; the paper planner offloads this single-day predicate.
    const db::PlaceForce prev = db.planner.place_force;
    db.planner.place_force = db::PlaceForce::AllDevice;
    st.clear();
    t = nowS();
    db::scanTable(db, li, li_pred, db::EngineMode::Biscuit, st);
    const double ndp_s = nowS() - t;
    db.planner.place_force = prev;
    out["db.executor.ndp_scan_ns_per_page"] = nsPer(
        ndp_s, static_cast<double>(st.pages_scanned_device > 0
                                       ? st.pages_scanned_device
                                       : li.pageCount()));

    st.clear();
    std::vector<db::Row> outer =
        db::scanTable(db, ord, o_pred, db::EngineMode::Conv, st).rows;
    t = nowS();
    db::bnlJoin(db, outer, ord.rowWidth(),
                ord.schema().indexOf("o_orderkey"), li,
                ls.indexOf("l_orderkey"), nullptr, st);
    out["db.executor.bnl_join_ns_per_row"] =
        nsPer(nowS() - t,
              static_cast<double>(outer.size() + li.rowCount()));

    std::vector<db::Row> rows =
        db::scanTable(db, li,
                      db::between(ls, "l_shipdate",
                                  std::string("1995-01-01"),
                                  std::string("1995-03-31")),
                      db::EngineMode::Conv, st)
            .rows;
    const double n_rows = static_cast<double>(std::max<std::size_t>(
        1, rows.size()));
    t = nowS();
    db::groupBy(db, rows,
                {ls.indexOf("l_returnflag"), ls.indexOf("l_linestatus")},
                {{db::AggSpec::Op::Sum, ls.indexOf("l_quantity")},
                 {db::AggSpec::Op::Count, -1}},
                st);
    out["db.executor.group_by_ns_per_row"] = nsPer(nowS() - t, n_rows);

    t = nowS();
    db::filterRows(db, rows,
                   db::cmp(ls, "l_quantity", db::CmpOp::Lt, 25.0), st);
    out["db.executor.filter_ns_per_row"] = nsPer(nowS() - t, n_rows);

    std::vector<db::Row> sorted = rows;
    t = nowS();
    db::sortRows(sorted, {{ls.indexOf("l_quantity"), true},
                          {ls.indexOf("l_orderkey"), false}});
    out["db.executor.sort_ns_per_row"] = nsPer(nowS() - t, n_rows);

    const auto pages = peekPages(li, 512);
    double decode_s = 0, decoded = 0;
    for (std::uint64_t g = 0; g < pages.size(); ++g) {
        t = nowS();
        decoded += static_cast<double>(
            li.decodePage(pages[g].data(), pages[g].size(), g).size());
        decode_s += nowS() - t;
    }
    out["db.table.decode_ns_per_row"] = nsPer(decode_s, decoded);

    pm::PatternMatcher ip;
    ip.configure(db::deriveKeys(*li_pred, ls).keys);
    std::uint64_t hits = 0;
    t = nowS();
    for (const auto &p : pages)
        hits += ip.scan(p.data(), p.size()).any ? 1 : 0;
    out["pm.scan_ns_per_page"] =
        nsPer(nowS() - t, static_cast<double>(pages.size()));

    auto &fs0 = env.array.drive(0).fs;
    std::vector<ftl::Lpn> lpns = fs0.pagesOf(li.file());
    lpns.resize(std::min<std::size_t>(lpns.size(), 512));
    std::vector<std::uint8_t> buf(lpns.size() * fs0.pageSize());
    t = nowS();
    env.array.drive(0).device.hostReadPages(lpns, buf.data());
    out["ssd.read_pages_ns_per_page"] =
        nsPer(nowS() - t, static_cast<double>(lpns.size()));
    (void)hits;
}

/** Port round trip and SSDlet instantiation on drive 0 (host fiber). */
void
runtimeProbes(sisc::Env &env, std::map<std::string, double> &out)
{
    constexpr int kInstances = 64;
    constexpr std::uint64_t kRounds = 2000;
    sisc::SSD ssd(env.runtime);
    rt::ModuleId mid =
        ssd.loadModule(sisc::File(ssd, kProbeModulePath));

    double t = nowS();
    for (int i = 0; i < kInstances; ++i) {
        sisc::Application app(ssd);
        sisc::SSDLet echo(app, mid, "idEcho");
        auto to_dev = app.connectFrom<std::uint64_t>(echo.in(0));
        auto from_dev = app.connectTo<std::uint64_t>(echo.out(0));
        app.start();
        to_dev.close();
        app.wait();
    }
    out["rt.instantiate_us"] = nsPer(nowS() - t, kInstances) / 1e3;

    sisc::Application app(ssd);
    sisc::SSDLet echo(app, mid, "idEcho");
    auto to_dev = app.connectFrom<std::uint64_t>(echo.in(0));
    auto from_dev = app.connectTo<std::uint64_t>(echo.out(0));
    app.start();
    std::uint64_t v = 0, sum = 0;
    t = nowS();
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        to_dev.put(i);
        from_dev.get(v);
        sum += v;
    }
    out["sisc.port_roundtrip_ns"] =
        nsPer(nowS() - t, static_cast<double>(kRounds));
    to_dev.close();
    app.wait();
    BISC_ASSERT(sum == kRounds * (kRounds - 1) / 2,
                "echo SSDlet returned wrong values");
}

/** Host Boyer-Moore over @p hay, repeated for a measurable time. */
double
grepNsPerByte(const std::vector<std::uint8_t> &hay)
{
    host::BoyerMoore bm("heisenbug");
    constexpr int kPasses = 8;
    std::uint64_t found = 0;
    const double t = nowS();
    for (int i = 0; i < kPasses; ++i)
        found += bm.count(hay.data(), hay.size());
    const double s = nowS() - t;
    (void)found;
    return nsPer(s, static_cast<double>(hay.size()) * kPasses);
}

}  // namespace

std::map<std::string, double>
runLayerProbes(sisc::Env &env, db::MiniDb &db,
               const std::string &log_path)
{
    std::map<std::string, double> out;
    env.installModule(kProbeModulePath, "perfbench_probe");
    env.run([&] {
        dbProbes(env, db, out);
        runtimeProbes(env, out);
    });

    // Haystack: the workload's web log, else lineitem page bytes.
    std::vector<std::uint8_t> hay;
    auto &fs0 = env.array.drive(0).fs;
    if (!log_path.empty()) {
        hay.resize(fs0.size(log_path));
        fs0.peek(log_path, 0, hay.size(), hay.data());
    } else {
        for (const auto &p : peekPages(db.table("lineitem"), 1024))
            hay.insert(hay.end(), p.begin(), p.end());
    }
    out["host.grep_ns_per_byte"] = grepNsPerByte(hay);

    // Kernel sleep/wake and raw fiber switches, on a private kernel.
    constexpr int kSleeps = 100000;
    {
        sim::Kernel k;
        k.spawn("probe.sleeper", [] {
            for (int i = 0; i < kSleeps; ++i)
                sim::Kernel::current().sleep(10);
        });
        const double t = nowS();
        k.run();
        out["sim.kernel.sleep_wake_ns"] = nsPer(nowS() - t, kSleeps);
    }
    constexpr int kSwitches = 100000;
    {
        fiber::Fiber f("probe.switch", [] {
            for (int i = 0; i < kSwitches; ++i)
                fiber::Fiber::suspendCurrent();
        });
        const double t = nowS();
        while (!f.finished())
            f.resume();
        // Each resume is a switch in and a switch back out.
        out["fiber.switch_ns"] = nsPer(nowS() - t, 2.0 * kSwitches);
    }
    return out;
}

}  // namespace pb
