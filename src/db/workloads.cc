#include "db/workloads.h"

#include <algorithm>
#include <cstdio>

#include "db/session.h"
#include "runtime/module.h"
#include "sisc/application.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/byte_scan.h"

namespace bisc::db {

namespace {

/**
 * A-priori matched-byte fraction of a grep scan (the share of the
 * stream the device tally CPU actually touches); superseded by
 * feedback from a prior identical grep (MiniDb::matched_page_frac).
 */
constexpr double kGrepTallyPrior = 0.05;

std::string
workloadStatKey(const WorkloadSpec &spec)
{
    return spec.kind == WorkloadKind::Grep
               ? "wk:grep:" + spec.path + ":" + spec.pattern
               : "wk:wc:" + spec.path;
}

// ----- device word count / join semi-scan ("hetero" module) -----

/**
 * Device word count: stream the file chunk-wise off the NAND and run
 * the same scan::WordCounter host::wordCount runs, charging
 * the (pre-slowdown-scaled) tokenizer cost per byte on the device
 * core. Emits two counters — words, then lines.
 */
class WordCountLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, double>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const double cpu_ns_per_byte = arg<1>();
        const Bytes size = file.size();
        std::vector<std::uint8_t> chunk(32_KiB);
        scan::WordCounter counter;
        for (Bytes off = 0; off < size;) {
            const Bytes want =
                std::min<Bytes>(chunk.size(), size - off);
            const Bytes n = file.read(off, chunk.data(), want);
            if (n == 0)
                break;
            consumeCpu(static_cast<Tick>(
                static_cast<double>(n) * cpu_ns_per_byte));
            counter.feed(chunk.data(), n);
            off += n;
        }
        out<0>().put(counter.words());
        out<0>().put(counter.lines());
    }
};

/**
 * Join prefilter semi-scan: one timed streaming pass over the inner
 * shard on its drive, charging the scan cost per byte on the device
 * core. The functional join already knows the matched rows (the
 * prefilter is exact); this SSDlet models the device-side pass that
 * replaces the host's per-block inner re-reads. Emits the bytes
 * scanned.
 */
class SemiScanLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, double>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const double cpu_ns_per_byte = arg<1>();
        const Bytes size = file.size();
        std::vector<std::uint8_t> chunk(32_KiB);
        Bytes scanned = 0;
        for (Bytes off = 0; off < size;) {
            const Bytes want =
                std::min<Bytes>(chunk.size(), size - off);
            const Bytes n = file.read(off, chunk.data(), want);
            if (n == 0)
                break;
            consumeCpu(static_cast<Tick>(
                static_cast<double>(n) * cpu_ns_per_byte));
            scanned += n;
            off += n;
        }
        out<0>().put(scanned);
    }
};

RegisterSSDLet("hetero", "idWordCount", WordCountLet);
RegisterSSDLet("hetero", "idSemiScan", SemiScanLet);

/**
 * Lazily install and load the resident grep module on every drive —
 * the serving-tier lifecycle (load once, instantiate per request),
 * now shared by the unified grep runner. Same shape as the executor's
 * loadMinidbModules.
 */
void
loadGrepModules(MiniDb &db)
{
    if (db.grep_module_loaded)
        return;
    const std::uint32_t drives = db.host().driveCount();
    db.grep_drive_modules.clear();
    db.grep_drive_modules.reserve(drives);
    for (std::uint32_t d = 0; d < drives; ++d) {
        sisc::SSD ssd(db.env().array.drive(d).runtime);
        host::installGrepModule(ssd.runtime().fs());
        db.grep_drive_modules.push_back(ssd.loadModule(
            sisc::File(ssd, "/var/isc/slets/grep.slet")));
    }
    db.grep_module_loaded = true;
}

/** Lazily install and load the "hetero" module on every drive. */
void
loadHeteroModules(MiniDb &db)
{
    if (db.hetero_module_loaded)
        return;
    const std::uint32_t drives = db.host().driveCount();
    db.hetero_drive_modules.clear();
    db.hetero_drive_modules.reserve(drives);
    for (std::uint32_t d = 0; d < drives; ++d) {
        sisc::SSD ssd(db.env().array.drive(d).runtime);
        auto &fs = ssd.runtime().fs();
        if (!fs.exists("/var/isc/slets/hetero.slet")) {
            rt::ModuleRegistry::global().installModuleFile(
                fs, "/var/isc/slets/hetero.slet", "hetero");
        }
        db.hetero_drive_modules.push_back(ssd.loadModule(
            sisc::File(ssd, "/var/isc/slets/hetero.slet")));
    }
    db.hetero_module_loaded = true;
}

/** Run the device word-count SSDlet against @p drive's file. */
host::WordCountResult
deviceWordCount(MiniDb &db, std::uint32_t drive,
                const std::string &path)
{
    loadHeteroModules(db);
    auto &runtime = db.env().array.drive(drive).runtime;
    auto &kernel = runtime.kernel();
    host::WordCountResult result;
    const Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    sisc::Application app(ssd);
    const double cpu =
        db.host().config().grep_ns_per_byte *
        db.env().device.config().device_core_slowdown;
    sisc::SSDLet wc(app, db.hetero_drive_modules[drive],
                    "idWordCount",
                    std::make_tuple(slet::File(path), cpu));
    auto port = app.connectTo<std::uint64_t>(wc.out(0));
    app.start();
    std::vector<std::uint64_t> counters;
    std::uint64_t v = 0;
    while (port.get(v))
        counters.push_back(v);
    app.wait();
    BISC_ASSERT(counters.size() == 2, "word-count SSDlet emitted ",
                counters.size(), " counters");
    result.words = counters[0];
    result.lines = counters[1];
    result.bytes_scanned = runtime.fs().size(path);
    result.elapsed = kernel.now() - t0;
    return result;
}

std::string
placementNote(const PlacementPlan &plan, bool session)
{
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s placed [%s]%s: predicted %.3f ms "
                  "(all-host %.3f ms, all-device %.3f ms)",
                  session ? "session workload" : "workload",
                  plan.describe().c_str(),
                  plan.from_anneal ? " (annealed)" : "",
                  static_cast<double>(plan.predicted) / 1e6,
                  static_cast<double>(plan.predicted_all_host) / 1e6,
                  static_cast<double>(plan.predicted_all_device) /
                      1e6);
    return buf;
}

}  // namespace

PipelineGraph
buildWorkloadGraph(MiniDb &db, const WorkloadSpec &spec)
{
    auto &host = db.host();
    fs::FileSystem &fs = host.fsOf(spec.drive);
    const Bytes size = fs.size(spec.path);
    const Bytes page = fs.pageSize();
    const bool grep = spec.kind == WorkloadKind::Grep;

    PipelineGraph g;
    StageSpec scan;
    scan.label = (grep ? "grep" : "wc") + std::string(".scan.d") +
                 std::to_string(spec.drive);
    scan.shard = spec.drive;
    scan.kind = StageKind::Scan;
    scan.pages = divCeil<Bytes>(size, page);
    scan.page_bytes = page;
    scan.cpu_ns_per_byte = host.config().grep_ns_per_byte;
    scan.eligible_drives = {spec.drive};
    scan.dram = db.env().device.config().instance_user_mem;
    if (grep) {
        // Device site: the matcher hardware filters the stream and
        // the core only tallies near-hit bytes — the selectivity.
        // Feedback from a prior identical grep beats the prior.
        double frac = kGrepTallyPrior;
        auto it = db.matched_page_frac.find(workloadStatKey(spec));
        if (it != db.matched_page_frac.end())
            frac = it->second;
        scan.selectivity = frac;
    } else {
        // Every byte feeds the tokenizer state machine, wherever the
        // stage runs.
        scan.selectivity = 1.0;
    }
    g.stages.push_back(std::move(scan));

    StageSpec merge;
    merge.label = (grep ? "grep" : "wc") + std::string(".merge");
    merge.kind = StageKind::Merge;
    merge.page_bytes = page;
    merge.eligible_drives.clear();
    g.stages.push_back(std::move(merge));

    // Counters-only edge: one u64 (grep) or two (word count) cross,
    // whichever site the scan landed on.
    PipelineEdge e;
    e.from = 0;
    e.to = 1;
    e.bytes = grep ? 8 : 16;
    e.bytes_host = e.bytes;
    g.edges.push_back(e);
    return g;
}

PlacerConfig
workloadPlacerConfig(MiniDb &db)
{
    PlacerConfig pc;
    pc.seed = db.planner.place_seed != 0
                  ? db.planner.place_seed
                  : placeSeedFromEnv(pc.seed);
    pc.core_budget = db.env().device.config().device_cores;
    pc.dram_budget = db.env().device.config().user_mem_bytes;
    return pc;
}

int
admitWorkload(MiniDb &db, const WorkloadSpec &spec)
{
    BISC_ASSERT(db.place_session != nullptr,
                "admitWorkload without a placement session");
    return db.place_session->admit(buildWorkloadGraph(db, spec),
                                   workloadPlacerConfig(db),
                                   spec.force);
}

WorkloadOutcome
runPlannedWorkload(MiniDb &db, const WorkloadSpec &spec,
                   int session_query)
{
    BISC_ASSERT(db.planner.use_unified_pipelines,
                "unified workload run with the gate closed");
    auto &host = db.host();
    PlacementSession *session = db.place_session;

    WorkloadOutcome out;
    if (session_query >= 0 && session != nullptr) {
        // Launch checkpoint: re-price the (all still unlaunched)
        // stages against a fresh snapshot, then commit them.
        session->maybeReplan(session_query);
        out.plan = session->plan(session_query);
        session->markLaunched(session_query);
    } else {
        const PipelineGraph g = buildWorkloadGraph(db, spec);
        const CostCalibration calib = calibrateCostModel(db);
        const std::vector<DriveLoadSnapshot> loads =
            snapshotDriveLoads(db);
        const PlacerConfig pc = workloadPlacerConfig(db);
        out.plan =
            spec.force == PlaceForce::Auto
                ? placePipeline(g, calib, loads, pc)
                : forcedPipelinePlan(g, calib, loads,
                                     spec.force ==
                                         PlaceForce::AllHost);
    }

    const bool on_host = !out.plan.valid || out.plan.sites.empty() ||
                         out.plan.sites[0].on_host;
    if (spec.kind == WorkloadKind::Grep) {
        if (on_host) {
            out.grep = host::grepConvOn(host, spec.drive, spec.path,
                                        spec.pattern);
        } else {
            loadGrepModules(db);
            out.grep = host::grepBiscuitResident(
                db.env().array.drive(spec.drive).runtime,
                db.grep_drive_modules[spec.drive], spec.path,
                spec.pattern);
        }
        // Matched-byte-fraction feedback for the device tally
        // pricing: ~64 bytes of tally context per hit.
        const Bytes size = host.fsOf(spec.drive).size(spec.path);
        if (size > 0) {
            db.matched_page_frac[workloadStatKey(spec)] = std::min(
                1.0, static_cast<double>(out.grep.matches) * 64.0 /
                         static_cast<double>(size));
        }
    } else {
        out.wc = on_host
                     ? host::wordCount(host, spec.drive, spec.path)
                     : deviceWordCount(db, spec.drive, spec.path);
    }
    out.note =
        placementNote(out.plan, session_query >= 0 && session);
    if (session_query >= 0 && session != nullptr)
        session->release(session_query);
    return out;
}

WorkloadOutcome
runWorkload(MiniDb &db, const WorkloadSpec &spec)
{
    if (db.place_session != nullptr)
        return runPlannedWorkload(db, spec, admitWorkload(db, spec));
    return runPlannedWorkload(db, spec, -1);
}

void
warmGrepModules(MiniDb &db)
{
    loadGrepModules(db);
}

void
warmHeteroModules(MiniDb &db)
{
    loadHeteroModules(db);
}

}  // namespace bisc::db
