/**
 * @file
 * Scan-shape oracle. The executor runs every shard of a scan in one
 * of three shapes (Host, Device, Chained); the paper's two scan kinds
 * are the uniform cases of a placed scan:
 *
 *  1. A Conv-mode scan returns and costs exactly what a forced
 *     all-host plan does, through both the per-shard cost model and
 *     the pipeline planner.
 *  2. A paper-planner offload (statistics estimate, threshold rule)
 *     returns and costs exactly what a forced all-device cost-model
 *     plan does.
 *
 * Checked at 1, 2 and 4 drives, for a day range the zone maps prune
 * and for one they cannot (the table's second date column is
 * scattered), over three data seeds. Compared: rows, pages to host,
 * pages scanned on the device, rows examined, and the scan entries of
 * DbStats::op_ticks. Every run forks the same frozen device image and
 * warms the same modules first, so no compared scan pays a load.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

constexpr std::int64_t kRows = 12000;

Schema
shapeSchema()
{
    return Schema({col("id", Type::Int64), col("day", Type::Date),
                   col("ship", Type::Date),
                   col("tag", Type::String, 10)});
}

/** day ascends with id (zone maps prune it); ship is scattered. */
std::vector<Row>
shapeRows(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (std::int64_t i = 0; i < kRows; ++i) {
        rows.push_back(
            {i, dateAddDays("1994-01-01", i * 730 / kRows),
             dateAddDays("1994-01-01",
                         static_cast<std::int64_t>(rng.below(730))),
             std::string(rng.below(3) == 0 ? "alpha" : "beta")});
    }
    return rows;
}

/** What one scan returned and cost. */
struct ScanRun
{
    std::vector<Row> rows;
    bool used_ndp = false;
    std::uint64_t pages_to_host = 0;
    std::uint64_t pages_scanned_device = 0;
    std::uint64_t rows_examined = 0;
    std::uint64_t pages_skipped = 0;  ///< by the zone maps
    Tick scan_ticks = 0;  ///< sum of the "*_scan" op_ticks entries
    std::string note;
};

/** One frozen table image per (drive count, data seed). */
struct Image
{
    std::uint32_t drives = 1;
    sim::DeviceImage image;
};

Image
buildImage(std::uint32_t drives, std::uint64_t seed)
{
    sisc::Env env(ssd::testConfig(), drives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.use_stats = true;
    auto &t = db.createShardedTable("events", shapeSchema());
    t.loadRows(shapeRows(seed));
    Image img{drives, sisc::freezeDeviceImage(env)};
    exportTableStats(db, img.image);
    return img;
}

/** The planner settings every compared run starts from. */
PlannerConfig
baseConfig()
{
    PlannerConfig cfg;
    cfg.min_table_bytes = 8_KiB;
    cfg.sample_pages = 8;
    cfg.use_stats = true;
    cfg.place_seed = 0xfeedull;
    // The scattered-column range matches rows on nearly every page;
    // a threshold of 1 lets the paper's rule offload it anyway.
    cfg.page_selectivity_threshold = 1.0;
    return cfg;
}

ScanRun
runScan(const Image &img, const PlannerConfig &cfg, EngineMode mode,
        const ExprPtr &pred)
{
    sisc::Env env(img.image);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.attachShardedTable("events", shapeSchema(), kRows, img.drives);
    adoptTableStats(db, img.image);

    ScanRun r;
    env.run([&] {
        // The same resident modules for every configuration.
        db.planner = cfg;
        db.planner.use_pipeline = true;
        warmMinidbModule(db);
        db.planner = cfg;

        DbStats stats;
        ScanOutcome out =
            scanTable(db, db.table("events"), pred, mode, stats);
        r.rows = std::move(out.rows);
        r.used_ndp = out.used_ndp;
        r.pages_to_host = stats.pages_to_host;
        r.pages_scanned_device = stats.pages_scanned_device;
        r.rows_examined = stats.rows_examined;
        r.pages_skipped = stats.prune_pages_skipped;
        const std::string suffix = "_scan";
        for (const auto &[name, ticks] : stats.op_ticks) {
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
                r.scan_ticks += ticks;
        }
        r.note = out.note;
    });
    return r;
}

void
expectSameScan(const ScanRun &a, const ScanRun &b,
               const std::string &what)
{
    EXPECT_EQ(a.rows, b.rows) << what;
    EXPECT_EQ(a.used_ndp, b.used_ndp) << what;
    EXPECT_EQ(a.pages_to_host, b.pages_to_host) << what;
    EXPECT_EQ(a.pages_scanned_device, b.pages_scanned_device) << what;
    EXPECT_EQ(a.rows_examined, b.rows_examined) << what;
    EXPECT_EQ(a.pages_skipped, b.pages_skipped) << what;
    EXPECT_EQ(a.scan_ticks, b.scan_ticks) << what;
}

struct ShapePred
{
    std::string name;
    ExprPtr pred;
    bool pruned = false;  ///< do the zone maps skip pages?
};

/** A pruned day range and an unprunable ship range for @p seed. */
std::vector<ShapePred>
predicates(std::uint64_t seed)
{
    const Schema schema = shapeSchema();
    const std::string lo = dateAddDays(
        "1994-02-01", static_cast<std::int64_t>(seed * 97 % 600));
    const std::string hi = dateAddDays(lo, 12);
    return {{"day " + lo, between(schema, "day", lo, hi), true},
            {"ship " + lo, between(schema, "ship", lo, hi), false}};
}

constexpr std::uint64_t kSeeds[] = {7, 11, 23};

TEST(ScanShape, ConvScanEqualsForcedAllHostPlan)
{
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        for (std::uint64_t seed : kSeeds) {
            const Image img = buildImage(drives, seed);
            for (const auto &[name, pred, pruned] : predicates(seed)) {
                const std::string what =
                    name + " drives " + std::to_string(drives) +
                    " seed " + std::to_string(seed);
                PlannerConfig cfg = baseConfig();
                const ScanRun conv =
                    runScan(img, cfg, EngineMode::Conv, pred);
                ASSERT_FALSE(conv.rows.empty()) << what;
                EXPECT_FALSE(conv.used_ndp) << what;
                EXPECT_GT(conv.scan_ticks, Tick{0}) << what;
                EXPECT_EQ(conv.pages_skipped > 0, pruned) << what;

                cfg.use_cost_model = true;
                cfg.place_force = PlaceForce::AllHost;
                const ScanRun placed =
                    runScan(img, cfg, EngineMode::Biscuit, pred);
                EXPECT_NE(placed.note.find("cost model placed"),
                          std::string::npos)
                    << what << ": " << placed.note;
                expectSameScan(conv, placed, "cost model, " + what);

                cfg.use_pipeline = true;
                const ScanRun piped =
                    runScan(img, cfg, EngineMode::Biscuit, pred);
                EXPECT_NE(piped.note.find("pipeline placed"),
                          std::string::npos)
                    << what << ": " << piped.note;
                expectSameScan(conv, piped, "pipeline, " + what);
            }
        }
    }
}

TEST(ScanShape, PaperOffloadEqualsForcedAllDevicePlan)
{
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        for (std::uint64_t seed : kSeeds) {
            const Image img = buildImage(drives, seed);
            for (const auto &[name, pred, pruned] : predicates(seed)) {
                const std::string what =
                    name + " drives " + std::to_string(drives) +
                    " seed " + std::to_string(seed);
                PlannerConfig cfg = baseConfig();
                const ScanRun paper =
                    runScan(img, cfg, EngineMode::Biscuit, pred);
                ASSERT_FALSE(paper.rows.empty()) << what;
                EXPECT_TRUE(paper.used_ndp) << what << ": " << paper.note;
                EXPECT_GT(paper.pages_scanned_device, 0u) << what;
                EXPECT_EQ(paper.pages_skipped > 0, pruned) << what;

                cfg.use_cost_model = true;
                cfg.place_force = PlaceForce::AllDevice;
                const ScanRun placed =
                    runScan(img, cfg, EngineMode::Biscuit, pred);
                EXPECT_NE(placed.note.find("cost model placed"),
                          std::string::npos)
                    << what << ": " << placed.note;
                expectSameScan(paper, placed, "cost model, " + what);
            }
        }
    }
}

}  // namespace
}  // namespace bisc::db
