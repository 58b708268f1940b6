#include "db/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "db/planner.h"
#include "db/session.h"
#include "db/stats.h"
#include "db/workloads.h"
#include "runtime/module.h"
#include "sim/fanout.h"
#include "sisc/application.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"

namespace bisc::db {

namespace {

constexpr std::uint32_t kPagesPerBatch = 8;

/**
 * Wall-to-wall sim-time accounting of one relational operator:
 * accumulates into DbStats::op_ticks[name] and, when tracing, emits a
 * "db"-category span covering the operator.
 */
class OpTimer
{
  public:
    OpTimer(MiniDb &db, DbStats &stats, const char *name)
        : kernel_(db.env().kernel), stats_(stats), name_(name),
          begin_(kernel_.now())
    {}

    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;

    ~OpTimer()
    {
        Tick dur = kernel_.now() - begin_;
        stats_.op_ticks[name_] += dur;
        OBS_COMPLETE(kernel_.obs(), "db", name_, begin_, dur);
    }

  private:
    sim::Kernel &kernel_;
    DbStats &stats_;
    const char *name_;
    Tick begin_;
};

/**
 * The generic scan/filter SSDlet of the "minidb" module: streams its
 * table file through the channel matchers and ships only matching
 * pages to the host, batched into Packets framed as
 * [u32 n]{u64 page, u32 len, bytes}*.
 */
class ScanFilterLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<Packet>,
          slet::Arg<slet::File, std::vector<std::string>,
                    std::uint64_t, std::uint64_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const auto &key_strings = arg<1>();
        std::uint64_t page_size = arg<2>();
        std::uint64_t n_pages = arg<3>();

        pm::KeySet keys;
        for (const auto &k : key_strings) {
            bool ok = keys.addKey(k);
            BISC_ASSERT(ok, "scan key rejected by matcher: ", k);
        }

        Packet batch;
        std::uint32_t batched = 0;
        batch.put<std::uint32_t>(0);  // patched before send

        auto flush = [&] {
            if (batched == 0)
                return;
            Packet framed;
            framed.put<std::uint32_t>(batched);
            framed.putBytes(batch.data() + sizeof(std::uint32_t),
                            batch.size() - sizeof(std::uint32_t));
            out<0>().put(std::move(framed));
            batch.clear();
            batch.put<std::uint32_t>(0);
            batched = 0;
        };

        auto token = file.scanMatched(
            0, n_pages * page_size, keys,
            [&](Bytes off, const std::uint8_t *data, Bytes len) {
                batch.put<std::uint64_t>(off / page_size);
                batch.put<std::uint32_t>(
                    static_cast<std::uint32_t>(len));
                batch.putBytes(data, len);
                if (++batched >= kPagesPerBatch)
                    flush();
            });
        token.wait();
        flush();
    }
};

/**
 * Run-list scan/filter SSDlet of the "minidb_prune" module: like
 * ScanFilterLet, but streams only the requested page runs — flattened
 * (first, count) local-page pairs, the host planner's zone-map prune.
 * Excluded runs are never touched: no IP control time, no channel
 * stream-through, no flash reads.
 *
 * A separate SSDlet (and module) rather than a new argument on
 * ScanFilterLet because a module's image size — and therefore its
 * timed load — tracks its SSDlets' footprints; growing the baseline
 * scan SSDlet would shift every pre-statistics transcript.
 */
class ScanFilterRunsLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<Packet>,
          slet::Arg<slet::File, std::vector<std::string>,
                    std::uint64_t, std::vector<std::uint64_t>>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const auto &key_strings = arg<1>();
        std::uint64_t page_size = arg<2>();
        const auto &runs = arg<3>();  // (first, count)* local pages

        pm::KeySet keys;
        for (const auto &k : key_strings) {
            bool ok = keys.addKey(k);
            BISC_ASSERT(ok, "scan key rejected by matcher: ", k);
        }

        Packet batch;
        std::uint32_t batched = 0;
        batch.put<std::uint32_t>(0);  // patched before send

        auto flush = [&] {
            if (batched == 0)
                return;
            Packet framed;
            framed.put<std::uint32_t>(batched);
            framed.putBytes(batch.data() + sizeof(std::uint32_t),
                            batch.size() - sizeof(std::uint32_t));
            out<0>().put(std::move(framed));
            batch.clear();
            batch.put<std::uint32_t>(0);
            batched = 0;
        };

        // Matches arrive inline in issue order (runs ascend, offsets
        // ascend within a run), so batch contents are deterministic;
        // the tokens carry the device-time completion ticks.
        auto on_match = [&](Bytes off, const std::uint8_t *data,
                            Bytes len) {
            batch.put<std::uint64_t>(off / page_size);
            batch.put<std::uint32_t>(static_cast<std::uint32_t>(len));
            batch.putBytes(data, len);
            if (++batched >= kPagesPerBatch)
                flush();
        };
        std::vector<slet::File::Async> inflight;
        inflight.reserve(runs.size() / 2);
        for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
            inflight.push_back(file.scanMatched(runs[r] * page_size,
                                                runs[r + 1] * page_size,
                                                keys, on_match));
        }
        for (auto &token : inflight)
            token.wait();
        flush();
    }
};

/** Sampling probe: match a handful of pages, return the hit count. */
class SampleLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<std::uint64_t>,
          slet::Arg<slet::File, std::vector<std::string>,
                    std::uint64_t, std::vector<std::uint64_t>>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const auto &key_strings = arg<1>();
        std::uint64_t page_size = arg<2>();
        const auto &pages = arg<3>();

        pm::KeySet keys;
        for (const auto &k : key_strings)
            keys.addKey(k);

        // Issue every probe, then wait once: the sampled pages
        // stream through the matchers in parallel across channels.
        std::uint64_t matched = 0;
        std::vector<slet::File::Async> inflight;
        inflight.reserve(pages.size());
        for (std::uint64_t p : pages) {
            inflight.push_back(file.scanMatched(
                p * page_size, page_size, keys,
                [&](Bytes, const std::uint8_t *, Bytes) {
                    ++matched;
                }));
        }
        for (auto &token : inflight)
            token.wait();
        out<0>().put(matched);
    }
};

// ----- Predicate wire format (host encode / device decode) -----
//
// The pipeline re-check SSDlet evaluates the exact predicate on the
// drive, so the host serializes the schema + expression tree into a
// Packet argument. Both sides live in this translation unit; the
// format is internal and versionless (an SSDlet argument never
// outlives the application that carries it).

void
encodeValue(Packet &p, const Value &v)
{
    if (const auto *i = std::get_if<std::int64_t>(&v)) {
        p.put<std::uint8_t>(0);
        p.put<std::int64_t>(*i);
        return;
    }
    if (const auto *d = std::get_if<double>(&v)) {
        p.put<std::uint8_t>(1);
        p.put<double>(*d);
        return;
    }
    p.put<std::uint8_t>(2);
    p.putString(std::get<std::string>(v));
}

Value
decodeValue(Packet &p)
{
    switch (p.get<std::uint8_t>()) {
      case 0:
        return p.get<std::int64_t>();
      case 1:
        return p.get<double>();
      default:
        return p.getString();
    }
}

void
encodeExpr(Packet &p, const Expr &e)
{
    p.put<std::uint8_t>(static_cast<std::uint8_t>(e.kind));
    p.put<std::int32_t>(e.column);
    p.put<std::int32_t>(e.column2);
    p.put<std::uint8_t>(static_cast<std::uint8_t>(e.op));
    encodeValue(p, e.value);
    encodeValue(p, e.lo);
    encodeValue(p, e.hi);
    p.put<std::uint32_t>(static_cast<std::uint32_t>(e.set.size()));
    for (const Value &v : e.set)
        encodeValue(p, v);
    p.putString(e.pattern);
    p.put<std::uint32_t>(static_cast<std::uint32_t>(e.kids.size()));
    for (const ExprPtr &kid : e.kids)
        encodeExpr(p, *kid);
}

ExprPtr
decodeExpr(Packet &p)
{
    auto e = std::make_shared<Expr>();
    e->kind = static_cast<Expr::Kind>(p.get<std::uint8_t>());
    e->column = p.get<std::int32_t>();
    e->column2 = p.get<std::int32_t>();
    e->op = static_cast<CmpOp>(p.get<std::uint8_t>());
    e->value = decodeValue(p);
    e->lo = decodeValue(p);
    e->hi = decodeValue(p);
    const auto nset = p.get<std::uint32_t>();
    e->set.reserve(nset);
    for (std::uint32_t i = 0; i < nset; ++i)
        e->set.push_back(decodeValue(p));
    e->pattern = p.getString();
    const auto nkids = p.get<std::uint32_t>();
    e->kids.reserve(nkids);
    for (std::uint32_t i = 0; i < nkids; ++i)
        e->kids.push_back(decodeExpr(p));
    return e;
}

/** Schema + optional predicate as one SSDlet-argument blob. */
Packet
encodePredBlob(const Schema &schema, const ExprPtr &pred)
{
    Packet p;
    p.put<std::uint32_t>(
        static_cast<std::uint32_t>(schema.columns().size()));
    for (const Column &c : schema.columns()) {
        p.putString(c.name);
        p.put<std::uint8_t>(static_cast<std::uint8_t>(c.type));
        p.put<std::uint64_t>(c.width);
    }
    p.put<std::uint8_t>(pred ? 1 : 0);
    if (pred)
        encodeExpr(p, *pred);
    return p;
}

/**
 * Exact re-check SSDlet of the "minidb_pipe" module: the second stage
 * of a device-chained scan pipeline. Receives the matcher stage's
 * shipped-page frames over the in-drive typed port, replays the
 * host's exact predicate on every row slot (device cores are slower
 * at branchy row code — the caller pre-scales the per-byte CPU rate
 * by device_core_slowdown), and emits only matching slots, framed as
 * [u32 n_pages]{u64 local_page, u32 n_rows, n_rows * row_width
 * bytes}*. Row identity with the host re-check is structural: same
 * predicate tree, same slot layout, same rows-in-page bound.
 */
class RecheckLet
    : public slet::SSDLet<
          slet::In<Packet>, slet::Out<Packet>,
          slet::Arg<Packet, std::uint64_t, std::uint64_t,
                    std::uint64_t, double>>
{
  public:
    void
    run() override
    {
        Packet blob = arg<0>();  // copy: get() advances a cursor
        const std::uint64_t rows_per_page = arg<1>();
        const std::uint64_t partial_page = arg<2>();  // ~0: none
        const std::uint64_t partial_rows = arg<3>();
        const double cpu_ns_per_byte = arg<4>();

        const auto ncols = blob.get<std::uint32_t>();
        std::vector<Column> cols;
        cols.reserve(ncols);
        for (std::uint32_t i = 0; i < ncols; ++i) {
            Column c;
            c.name = blob.getString();
            c.type = static_cast<Type>(blob.get<std::uint8_t>());
            c.width = blob.get<std::uint64_t>();
            cols.push_back(std::move(c));
        }
        const Schema schema(std::move(cols));
        ExprPtr pred;
        if (blob.get<std::uint8_t>() != 0)
            pred = decodeExpr(blob);
        const Bytes row_width = schema.rowWidth();

        Packet batch;
        std::vector<std::uint8_t> data;  // reused across pages
        while (in<0>().get(batch)) {
            const auto n = batch.get<std::uint32_t>();
            Packet framed;
            std::uint32_t framed_pages = 0;
            framed.put<std::uint32_t>(0);  // patched below
            for (std::uint32_t i = 0; i < n; ++i) {
                const auto local_page = batch.get<std::uint64_t>();
                const auto len = batch.get<std::uint32_t>();
                data.resize(len);
                batch.getBytes(data.data(), len);
                consumeCpu(static_cast<Tick>(
                    static_cast<double>(len) * cpu_ns_per_byte));
                std::uint64_t in_page = local_page == partial_page
                                            ? partial_rows
                                            : rows_per_page;
                Packet rows;
                std::uint32_t matched = 0;
                for (std::uint64_t r = 0; r < in_page; ++r) {
                    const Bytes off = r * row_width;
                    if (off + row_width > len)
                        break;
                    const std::uint8_t *slot = data.data() + off;
                    if (!pred || evalPredRaw(*pred, slot, schema)) {
                        rows.putBytes(slot, row_width);
                        ++matched;
                    }
                }
                if (matched == 0)
                    continue;
                framed.put<std::uint64_t>(local_page);
                framed.put<std::uint32_t>(matched);
                framed.putBytes(rows.data(), rows.size());
                ++framed_pages;
            }
            if (framed_pages > 0) {
                Packet out_pkt;
                out_pkt.put<std::uint32_t>(framed_pages);
                out_pkt.putBytes(framed.data() +
                                     sizeof(std::uint32_t),
                                 framed.size() -
                                     sizeof(std::uint32_t));
                out<0>().put(std::move(out_pkt));
            }
        }
    }
};

RegisterSSDLet("minidb", "idScanFilter", ScanFilterLet);
RegisterSSDLet("minidb", "idSample", SampleLet);
RegisterSSDLet("minidb_prune", "idScanFilterRuns", ScanFilterRunsLet);
RegisterSSDLet("minidb_pipe", "idRecheck", RecheckLet);

/**
 * Matching rows of one shard, decoded into one batch, with the
 * (global page, row range) runs that let a multi-shard fan-out
 * restore global row order — making query results invariant in the
 * drive count.
 */
struct ShardRows
{
    struct Run
    {
        std::uint64_t page = 0;
        std::size_t first = 0;
        std::size_t count = 0;
    };
    RowBatch rows;
    std::vector<Run> runs;
};

/**
 * Decode @p pred-matching rows of one raw page into @p out. Returns
 * whether any row matched.
 */
bool
collectMatches(Table &table, const ExprPtr &pred,
               const std::uint8_t *data, Bytes len,
               std::uint64_t page_idx, ShardRows &out, DbStats &stats)
{
    const Schema &schema = table.schema();
    const Bytes row_width = schema.rowWidth();
    const std::size_t first = out.rows.size();
    std::uint64_t in_page = table.rowsInPage(page_idx);
    for (std::uint64_t i = 0; i < in_page; ++i) {
        Bytes slot_off = i * row_width;
        if (slot_off + row_width > len)
            break;
        const std::uint8_t *slot = data + slot_off;
        ++stats.rows_examined;
        if (!pred || evalPredRaw(*pred, slot, schema))
            out.rows.appendSlot(schema, slot);
    }
    if (out.rows.size() == first)
        return false;
    out.runs.push_back({page_idx, first, out.rows.size() - first});
    return true;
}

/** Per-shard fragments of a scan over @p table, all empty. */
std::vector<ShardRows>
shardRows(const Table &table)
{
    std::vector<ShardRows> per_shard(table.shardCount());
    for (ShardRows &sr : per_shard)
        sr.rows = RowBatch::forSchema(table.schema());
    return per_shard;
}

/**
 * Merge per-shard fragments into global page order. Page indices are
 * unique, so the order is total. When only one shard matched and its
 * runs already ascend, its batch is the result as it stands;
 * otherwise the merged batch is sized once and each run copied as one
 * block.
 */
RowBatch
mergeShardRows(std::vector<ShardRows> per_shard)
{
    struct Ref
    {
        std::uint64_t page;
        const ShardRows *shard;
        const ShardRows::Run *run;
    };
    std::vector<Ref> all;
    std::size_t total = 0;
    ShardRows *only = nullptr;
    for (ShardRows &sr : per_shard) {
        if (sr.runs.empty())
            continue;
        only = all.empty() ? &sr : nullptr;
        for (const auto &run : sr.runs) {
            all.push_back({run.page, &sr, &run});
            total += run.count;
        }
    }
    const auto by_page = [](const Ref &a, const Ref &b) {
        return a.page < b.page;
    };
    if (only != nullptr && std::is_sorted(all.begin(), all.end(), by_page))
        return std::move(only->rows);
    std::sort(all.begin(), all.end(), by_page);
    RowBatch out(per_shard.at(0).rows.columns());
    out.reserve(total);
    for (const ShardRows &sr : per_shard)
        out.share(sr.rows);
    for (const Ref &ref : all)
        out.appendRows(ref.shard->rows, ref.run->first, ref.run->count);
    return out;
}

/**
 * Run @p work(s) for every shard of @p table: inline when there is
 * one shard (the historical code path, tick-for-tick), on one fiber
 * per shard when the table spans drives so the per-drive work
 * overlaps in simulated time.
 */
template <class Fn>
void
forEachShard(MiniDb &db, Table &table, const char *what,
             const Fn &work)
{
    sim::fanOut(db.env().kernel, table.shardCount(),
                [&](std::uint32_t s) {
                    return std::string(what) + "." + table.name() +
                           ".drive" + std::to_string(s);
                },
                work);
}

/**
 * Zone-map prune of @p table for this scan, when the statistics
 * layer is enabled and applicable. pruned=false leaves every shard
 * on its historical whole-shard code, tick for tick.
 */
struct ScanPrune
{
    PrunePlan plan;
    bool pruned = false;
};

ScanPrune
scanPrune(MiniDb &db, Table &table, const ExprPtr &pred)
{
    ScanPrune sp;
    if (!db.planner.use_stats || !pred || !table.stats())
        return sp;
    sp.plan = planPrune(table, *pred);
    sp.pruned = sp.plan.usable &&
                sp.plan.pages_selected < sp.plan.pages_total;
    return sp;
}

/** Prune bookkeeping: DbStats counters + db.prune.* obs counters. */
void
notePrune(MiniDb &db, DbStats &stats, const PrunePlan &plan)
{
    stats.prune_chunks_considered += plan.chunks_considered;
    stats.prune_chunks_skipped += plan.chunks_skipped;
    stats.prune_pages_skipped +=
        plan.pages_total - plan.pages_selected;
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_considered", "chunks"),
              plan.chunks_considered);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_skipped", "chunks"),
              plan.chunks_skipped);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.pages_skipped", "pages"),
              plan.pages_total - plan.pages_selected);
}

/** Where one shard of a scan runs its matcher and its exact re-check. */
enum class Shape
{
    Host,     ///< stream the shard's pages, re-check on the host
    Device,   ///< matcher SSDlet on the drive, re-check on the host
    Chained,  ///< matcher and idRecheck chained inside the drive
};

/**
 * The shape of shard @p s of @p nshards for decision @p d, whose plan
 * the launch checkpoint may have replaced by @p plan. No plan: Host,
 * or Device when the paper heuristic offloads. A per-shard cost-model
 * plan: sites[s], never Chained. A pipeline plan: the site pair of
 * scan stage s and re-check stage n+s, Chained when both sit on the
 * same drive.
 */
Shape
shardShape(const PlanDecision &d, const PlacementPlan &plan,
           std::uint32_t nshards, std::uint32_t s)
{
    if (!plan.valid)
        return d.offload ? Shape::Device : Shape::Host;
    auto siteOf = [&](std::uint32_t stage) {
        return stage < plan.sites.size() ? plan.sites[stage]
                                         : Site{true, 0};
    };
    const Site scan = siteOf(s);
    if (scan.on_host)
        return Shape::Host;
    const Site re =
        d.graph.stages.empty() ? Site{true, 0} : siteOf(nshards + s);
    return !re.on_host && re.drive == scan.drive ? Shape::Chained
                                                 : Shape::Device;
}

/** |predicted - measured| as a percentage of measured (> 0). */
double
absErrPct(Tick predicted, Tick measured)
{
    return 100.0 *
           std::abs(static_cast<double>(predicted) -
                    static_cast<double>(measured)) /
           static_cast<double>(measured);
}

/**
 * db.place.* metrics of one placed scan, plus the pipeline edge
 * counters when the plan has a stage graph (BISCUIT_OBS-gated; never
 * read back into any timing or placement decision).
 */
void
notePlacement(MiniDb &db, const PlacementPlan &plan, bool has_graph,
              Tick measured)
{
    auto &obs = db.env().kernel.obs();
    std::uint64_t dev_stages = 0;
    for (const Site &site : plan.sites)
        if (!site.on_host)
            ++dev_stages;
    OBS_COUNT(obs.metrics().counter("db.place.plans", "plans"));
    OBS_COUNT(obs.metrics().counter("db.place.stages_device",
                                    "stages"),
              dev_stages);
    OBS_COUNT(obs.metrics().counter("db.place.stages_host", "stages"),
              plan.sites.size() - dev_stages);
    OBS_COUNT(obs.metrics().counter("db.place.predicted_us", "us"),
              plan.predicted / 1000);
    OBS_COUNT(obs.metrics().counter("db.place.measured_us", "us"),
              measured / 1000);
    if (has_graph) {
        OBS_COUNT(obs.metrics().counter(
                      "db.place.pipeline.edges_priced", "edges"),
                  plan.edges_priced);
        OBS_COUNT(obs.metrics().counter(
                      "db.place.pipeline.edge_predicted_us", "us"),
                  plan.edge_ticks / 1000);
    }
    if (measured > 0) {
        OBS_HIST(obs.metrics().histogram(
                     "db.place.abs_err_pct", "pct",
                     {1, 2, 5, 10, 20, 35, 50, 75, 100}),
                 static_cast<std::uint64_t>(
                     absErrPct(plan.predicted, measured)));
    }
}

/**
 * The one scan body: every shard runs on its own fiber (inline when
 * there is one) in the shape shardShape() gives it, each reading its
 * (possibly zone-map-pruned) page runs:
 *
 *   Host:    the drive streams the pages to the host, which re-checks;
 *   Device:  the drive's matcher SSDlet ships matching *pages*, the
 *            host re-checks them;
 *   Chained: matcher and re-check chained in-drive through the typed
 *            FBP port — one application, one core slot, only matching
 *            *rows* ever cross the HIL.
 *
 * Rows are merged to global page order, so results are byte-identical
 * across shapes and drive counts. A placed scan (d.plan.valid) also
 * passes the session's launch checkpoint, feeds the matched-page
 * fraction back to the placer and reports predicted-vs-measured.
 *
 * The body makes no heap allocation beyond those its shapes need (no
 * per-scan shape list, no run list for an unpruned shard, no boxed
 * window callback). The scan's row batches are the process's largest
 * allocations, and a small block left live among them decides whether
 * their memory is reused by the next scan or returned to the kernel
 * and faulted in again.
 */
ScanOutcome
runScan(MiniDb &db, Table &table, const ExprPtr &pred,
        const PlanDecision &d, DbStats &stats)
{
    // Launch checkpoint for session-planned scans: the co-tenant load
    // may have drifted since the plan was admitted (the caller could
    // have queued behind admission control); re-price the still-
    // unlaunched stages against a fresh snapshot, then commit.
    PlacementPlan plan = d.plan;
    const bool in_session =
        plan.valid && d.session_query >= 0 && db.place_session != nullptr;
    if (in_session) {
        db.place_session->maybeReplan(d.session_query);
        plan = db.place_session->plan(d.session_query);
        db.place_session->markLaunched(d.session_query);
    }
    const std::uint32_t nshards = table.shardCount();
    auto shapeOf = [&](std::uint32_t s) {
        return shardShape(d, plan, nshards, s);
    };
    bool any_device = false;
    bool any_chained = false;
    for (std::uint32_t s = 0; s < nshards; ++s) {
        any_device = any_device || shapeOf(s) != Shape::Host;
        any_chained = any_chained || shapeOf(s) == Shape::Chained;
    }

    OpTimer timer(db, stats, any_device ? "ndp_scan" : "conv_scan");
    const Tick begin = db.env().kernel.now();
    ScanOutcome out;
    out.used_ndp = any_device;
    auto &host = db.host();
    const Bytes page_size = table.pageSize();
    const Bytes row_width = table.schema().rowWidth();
    const ScanPrune sp = scanPrune(db, table, pred);

    if (any_device) {
        loadOnEveryDrive(db, "minidb", db.minidb_drive_modules);
        if (sp.pruned)
            loadOnEveryDrive(db, "minidb_prune", db.prune_drive_modules);
        if (any_chained)
            loadOnEveryDrive(db, "minidb_pipe", db.pipe_drive_modules);
    }

    // The partial page (fewer than rowsPerPage rows) is always the
    // table's last global page; the in-drive re-check needs its local
    // address to bound row iteration exactly like the host side does.
    const std::uint64_t rem =
        table.pageCount() == 0
            ? 0
            : table.rowCount() % table.rowsPerPage();
    const std::uint64_t last_page =
        table.pageCount() == 0 ? 0 : table.pageCount() - 1;

    // Crossed-the-interface pages: a Host shard streams all of its
    // (surviving) pages, a Device shard ships only matcher hits, a
    // Chained shard only pages with matching rows. Matched pages
    // (>= 1 row passing the exact re-check) are counted
    // shape-independently.
    std::uint64_t crossed_pages = 0;
    std::uint64_t matched_pages = 0;
    std::vector<ShardRows> per_shard = shardRows(table);

    // fn(first, count) for each local page run of shard s: the
    // zone-map survivors, else the whole shard.
    auto forEachRun = [&](std::uint32_t s, const auto &fn) {
        if (!sp.pruned) {
            fn(std::uint64_t{0}, table.shardPageCount(s));
            return;
        }
        for (const auto &[first, count] :
             shardPruneRuns(table, sp.plan, s))
            fn(first, count);
    };
    auto pagesOf = [&](std::uint32_t s) {
        std::uint64_t pages = 0;
        forEachRun(s, [&](std::uint64_t, std::uint64_t count) {
            pages += count;
        });
        return pages;
    };

    auto hostShard = [&](std::uint32_t s) {
        auto onWindow = [&](Bytes off, const std::uint8_t *data,
                            Bytes len) {
            host.consumeCpuPerByte(
                len, host.config().db_scan_ns_per_byte);
            for (Bytes p = 0; p < len; p += page_size) {
                std::uint64_t page_idx =
                    table.globalPage(s, (off + p) / page_size);
                Bytes n = std::min(page_size, len - p);
                if (collectMatches(table, pred, data + p, n, page_idx,
                                   per_shard[s], stats))
                    ++matched_pages;
            }
        };
        forEachRun(s, [&](std::uint64_t first, std::uint64_t count) {
            stats.pages_to_host += count;
            crossed_pages += count;
            host.streamReadOn(s, table.file(), first * page_size,
                              count * page_size, 1_MiB,
                              std::cref(onWindow));
        });
    };

    // The key list is copied while the arguments are evaluated, not
    // inside make_tuple: the order of these small blocks decides where
    // they land among the scan's row batches (see runScan's comment).
    auto makeScanLet = [&](sisc::Application &app, std::uint32_t s) {
        if (!sp.pruned) {
            return sisc::SSDLet(
                app, db.minidb_drive_modules[s], "idScanFilter",
                std::make_tuple(
                    slet::File(table.file()),
                    std::vector<std::string>(d.keys.keys()),
                    static_cast<std::uint64_t>(page_size),
                    table.shardPageCount(s)));
        }
        std::vector<std::uint64_t> runs;
        forEachRun(s, [&](std::uint64_t first, std::uint64_t count) {
            runs.push_back(first);
            runs.push_back(count);
        });
        return sisc::SSDLet(
            app, db.prune_drive_modules[s], "idScanFilterRuns",
            std::make_tuple(slet::File(table.file()),
                            std::vector<std::string>(d.keys.keys()),
                            static_cast<std::uint64_t>(page_size),
                            runs));
    };

    auto deviceShard = [&](std::uint32_t s) {
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet scan = makeScanLet(app, s);
        auto port = app.connectTo<Packet>(scan.out(0));
        app.start();
        stats.pages_scanned_device += pagesOf(s);

        Packet batch;
        std::vector<std::uint8_t> data;  // reused across pages
        while (port.get(batch)) {
            auto n = batch.get<std::uint32_t>();
            for (std::uint32_t i = 0; i < n; ++i) {
                auto local_page = batch.get<std::uint64_t>();
                auto len = batch.get<std::uint32_t>();
                data.resize(len);
                batch.getBytes(data.data(), len);
                // Exact re-check on the host, straight off the
                // packed slots.
                host.consumeCpuPerByte(
                    len, host.config().db_scan_ns_per_byte);
                if (collectMatches(table, pred, data.data(), len,
                                   table.globalPage(s, local_page),
                                   per_shard[s], stats))
                    ++matched_pages;
                ++stats.pages_to_host;
                ++crossed_pages;
            }
        }
        app.wait();
    };

    auto chainedShard = [&](std::uint32_t s) {
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet scan = makeScanLet(app, s);

        std::uint64_t partial_page = ~0ull;
        std::uint64_t partial_rows = 0;
        if (rem != 0 && table.shardOf(last_page) == s) {
            partial_page = table.localPage(last_page);
            partial_rows = rem;
        }
        const double recheck_cpu =
            host.config().db_scan_ns_per_byte *
            db.env().device.config().device_core_slowdown;
        sisc::SSDLet recheck(
            app, db.pipe_drive_modules[s], "idRecheck",
            std::make_tuple(encodePredBlob(table.schema(), pred),
                            static_cast<std::uint64_t>(
                                table.rowsPerPage()),
                            partial_page, partial_rows,
                            recheck_cpu));
        app.connect(scan.out(0), recheck.in(0));
        auto port = app.connectTo<Packet>(recheck.out(0));
        app.start();
        stats.pages_scanned_device += pagesOf(s);

        Packet batch;
        std::vector<std::uint8_t> slot(row_width);
        while (port.get(batch)) {
            auto n_pages = batch.get<std::uint32_t>();
            for (std::uint32_t i = 0; i < n_pages; ++i) {
                auto local_page = batch.get<std::uint64_t>();
                auto n_rows = batch.get<std::uint32_t>();
                std::uint64_t page_idx =
                    table.globalPage(s, local_page);
                host.consumeCpuPerByte(
                    static_cast<Bytes>(n_rows) * row_width,
                    host.config().db_scan_ns_per_byte);
                ShardRows &sr = per_shard[s];
                const std::size_t first = sr.rows.size();
                for (std::uint32_t r = 0; r < n_rows; ++r) {
                    batch.getBytes(slot.data(), row_width);
                    sr.rows.appendSlot(table.schema(), slot.data());
                }
                if (n_rows > 0)
                    sr.runs.push_back({page_idx, first, n_rows});
                stats.rows_examined += n_rows;
                // Only matched pages reach the host at all here, as
                // row payloads rather than raw pages.
                ++matched_pages;
                ++stats.pages_to_host;
                ++crossed_pages;
            }
        }
        app.wait();
    };

    forEachShard(db, table, "db.scan", [&](std::uint32_t s) {
        switch (shapeOf(s)) {
          case Shape::Host:
            hostShard(s);
            break;
          case Shape::Device:
            deviceShard(s);
            break;
          case Shape::Chained:
            chainedShard(s);
            break;
        }
    });
    out.batch = mergeShardRows(std::move(per_shard));
    if (sp.plan.usable)
        notePrune(db, stats, sp.plan);
    if (any_device)
        ++stats.ndp_scans;
    else
        ++stats.conv_scans;
    if (table.pageCount() > 0) {
        const double pages = static_cast<double>(table.pageCount());
        out.measured_selectivity =
            static_cast<double>(any_device ? crossed_pages
                                           : matched_pages) /
            pages;
        // Feedback for the next placement of this same scan: the
        // exact re-check decides what a "matched" page is, wherever
        // it runs, so every placement records the same fraction, and
        // it supersedes the histogram estimate, which cannot see row
        // clustering.
        if (plan.valid) {
            db.matched_page_frac[scanStatKey(table, d.keys)] =
                static_cast<double>(matched_pages) / pages;
        }
    }
    if (plan.valid) {
        out.placement = plan.describe();
        out.predicted_ticks = plan.predicted;
        out.measured_ticks = db.env().kernel.now() - begin;
        notePlacement(db, plan, !d.graph.stages.empty(),
                      out.measured_ticks);
    }
    if (in_session)
        db.place_session->release(d.session_query);
    // Built at its exact size: assigning the bare literal would first
    // grow the empty note to twice its inline capacity.
    if (!plan.valid && !any_device)
        out.note = std::string("conventional scan");
    return out;
}

}  // namespace

void
loadOnEveryDrive(MiniDb &db, const std::string &module,
                 std::vector<std::uint64_t> &ids)
{
    if (!ids.empty())
        return;
    // A stack buffer: each call below builds its own exact-size string
    // from it, as from a literal, so the loader leaves no heap block
    // live among the module images it loads.
    char path[64];
    std::snprintf(path, sizeof(path), "/var/isc/slets/%s.slet",
                  module.c_str());
    const std::uint32_t drives = db.host().driveCount();
    std::vector<std::uint64_t> loaded;
    loaded.reserve(drives);
    for (std::uint32_t d = 0; d < drives; ++d) {
        sisc::SSD ssd(db.env().array.drive(d).runtime);
        auto &fs = ssd.runtime().fs();
        if (!fs.exists(path))
            rt::ModuleRegistry::global().installModuleFile(fs, path,
                                                           module);
        loaded.push_back(ssd.loadModule(sisc::File(ssd, path)));
    }
    ids = std::move(loaded);
}

void
warmMinidbModule(MiniDb &db)
{
    loadOnEveryDrive(db, "minidb", db.minidb_drive_modules);
    // Statistics mode also ships the run-list scan module; warm it in
    // the same breath so lane replays place the one-time load outside
    // their measurement windows just like the baseline module.
    if (db.planner.use_stats)
        loadOnEveryDrive(db, "minidb_prune", db.prune_drive_modules);
    // Pipeline mode ships the in-drive re-check module too.
    if (db.planner.use_pipeline)
        loadOnEveryDrive(db, "minidb_pipe", db.pipe_drive_modules);
}

Row
pointLookup(MiniDb &db, Table &table, std::uint64_t row_index,
            DbStats &stats)
{
    OpTimer timer(db, stats, "point_lookup");
    BISC_ASSERT(row_index < table.rowCount(), "lookup of row ",
                row_index, " beyond ", table.rowCount());
    auto &host = db.host();
    const Bytes page_size = table.pageSize();
    const std::uint64_t page = row_index / table.rowsPerPage();
    const std::uint32_t shard = table.shardOf(page);

    std::vector<std::uint8_t> buf(page_size);
    host.preadOn(shard, table.file(), table.localPage(page) * page_size,
                 buf.data(), page_size);
    host.consumeCpuPerByte(page_size, host.config().db_scan_ns_per_byte);
    const std::uint64_t in_page = table.rowsInPage(page);
    const std::uint64_t slot = row_index % table.rowsPerPage();
    BISC_ASSERT(slot < in_page, "short page ", page, " in lookup");
    ++stats.pages_to_host;
    stats.rows_examined += in_page;
    return table.schema().decodeRow(buf.data() +
                                    slot * table.rowWidth());
}

bool
pointLookupByKey(MiniDb &db, Table &table, int key_col,
                 std::int64_t key, Row *out, DbStats &stats)
{
    OpTimer timer(db, stats, "point_lookup");
    auto &host = db.host();
    const Schema &schema = table.schema();
    BISC_ASSERT(schema.at(static_cast<std::size_t>(key_col)).type ==
                    Type::Int64,
                "keyed lookup needs an Int64 column");
    const Bytes page_size = table.pageSize();
    const Bytes row_width = schema.rowWidth();
    const Bytes key_off =
        schema.offsetOf(static_cast<std::size_t>(key_col));

    std::vector<std::uint8_t> buf(page_size);
    auto probePage = [&](std::uint64_t page) {
        host.preadOn(table.shardOf(page), table.file(),
                     table.localPage(page) * page_size, buf.data(),
                     page_size);
        host.consumeCpuPerByte(page_size,
                               host.config().db_scan_ns_per_byte);
        ++stats.pages_to_host;
        const std::uint64_t n = table.rowsInPage(page);
        stats.rows_examined += n;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::int64_t v;
            std::memcpy(&v, buf.data() + i * row_width + key_off, 8);
            if (v == key) {
                *out = schema.decodeRow(buf.data() + i * row_width);
                return true;
            }
        }
        return false;
    };

    std::shared_ptr<const TableStats> ts = table.stats();
    if (!ts) {
        for (std::uint64_t p = 0; p < table.pageCount(); ++p) {
            if (probePage(p))
                return true;
        }
        return false;
    }

    // Zone maps route the probe: page runs whose [min, max] excludes
    // the key are never read. Inside a candidate chunk, guess the
    // page as if keys were dense ascending (exact for o_orderkey);
    // fall back to scanning the chunk when the guess misses.
    std::uint64_t considered = 0, skipped = 0, pages_skipped = 0;
    bool found = false;
    for (const ChunkStats &chunk : ts->chunks) {
        ++considered;
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(key_col));
        const double k = static_cast<double>(key);
        if (k < z.num_min || k > z.num_max) {
            ++skipped;
            pages_skipped += chunk.page_count;
            continue;
        }
        const std::uint64_t guess =
            chunk.first_page +
            std::min<std::uint64_t>(
                chunk.page_count - 1,
                static_cast<std::uint64_t>(k - z.num_min) /
                    table.rowsPerPage());
        if (probePage(guess)) {
            found = true;
            break;
        }
        for (std::uint64_t p = chunk.first_page;
             p < chunk.first_page + chunk.page_count && !found; ++p) {
            if (p != guess)
                found = probePage(p);
        }
        if (found)
            break;
    }
    stats.prune_chunks_considered += considered;
    stats.prune_chunks_skipped += skipped;
    stats.prune_pages_skipped += pages_skipped;
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_considered", "chunks"),
              considered);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_skipped", "chunks"),
              skipped);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.pages_skipped", "pages"),
              pages_skipped);
    return found;
}

std::uint64_t
ndpSamplePages(MiniDb &db, Table &table, const pm::KeySet &keys,
               const std::vector<std::uint64_t> &pages, DbStats &stats)
{
    OpTimer timer(db, stats, "sample");
    loadOnEveryDrive(db, "minidb", db.minidb_drive_modules);

    // Route each sampled global page to the shard that owns it; each
    // drive probes its own slice in parallel with the others.
    std::vector<std::vector<std::uint64_t>> local(table.shardCount());
    for (std::uint64_t g : pages)
        local[table.shardOf(g)].push_back(table.localPage(g));

    std::uint64_t matched = 0;
    forEachShard(db, table, "db.sample", [&](std::uint32_t s) {
        if (local[s].empty())
            return;
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet sampler(
            app, db.minidb_drive_modules[s], "idSample",
            // Keys copied as an argument, as in runScan's makeScanLet.
            std::make_tuple(slet::File(table.file()),
                            std::vector<std::string>(keys.keys()),
                            static_cast<std::uint64_t>(
                                table.pageSize()),
                            local[s]));
        auto port = app.connectTo<std::uint64_t>(sampler.out(0));
        app.start();
        std::uint64_t v = 0;
        while (port.get(v))
            matched += v;
        app.wait();
    });
    stats.sample_pages += pages.size();
    return matched;
}

std::string
scanStatKey(const Table &table, const pm::KeySet &keys)
{
    std::string key = table.name();
    for (const auto &k : keys.keys()) {
        key += '|';
        key += k;
    }
    return key;
}

namespace {

/** Percent-bucket layout for the db.prune.*_sel_pct histograms. */
std::vector<std::uint64_t>
selPctBounds()
{
    return {1, 2, 5, 10, 20, 35, 50, 75, 100};
}

/** Record predicted-vs-measured page selectivity (observability). */
void
noteSelectivity(MiniDb &db, const ScanOutcome &out)
{
    if (out.est_selectivity >= 0.0) {
        OBS_HIST(db.env().kernel.obs().metrics().histogram(
                     "db.prune.est_sel_pct", "%", selPctBounds()),
                 static_cast<std::uint64_t>(out.est_selectivity *
                                            100.0));
    }
    if (out.measured_selectivity >= 0.0) {
        OBS_HIST(db.env().kernel.obs().metrics().histogram(
                     "db.prune.meas_sel_pct", "%", selPctBounds()),
                 static_cast<std::uint64_t>(out.measured_selectivity *
                                            100.0));
    }
}

}  // namespace

ScanOutcome
scanBatch(MiniDb &db, Table &table, const ExprPtr &pred,
          EngineMode mode, DbStats &stats)
{
    if (mode == EngineMode::Conv)
        return runScan(db, table, pred, PlanDecision{}, stats);
    const PlanDecision d = decideOffload(db, table, pred, stats);
    ScanOutcome out = runScan(db, table, pred, d, stats);
    out.sampled_selectivity = d.sampled_selectivity;
    out.est_selectivity = d.est_selectivity;
    out.note = d.note;
    if (d.plan.valid && out.measured_ticks > 0) {
        char pbuf[96];
        std::snprintf(pbuf, sizeof(pbuf),
                      "; predicted %.3f ms, measured %.3f ms "
                      "(err %.0f%%)",
                      static_cast<double>(d.plan.predicted) / 1e6,
                      static_cast<double>(out.measured_ticks) / 1e6,
                      absErrPct(d.plan.predicted, out.measured_ticks));
        out.note += pbuf;
    }
    if (db.planner.use_stats)
        noteSelectivity(db, out);
    return out;
}

ScanOutcome
scanTable(MiniDb &db, Table &table, const ExprPtr &pred,
          EngineMode mode, DbStats &stats)
{
    ScanOutcome out = scanBatch(db, table, pred, mode, stats);
    out.rows = out.batch.toRows();
    out.batch = RowBatch();
    return out;
}

namespace {

/** splitmix64's finalizer: spreads a key over all 64 bits. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Output columns of a join: outer's, then @p inner's. */
RowBatch
joinedBatch(const RowBatch &outer, const Schema &inner)
{
    std::vector<CellCol> cols = outer.columns();
    const RowBatch right = RowBatch::forSchema(inner);
    cols.insert(cols.end(), right.columns().begin(),
                right.columns().end());
    return RowBatch(std::move(cols));
}

/**
 * Functional side of bnlJoin(): the outer keys index the inner rows
 * whose key @p slot_key(slot) one of them holds; inner rows with
 * other keys are dropped from the packed slot without being decoded.
 * Each key chains its inner rows newest first: the per-key order the
 * TPC-H result digests and goldens were recorded with.
 */
template <class Key, class OuterKey, class SlotKey>
RowBatch
hashJoinRows(const RowBatch &outer, const OuterKey &outer_key,
             Table &inner, const SlotKey &slot_key,
             const ExprPtr &inner_pred, std::uint64_t &matched_rows)
{
    std::unordered_map<Key, std::uint32_t> ids;  // key -> dense id
    ids.reserve(outer.size());
    std::vector<std::int32_t> head;  // id -> newest inner row
    std::vector<std::uint32_t> outer_id(outer.size());
    for (std::size_t i = 0; i < outer.size(); ++i) {
        const auto [it, fresh] = ids.try_emplace(
            outer_key(i), static_cast<std::uint32_t>(head.size()));
        if (fresh)
            head.push_back(-1);
        outer_id[i] = it->second;
    }

    const Schema &inner_schema = inner.schema();
    RowBatch matched = RowBatch::forSchema(inner_schema);
    std::vector<std::int32_t> older;  // inner row -> next older match
    std::vector<std::uint32_t> matches(head.size(), 0);  // id -> count
    inner.forEachSlot([&](const std::uint8_t *slot) {
        if (inner_pred && !evalPredRaw(*inner_pred, slot, inner_schema))
            return;
        const auto it = ids.find(slot_key(slot));
        if (it == ids.end())
            return;
        older.push_back(head[it->second]);
        head[it->second] = static_cast<std::int32_t>(matched.size());
        ++matches[it->second];
        matched.appendSlot(inner_schema, slot);
    });
    matched_rows = matched.size();

    std::size_t joined = 0;
    for (std::uint32_t id : outer_id)
        joined += matches[id];
    RowBatch out = joinedBatch(outer, inner_schema);
    out.reserve(joined);
    out.share(outer);
    out.share(matched);
    for (std::size_t i = 0; i < outer.size(); ++i) {
        for (std::int32_t j = head[outer_id[i]]; j >= 0; j = older[j])
            out.appendJoined(outer.row(i), outer.columnCount(),
                             matched.row(static_cast<std::size_t>(j)));
    }
    return out;
}

/**
 * hashJoinRows() on the inner key's type: Int64 keys compare as
 * integers, any other key type by its valueToString() text (doubles
 * as "%.2f") on both sides.
 */
RowBatch
hashJoin(const RowBatch &outer, int outer_col, Table &inner,
         int inner_col, const ExprPtr &inner_pred,
         std::uint64_t &matched_rows)
{
    const Schema &inner_schema = inner.schema();
    const auto ic = static_cast<std::size_t>(inner_col);
    if (inner_schema.at(ic).type == Type::Int64) {
        const Bytes key_off = inner_schema.offsetOf(ic);
        return hashJoinRows<std::int64_t>(
            outer,
            [&](std::size_t i) { return outer.i64(i, outer_col); },
            inner,
            [&](const std::uint8_t *slot) {
                std::int64_t k;
                std::memcpy(&k, slot + key_off, 8);
                return k;
            },
            inner_pred, matched_rows);
    }
    const CellCol key_col = RowBatch::forSchema(inner_schema).col(inner_col);
    return hashJoinRows<std::string>(
        outer,
        [&](std::size_t i) {
            std::string k;
            outer.appendString(k, i, outer_col);
            return k;
        },
        inner,
        [&](const std::uint8_t *slot) {
            std::string k;
            appendCellString(k, key_col, inner_schema.decodeCell(slot, ic));
            return k;
        },
        inner_pred, matched_rows);
}

/**
 * Unified-pipeline timing side of bnlJoin (use_unified_pipelines):
 * the inner side modeled as the same placeable DAG as cost-model
 * scans — per-shard Scan feeding a colocatable outer-key prefilter
 * Transform (the PR 3 semi-join filter) feeding the host probe Merge
 * — placed by the annealer (through the session when attached). A
 * host-placed shard keeps the legacy block-nested-loop passes; a
 * device-placed shard runs ONE semi-scan SSDlet pass and ships only
 * the (exactly known, since the functional join ran first) matched
 * rows, with later blocks re-probing those rows on the host instead
 * of re-reading the shard. Join rows are computed before this runs
 * and are untouched — byte-identical to the legacy path at any
 * placement.
 */
void
placedJoinTiming(MiniDb &db, Table &inner, std::uint64_t blocks,
                 std::uint64_t matched_rows, DbStats &stats)
{
    auto &host = db.host();
    const std::uint32_t n = inner.shardCount();
    const Bytes page = inner.pageSize();
    const Bytes row_width = inner.schema().rowWidth();
    const Bytes matched_bytes = matched_rows * row_width;
    const Bytes inner_bytes = inner.pageCount() * page;
    const double matched_frac =
        inner_bytes == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(matched_bytes) /
                                static_cast<double>(inner_bytes));

    // Scan [0, n) -> prefilter Transform [n, 2n) -> probe Merge (2n),
    // the shape buildPipelineGraph gives cost-model scans, with the
    // prefilter's exact selectivity known up front.
    PipelineGraph g;
    const Bytes instance_dram =
        db.env().device.config().instance_user_mem;
    for (std::uint32_t s = 0; s < n; ++s) {
        StageSpec scan;
        scan.label =
            "join.scan." + inner.name() + ".s" + std::to_string(s);
        scan.shard = s;
        scan.kind = StageKind::Scan;
        scan.pages = inner.shardPageCount(s);
        scan.page_bytes = page;
        scan.selectivity = matched_frac;
        scan.eligible_drives = {s};
        scan.dram = instance_dram;
        g.stages.push_back(std::move(scan));
    }
    for (std::uint32_t s = 0; s < n; ++s) {
        StageSpec pre;
        pre.label = "join.prefilter." + inner.name() + ".s" +
                    std::to_string(s);
        pre.shard = s;
        pre.kind = StageKind::Transform;
        pre.page_bytes = page;
        pre.cpu_ns_per_byte = host.config().db_scan_ns_per_byte;
        pre.colocate_with = static_cast<int>(s);
        pre.eligible_drives = {s};
        pre.dram = instance_dram;
        g.stages.push_back(std::move(pre));
    }
    StageSpec probe;
    probe.label = "join.probe." + inner.name();
    probe.kind = StageKind::Merge;
    probe.page_bytes = page;
    probe.eligible_drives.clear();
    probe.cpu_ns_per_byte =
        static_cast<double>(db.planner.row_cpu) /
        std::max<double>(1.0, static_cast<double>(row_width));
    g.stages.push_back(std::move(probe));
    for (std::uint32_t s = 0; s < n; ++s) {
        const Bytes streamed = inner.shardPageCount(s) * page;
        const Bytes selected = static_cast<Bytes>(
            static_cast<double>(streamed) * matched_frac);
        PipelineEdge to_pre;
        to_pre.from = s;
        to_pre.to = n + s;
        to_pre.bytes = selected;
        to_pre.bytes_host = streamed;
        g.edges.push_back(to_pre);
        PipelineEdge to_probe;
        to_probe.from = n + s;
        to_probe.to = 2 * n;
        to_probe.bytes = selected;
        to_probe.bytes_host = selected;
        g.edges.push_back(to_probe);
    }

    PlacerConfig pc = workloadPlacerConfig(db);
    int qid = -1;
    PlacementPlan plan;
    if (db.place_session != nullptr) {
        qid = db.place_session->admit(g, pc,
                                      db.planner.place_force);
        db.place_session->maybeReplan(qid);
        plan = db.place_session->plan(qid);
        db.place_session->markLaunched(qid);
    } else {
        plan =
            db.planner.place_force == PlaceForce::Auto
                ? placePipeline(g, calibrateCostModel(db),
                                snapshotDriveLoads(db), pc)
                : forcedPipelinePlan(
                      g, calibrateCostModel(db),
                      snapshotDriveLoads(db),
                      db.planner.place_force == PlaceForce::AllHost);
    }
    auto siteOf = [&](std::uint32_t s) {
        return plan.valid && s < plan.sites.size() ? plan.sites[s]
                                                   : Site{true, 0};
    };
    bool any_device = false;
    Bytes dev_matched_bytes = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (siteOf(s).on_host)
            continue;
        any_device = true;
        dev_matched_bytes += static_cast<Bytes>(
            static_cast<double>(inner.shardPageCount(s) * page) *
            matched_frac);
    }
    if (any_device)
        warmHeteroModules(db);

    const double semi_cpu =
        host.config().db_scan_ns_per_byte *
        db.env().device.config().device_core_slowdown;
    forEachShard(db, inner, "db.bnl.place", [&](std::uint32_t s) {
        if (!siteOf(s).on_host) {
            // One device pass replaces every per-block re-read.
            sisc::SSD ssd(db.env().array.drive(s).runtime);
            sisc::Application app(ssd);
            sisc::SSDLet semi(
                app, db.hetero_drive_modules[s], "idSemiScan",
                std::make_tuple(slet::File(inner.file()),
                                semi_cpu));
            auto port = app.connectTo<std::uint64_t>(semi.out(0));
            app.start();
            std::uint64_t scanned = 0;
            while (port.get(scanned)) {
            }
            app.wait();
            stats.pages_scanned_device += inner.shardPageCount(s);
            return;
        }
        for (std::uint64_t b = 0; b < blocks; ++b) {
            host.streamReadTimedOn(
                s, inner.file(), 0, inner.shardPageCount(s) * page,
                1_MiB, [&](Bytes, Bytes len) {
                    host.consumeCpuPerByte(
                        len, host.config().db_scan_ns_per_byte);
                });
            stats.pages_to_host += inner.shardPageCount(s);
        }
    });
    if (any_device) {
        // Matched rows of device shards cross the HIL once; every
        // block re-probes them from host memory at scan cost.
        stats.pages_to_host += divCeil<Bytes>(dev_matched_bytes,
                                              std::max<Bytes>(page, 1));
        host.consumeCpuPerByte(dev_matched_bytes * blocks,
                               host.config().db_scan_ns_per_byte);
    }
    stats.rows_examined += inner.rowCount() * blocks;
    if (qid >= 0 && db.place_session != nullptr)
        db.place_session->release(qid);
}

}  // namespace

RowBatch
bnlJoin(MiniDb &db, const RowBatch &outer, Bytes outer_width,
        int outer_col, Table &inner, int inner_col,
        const ExprPtr &inner_pred, DbStats &stats)
{
    OpTimer timer(db, stats, "bnl_join");
    if (outer.empty())
        return joinedBatch(outer, inner.schema());
    auto &host = db.host();

    std::uint64_t matched_rows = 0;
    RowBatch out = hashJoin(outer, outer_col, inner, inner_col,
                            inner_pred, matched_rows);

    // Timing side: block-nested-loop — the inner table is re-read in
    // full once per join-buffer block of outer rows. This is the
    // magnification effect of early filtering: fewer outer rows means
    // fewer physical passes over the inner table.
    Bytes outer_bytes = outer.size() * outer_width;
    std::uint64_t blocks =
        divCeil<Bytes>(outer_bytes, db.planner.join_buffer);
    if (db.planner.use_unified_pipelines && db.planner.use_pipeline &&
        inner.pageCount() > 0) {
        // Unified gate: the inner side becomes a placeable
        // scan -> prefilter -> probe DAG (device shards semi-scan
        // once instead of once per block). Rows already computed
        // above — identical at any placement.
        placedJoinTiming(db, inner, blocks, matched_rows, stats);
        host.consumeCpu(db.planner.row_cpu *
                        (outer.size() + out.size()));
        return out;
    }
    for (std::uint64_t b = 0; b < blocks; ++b) {
        // The pass only contributes time (the rows are already in the
        // functional hash above), so skip materializing the bytes. A
        // sharded inner reads its per-drive slices concurrently
        // within each pass.
        forEachShard(db, inner, "db.bnl", [&](std::uint32_t s) {
            host.streamReadTimedOn(
                s, inner.file(), 0,
                inner.shardPageCount(s) * inner.pageSize(), 1_MiB,
                [&](Bytes, Bytes len) {
                    host.consumeCpuPerByte(
                        len, host.config().db_scan_ns_per_byte);
                });
        });
        stats.pages_to_host += inner.pageCount();
        stats.rows_examined += inner.rowCount();
    }

    host.consumeCpu(db.planner.row_cpu * (outer.size() + out.size()));
    return out;
}

std::vector<Row>
bnlJoin(MiniDb &db, const std::vector<Row> &outer, Bytes outer_width,
        int outer_col, Table &inner, int inner_col,
        const ExprPtr &inner_pred, DbStats &stats)
{
    return bnlJoin(db, RowBatch::fromRows(outer), outer_width, outer_col,
                   inner, inner_col, inner_pred, stats)
        .toRows();
}

RowBatch
groupBy(MiniDb &db, const RowBatch &rows,
        const std::vector<int> &key_cols,
        const std::vector<AggSpec> &aggs, DbStats &stats)
{
    OpTimer timer(db, stats, "group_by");

    // Group identity is the valueToString() form of each key: typed
    // equality for Int64 and text, the "%.2f" form for doubles (1.001
    // and 1.004 share a group; -0.001 and 0.0 do not).
    std::string fa, fb;
    auto doubleText = [&](std::string &buf, std::size_t r, int c) {
        buf.clear();
        rows.appendString(buf, r, c);
        return std::string_view(buf);
    };
    auto keyHash = [&](std::size_t r) {
        std::uint64_t h = 0;
        for (int c : key_cols) {
            std::uint64_t part;
            if (rows.col(c).type == Type::Int64)
                part = static_cast<std::uint64_t>(rows.i64(r, c));
            else if (rows.col(c).type == Type::Double)
                part = std::hash<std::string_view>{}(
                    doubleText(fa, r, c));
            else
                part = std::hash<std::string_view>{}(rows.text(r, c));
            h = mix64(h + part + 0x9e3779b97f4a7c15ull);
        }
        return h;
    };
    auto sameKey = [&](std::size_t a, std::size_t b) {
        for (int c : key_cols) {
            if (rows.col(c).type == Type::Int64) {
                if (rows.i64(a, c) != rows.i64(b, c))
                    return false;
            } else if (rows.col(c).type == Type::Double) {
                if (doubleText(fa, a, c) != doubleText(fb, b, c))
                    return false;
            } else if (rows.text(a, c) != rows.text(b, c)) {
                return false;
            }
        }
        return true;
    };

    // Accumulators, flat per (group, aggregate).
    const std::size_t n_aggs = aggs.size();
    // Keyed by each group's first row; hashed and compared by key.
    std::unordered_map<std::size_t, std::uint32_t, decltype(keyHash),
                       decltype(sameKey)>
        groups(16, keyHash, sameKey);
    std::vector<std::size_t> first_row;  // group -> its first row
    std::vector<std::uint64_t> counts;
    std::vector<double> sums, mins, maxs;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto [it, fresh] = groups.try_emplace(
            r, static_cast<std::uint32_t>(first_row.size()));
        const std::uint32_t g = it->second;
        if (fresh) {
            first_row.push_back(r);
            counts.push_back(0);
            sums.resize(sums.size() + n_aggs, 0.0);
            mins.resize(mins.size() + n_aggs, 0.0);
            maxs.resize(maxs.size() + n_aggs, 0.0);
        }
        const std::size_t at = g * n_aggs;
        for (std::size_t a = 0; a < n_aggs; ++a) {
            if (aggs[a].column < 0)
                continue;
            double v = rows.num(r, aggs[a].column);
            sums[at + a] += v;
            if (counts[g] == 0 || v < mins[at + a])
                mins[at + a] = v;
            if (counts[g] == 0 || v > maxs[at + a])
                maxs[at + a] = v;
        }
        ++counts[g];
    }
    db.host().consumeCpu(db.planner.row_cpu * rows.size());

    // Emit groups sorted by key string, built once per group: the
    // group order the TPC-H result digests and goldens were recorded
    // with.
    std::vector<std::string> key_text(first_row.size());
    for (std::size_t g = 0; g < first_row.size(); ++g) {
        for (int c : key_cols) {
            rows.appendString(key_text[g], first_row[g], c);
            key_text[g] += '\x01';
        }
    }
    std::vector<std::uint32_t> order(first_row.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return key_text[a] < key_text[b];
              });

    // A batch converted from no Rows has no columns (and no groups).
    std::vector<CellCol> cols;
    for (int c : key_cols)
        cols.push_back(rows.columnCount() > 0 ? rows.col(c) : CellCol{});
    for (const AggSpec &agg : aggs)
        cols.push_back({agg.op == AggSpec::Op::Count ? Type::Int64
                                                     : Type::Double,
                        8});
    RowBatch out(std::move(cols));
    out.share(rows);
    for (std::uint32_t g : order) {
        Cell *dst = out.appendRow();
        const Cell *first = rows.row(first_row[g]);
        for (std::size_t k = 0; k < key_cols.size(); ++k)
            dst[k] = first[key_cols[k]];
        Cell *agg_out = dst + key_cols.size();
        const std::size_t at = g * n_aggs;
        for (std::size_t a = 0; a < n_aggs; ++a) {
            switch (aggs[a].op) {
              case AggSpec::Op::Sum:
                agg_out[a].d = sums[at + a];
                break;
              case AggSpec::Op::Avg:
                agg_out[a].d =
                    sums[at + a] / static_cast<double>(counts[g]);
                break;
              case AggSpec::Op::Count:
                agg_out[a].i = static_cast<std::int64_t>(counts[g]);
                break;
              case AggSpec::Op::Min:
                agg_out[a].d = mins[at + a];
                break;
              case AggSpec::Op::Max:
                agg_out[a].d = maxs[at + a];
                break;
            }
        }
    }
    return out;
}

std::vector<Row>
groupBy(MiniDb &db, const std::vector<Row> &rows,
        const std::vector<int> &key_cols,
        const std::vector<AggSpec> &aggs, DbStats &stats)
{
    return groupBy(db, RowBatch::fromRows(rows), key_cols, aggs, stats)
        .toRows();
}

namespace {

/**
 * The permutation std::sort gives @p rows under the compareValues()
 * key order. std::sort's moves depend only on its comparisons, so
 * sorting indices reproduces, tie for tie, the order a sort of the
 * rows themselves would give.
 */
std::vector<std::uint32_t>
sortOrder(const RowBatch &rows,
          const std::vector<std::pair<int, bool>> &keys)
{
    std::vector<std::uint32_t> order(rows.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  for (auto [col, desc] : keys) {
                      int c = rows.compare(a, b, col);
                      if (c != 0)
                          return desc ? c > 0 : c < 0;
                  }
                  return false;
              });
    return order;
}

}  // namespace

void
sortRows(RowBatch &rows, const std::vector<std::pair<int, bool>> &keys)
{
    rows.permute(sortOrder(rows, keys));
}

void
sortRows(std::vector<Row> &rows,
         const std::vector<std::pair<int, bool>> &keys)
{
    std::vector<std::uint32_t> order =
        sortOrder(RowBatch::fromRows(rows), keys);
    std::vector<Row> sorted;
    sorted.reserve(rows.size());
    for (std::uint32_t i : order)
        sorted.push_back(std::move(rows[i]));
    rows.swap(sorted);
}

RowBatch
filterRows(MiniDb &db, const RowBatch &rows, const ExprPtr &pred,
           DbStats &stats)
{
    OpTimer timer(db, stats, "filter");
    RowBatch out = rows.where([&](std::size_t r) {
        return !pred || evalPred(*pred, rows, r);
    });
    db.host().consumeCpu(db.planner.row_cpu * rows.size());
    stats.rows_examined += rows.size();
    return out;
}

std::vector<Row>
filterRows(MiniDb &db, const std::vector<Row> &rows,
           const ExprPtr &pred, DbStats &stats)
{
    return filterRows(db, RowBatch::fromRows(rows), pred, stats)
        .toRows();
}

}  // namespace bisc::db
