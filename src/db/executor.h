/**
 * @file
 * MiniDB execution primitives: table scans (each shard streamed to
 * the host, filtered on its drive, or filtered and re-checked in
 * its drive), the block-nested-loop join cost model, grouping,
 * sorting.
 *
 * The 22 TPC-H query drivers (src/tpch/queries.cc) compose these
 * primitives; each primitive charges its own simulated time so query
 * elapsed times fall out of the composition.
 *
 * Every operator works on typed RowBatches (db/row_batch.h). The
 * std::vector<Row> overloads are adapters for callers outside the
 * engine: they convert, run the typed operator, and convert back.
 */

#ifndef BISCUIT_DB_EXECUTOR_H_
#define BISCUIT_DB_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/minidb.h"
#include "db/row_batch.h"
#include "db/table.h"
#include "pm/pattern_matcher.h"

namespace bisc::db {

/** Which engine variant a query runs as (paper: Conv vs. Biscuit). */
enum class EngineMode { Conv, Biscuit };

struct ScanOutcome
{
    std::vector<Row> rows;   ///< scanTable() result
    RowBatch batch;          ///< scanBatch() result (rows stays empty)
    bool used_ndp = false;
    double sampled_selectivity = -1.0;  ///< -1: sampling not run

    /** Planner's histogram estimate of page selectivity; -1 if none. */
    double est_selectivity = -1.0;

    /**
     * Measured page selectivity of this scan: when any shard ran on a
     * device, the fraction of pages that crossed to the host (device
     * shards ship only key matches, what the offload threshold
     * governs); when every shard streamed to the host, the fraction
     * of pages holding at least one predicate-satisfying row. -1 on
     * an empty table.
     */
    double measured_selectivity = -1.0;

    /**
     * Cost-model placement trace (PlannerConfig::use_cost_model):
     * the chosen sites in stage order ("d0,d1,host,d3"), the model's
     * predicted makespan and the measured scan ticks. Empty / zero
     * when the planner decided without a placement plan (Conv mode or
     * the paper's threshold rule).
     */
    std::string placement;
    Tick predicted_ticks = 0;
    Tick measured_ticks = 0;

    std::string note;                   ///< planner decision trace
};

/**
 * Scan @p table with predicate @p pred (may be null = full scan).
 * In Biscuit mode the planner decides where each shard is scanned
 * (streamed to the host, filtered on its drive, or filtered and
 * re-checked in-drive); Conv mode streams every shard to the host.
 * Rows returned satisfy @p pred exactly, in the same order whatever
 * the placement.
 */
ScanOutcome scanTable(MiniDb &db, Table &table, const ExprPtr &pred,
                      EngineMode mode, DbStats &stats);

/** scanTable() with the rows left typed in ScanOutcome::batch. */
ScanOutcome scanBatch(MiniDb &db, Table &table, const ExprPtr &pred,
                      EngineMode mode, DbStats &stats);

/**
 * Install SSDlet module @p module on every drive that lacks its image
 * (/var/isc/slets/<module>.slet) and load it there (timed, from the
 * calling fiber), unless @p ids already holds it. @p ids (index =
 * drive) then stays resident in the MiniDb: load once, instantiate
 * per offload, the lifecycle the Biscuit runtime is built for. Not
 * re-entrant across fibers; warm it before concurrent users start.
 */
void loadOnEveryDrive(MiniDb &db, const std::string &module,
                      std::vector<std::uint64_t> &ids);

/**
 * Load the "minidb" SSDlet module now (timed, from the host fiber) if
 * it is not already resident. The executor loads it lazily on the
 * first offload; a parallel lane that replays a mid-suite query warms
 * it explicitly so the lane charges (or skips) the one-time load cost
 * exactly where the serial run did.
 */
void warmMinidbModule(MiniDb &db);

/**
 * Single-row point lookup: read the one page holding row
 * @p row_index (routed to the shard that owns it), decode it and
 * return the row. The OLTP-style request of the serving mix — one
 * pread against one drive, host-side decode, no offload.
 */
Row pointLookup(MiniDb &db, Table &table, std::uint64_t row_index,
                DbStats &stats);

/**
 * Keyed point lookup on an Int64 column: zone maps (when the table
 * carries statistics) route the probe to the chunks whose [min, max]
 * can contain @p key, skipping every other page run outright — for a
 * dense ascending key (o_orderkey) the in-chunk offset guess makes it
 * a single pread. Without statistics the lookup degrades to a
 * front-to-back page scan. Returns false when no row carries @p key.
 */
bool pointLookupByKey(MiniDb &db, Table &table, int key_col,
                      std::int64_t key, Row *out, DbStats &stats);

/**
 * Device-side sampling probe: stream @p pages through the channel
 * matchers configured with @p keys, returning how many matched.
 * Timed (this is the planner's "quick check").
 */
std::uint64_t ndpSamplePages(MiniDb &db, Table &table,
                             const pm::KeySet &keys,
                             const std::vector<std::uint64_t> &pages,
                             DbStats &stats);

/**
 * Statistics-cache key for a (table, predicate-keys) pair — shared by
 * the sampled-selectivity cache and the measured matched-page-fraction
 * feedback (MiniDb::selectivity_stats / matched_page_frac).
 */
std::string scanStatKey(const Table &table, const pm::KeySet &keys);

/**
 * Equi-join @p outer rows against @p inner with block-nested-loop
 * *cost* (the inner table is re-read once per join-buffer block of
 * outer rows — the effect Biscuit's filter-first join order
 * magnifies, paper §V-C) and hash-join *semantics*. @p outer_width is
 * the storage width of one outer row (join-buffer occupancy);
 * @p inner_pred filters inner rows during each pass. Output rows are
 * outer ++ inner concatenations: outer rows in order, each followed
 * by its inner matches newest-first (reverse inner scan order).
 */
RowBatch bnlJoin(MiniDb &db, const RowBatch &outer, Bytes outer_width,
                 int outer_col, Table &inner, int inner_col,
                 const ExprPtr &inner_pred, DbStats &stats);

std::vector<Row> bnlJoin(MiniDb &db, const std::vector<Row> &outer,
                         Bytes outer_width, int outer_col,
                         Table &inner, int inner_col,
                         const ExprPtr &inner_pred, DbStats &stats);

/** Aggregation spec for groupBy. */
struct AggSpec
{
    enum class Op { Sum, Avg, Count, Min, Max };
    Op op = Op::Count;
    int column = -1;  ///< -1 for Count(*)
};

/**
 * Group @p rows by @p key_cols and compute @p aggs per group. Output
 * rows are [keys..., aggregates...]: Count is Int64, the others
 * Double. Groups are the distinct valueToString() forms of the keys
 * (doubles bucket by "%.2f") and are emitted in the order of their
 * key strings joined by '\x01'. Charges per-row host CPU.
 */
RowBatch groupBy(MiniDb &db, const RowBatch &rows,
                 const std::vector<int> &key_cols,
                 const std::vector<AggSpec> &aggs, DbStats &stats);

std::vector<Row> groupBy(MiniDb &db, const std::vector<Row> &rows,
                         const std::vector<int> &key_cols,
                         const std::vector<AggSpec> &aggs,
                         DbStats &stats);

/**
 * In-place sort by (column, descending?) keys with compareValues()
 * order. Not stable: ties land where std::sort puts them, the same
 * for a batch and for the equal vector<Row>.
 */
void sortRows(RowBatch &rows,
              const std::vector<std::pair<int, bool>> &keys);

void sortRows(std::vector<Row> &rows,
              const std::vector<std::pair<int, bool>> &keys);

/** Filter @p rows by @p pred on the host (charges per-row CPU). */
RowBatch filterRows(MiniDb &db, const RowBatch &rows,
                    const ExprPtr &pred, DbStats &stats);

std::vector<Row> filterRows(MiniDb &db, const std::vector<Row> &rows,
                            const ExprPtr &pred, DbStats &stats);

}  // namespace bisc::db

#endif  // BISCUIT_DB_EXECUTOR_H_
