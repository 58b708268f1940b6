#include "db/stats.h"

#include <algorithm>
#include <cstring>

#include "db/minidb.h"

namespace bisc::db {

namespace {

bool
isTextColumn(const Schema &s, int column)
{
    Type t = s.at(static_cast<std::size_t>(column)).type;
    return t == Type::String || t == Type::Date;
}

bool
looksLikeDate(std::string_view t)
{
    return t.size() == 10 && t[4] == '-' && t[7] == '-';
}

/**
 * Numeric-domain value of predicate constant @p v against column
 * @p column (Date columns map through dateToDays). False when the
 * constant is not representable in the column's histogram domain.
 */
bool
predValueToDouble(const Schema &s, int column, const Value &v,
                  double *out)
{
    Type t = s.at(static_cast<std::size_t>(column)).type;
    if (t == Type::Date) {
        const auto *str = std::get_if<std::string>(&v);
        if (str == nullptr || !looksLikeDate(*str))
            return false;
        *out = static_cast<double>(dateToDays(*str));
        return true;
    }
    if (t == Type::Int64 || t == Type::Double) {
        if (const auto *i = std::get_if<std::int64_t>(&v)) {
            *out = static_cast<double>(*i);
            return true;
        }
        if (const auto *d = std::get_if<double>(&v)) {
            *out = *d;
            return true;
        }
    }
    return false;
}

double
clamp01(double v)
{
    return std::min(1.0, std::max(0.0, v));
}

/** Zone test of one comparison against [min, max]. */
template <class T>
bool
zoneCmpHolds(CmpOp op, const T &min, const T &max, const T &v)
{
    switch (op) {
      case CmpOp::Eq: return min <= v && v <= max;
      case CmpOp::Ne: return !(min == max && min == v);
      case CmpOp::Lt: return min < v;
      case CmpOp::Le: return min <= v;
      case CmpOp::Gt: return max > v;
      case CmpOp::Ge: return max >= v;
    }
    return true;
}

/**
 * The leading literal segment of a LIKE pattern (empty when the
 * pattern starts with '%').
 */
std::string
likePrefix(const std::string &pattern)
{
    std::string p;
    for (char c : pattern) {
        if (c == '%')
            break;
        p.push_back(c);
    }
    return p;
}

}  // namespace

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

double
EqualWidthHistogram::estimateLe(double v) const
{
    if (total == 0)
        return 0.0;
    if (hi <= lo)
        return v >= lo ? 1.0 : 0.0;
    if (v < lo)
        return 0.0;
    if (v >= hi)
        return 1.0;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    std::size_t b = std::min(
        buckets.size() - 1, static_cast<std::size_t>((v - lo) / width));
    double cum = 0.0;
    for (std::size_t i = 0; i < b; ++i)
        cum += static_cast<double>(buckets[i]);
    const double bucket_lo = lo + static_cast<double>(b) * width;
    const double frac = clamp01((v - bucket_lo) / width);
    cum += static_cast<double>(buckets[b]) * frac;
    return clamp01(cum / static_cast<double>(total));
}

double
EqualWidthHistogram::estimateEq(double v) const
{
    if (total == 0)
        return 0.0;
    if (hi <= lo)
        return v == lo ? 1.0 : 0.0;
    if (v < lo || v > hi)
        return 0.0;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    std::size_t b = std::min(
        buckets.size() - 1, static_cast<std::size_t>((v - lo) / width));
    // Uniform spread over the bucket's distinct values; integral
    // domains (keys, dates, quantities) have ~width of them. For
    // continuous domains this overestimates — the conservative
    // direction for an offload decision.
    const double distinct = std::max(1.0, width);
    return clamp01(static_cast<double>(buckets[b]) /
                   static_cast<double>(total) / distinct);
}

double
EqualWidthHistogram::estimateRange(double a, double b) const
{
    if (b < a)
        return 0.0;
    return clamp01(estimateLe(b) - estimateLe(a) + estimateEq(a));
}

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

namespace {

/** Where and how buildTableStats() reads one column of a slot. */
struct ColumnPlan
{
    Bytes offset = 0;
    Bytes width = 0;
    Type type = Type::Int64;

    bool text() const { return type == Type::String || type == Type::Date; }
};

std::vector<ColumnPlan>
columnPlan(const Schema &s)
{
    std::vector<ColumnPlan> plan(s.size());
    for (std::size_t c = 0; c < s.size(); ++c)
        plan[c] = {s.offsetOf(c), s.at(c).width, s.at(c).type};
    return plan;
}

double
numberAt(const std::uint8_t *src, Type t)
{
    if (t == Type::Int64) {
        std::int64_t v;
        std::memcpy(&v, src, 8);
        return static_cast<double>(v);
    }
    double v;
    std::memcpy(&v, src, 8);
    return v;
}

std::string_view
textAt(const std::uint8_t *src, Bytes width)
{
    return textOf(reinterpret_cast<const char *>(src), width);
}

/**
 * Histogram-domain value of one cell: numbers as themselves, a Date
 * cell's text through dateToDays() when it looks like a date. False
 * for String cells and non-date text.
 */
bool
domainValue(const ColumnPlan &cp, const std::uint8_t *src, double *out)
{
    if (!cp.text()) {
        *out = numberAt(src, cp.type);
        return true;
    }
    if (cp.type == Type::String)
        return false;
    const std::string_view t = textAt(src, cp.width);
    if (!looksLikeDate(t))
        return false;
    *out = static_cast<double>(dateToDays(t));
    return true;
}

/**
 * A running [lo, hi] under the strict comparisons of a row-by-row
 * scan: the first value seeds both bounds, and a later one replaces a
 * bound only when it is strictly beyond it.
 */
template <class T>
struct Bounds
{
    T lo{};
    T hi{};
    bool seen = false;

    void
    add(const T &v)
    {
        if (!seen || v < lo)
            lo = v;
        if (!seen || v > hi)
            hi = v;
        seen = true;
    }
};

}  // namespace

std::shared_ptr<const TableStats>
buildTableStats(const Table &table)
{
    const Schema &s = table.schema();
    const std::size_t ncols = s.size();
    const Bytes page_size = table.pageSize();
    const Bytes row_width = s.rowWidth();
    const std::vector<ColumnPlan> plan = columnPlan(s);

    auto st = std::make_shared<TableStats>();
    st->row_count = table.rowCount();
    st->page_count = table.pageCount();
    st->hists.resize(ncols);

    std::vector<std::uint8_t> page(page_size);
    auto readPage = [&](std::uint64_t p) {
        table.shardFs(table.shardOf(p))
            .peek(table.file(), table.localPage(p) * page_size,
                  page_size, page.data());
        return table.rowsInPage(p);
    };

    // Pass 1: per-chunk zone maps plus each column's global numeric
    // domain (the histogram's [lo, hi]). Each page is walked column
    // by column; a column's running bounds carry over from the rows
    // before it, so the result is that of a row-by-row scan.
    std::vector<Bounds<double>> domain(ncols);
    for (std::uint64_t p = 0; p < st->page_count; ++p) {
        if (p % kPagesPerChunk == 0) {
            ChunkStats chunk;
            chunk.first_page = p;
            chunk.cols.resize(ncols);
            st->chunks.push_back(std::move(chunk));
        }
        ChunkStats &chunk = st->chunks.back();
        ++chunk.page_count;
        const bool chunk_first = chunk.row_count == 0;

        const std::uint64_t n = readPage(p);
        chunk.row_count += n;
        for (std::size_t c = 0; c < ncols; ++c) {
            const ColumnPlan &cp = plan[c];
            ColumnZone &z = chunk.cols[c];
            Bounds<double> dom = domain[c];
            const std::uint8_t *cell = page.data() + cp.offset;
            if (!cp.text()) {
                Bounds<double> zone{z.num_min, z.num_max, !chunk_first};
                for (std::uint64_t i = 0; i < n; ++i, cell += row_width) {
                    const double v = numberAt(cell, cp.type);
                    zone.add(v);
                    dom.add(v);
                }
                z.num_min = zone.lo;
                z.num_max = zone.hi;
            } else {
                // Text bounds stay views (into the zone's strings or
                // this page) until the page is done.
                Bounds<std::string_view> zone{z.str_min, z.str_max,
                                              !chunk_first};
                for (std::uint64_t i = 0; i < n; ++i, cell += row_width) {
                    const std::string_view t = textAt(cell, cp.width);
                    zone.add(t);
                    if (cp.type == Type::Date && looksLikeDate(t))
                        dom.add(static_cast<double>(dateToDays(t)));
                }
                if (zone.lo.data() != z.str_min.data())
                    z.str_min.assign(zone.lo);
                if (zone.hi.data() != z.str_max.data())
                    z.str_max.assign(zone.hi);
            }
            domain[c] = dom;
        }
    }

    // Pass 2: equal-width histogram fill over the global domains,
    // reading only the columns that have one.
    std::vector<std::size_t> hist_cols;
    for (std::size_t c = 0; c < ncols; ++c) {
        if (!domain[c].seen)
            continue;
        st->hists[c].lo = domain[c].lo;
        st->hists[c].hi = domain[c].hi;
        st->hists[c].buckets.assign(kHistogramBuckets, 0);
        hist_cols.push_back(c);
    }
    if (hist_cols.empty())
        return st;
    for (std::uint64_t p = 0; p < st->page_count; ++p) {
        const std::uint64_t n = readPage(p);
        for (std::size_t c : hist_cols) {
            const ColumnPlan &cp = plan[c];
            EqualWidthHistogram &h = st->hists[c];
            const std::size_t last = h.buckets.size() - 1;
            const double width =
                (h.hi - h.lo) / static_cast<double>(h.buckets.size());
            const std::uint8_t *cell = page.data() + cp.offset;
            for (std::uint64_t i = 0; i < n; ++i, cell += row_width) {
                double v = 0.0;
                if (!domainValue(cp, cell, &v))
                    continue;
                std::size_t b = 0;
                if (h.hi > h.lo) {
                    b = std::min(last, static_cast<std::size_t>(
                                           (v - h.lo) / width));
                }
                ++h.buckets[b];
                ++h.total;
            }
        }
    }
    return st;
}

// ---------------------------------------------------------------------
// Zone-map satisfiability
// ---------------------------------------------------------------------

bool
zoneCanMatch(const Expr &e, const Schema &schema,
             const ChunkStats &chunk)
{
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (isTextColumn(schema, e.column)) {
            const auto *v = std::get_if<std::string>(&e.value);
            if (v == nullptr)
                return true;
            return zoneCmpHolds(e.op, z.str_min, z.str_max, *v);
        }
        double v;
        if (!predValueToDouble(schema, e.column, e.value, &v))
            return true;
        return zoneCmpHolds(e.op, z.num_min, z.num_max, v);
      }
      case Expr::Kind::Between: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (isTextColumn(schema, e.column)) {
            const auto *lo = std::get_if<std::string>(&e.lo);
            const auto *hi = std::get_if<std::string>(&e.hi);
            if (lo == nullptr || hi == nullptr)
                return true;
            return z.str_min <= *hi && z.str_max >= *lo;
        }
        double lo, hi;
        if (!predValueToDouble(schema, e.column, e.lo, &lo) ||
            !predValueToDouble(schema, e.column, e.hi, &hi))
            return true;
        return z.num_min <= hi && z.num_max >= lo;
      }
      case Expr::Kind::In: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        for (const Value &v : e.set) {
            if (isTextColumn(schema, e.column)) {
                const auto *t = std::get_if<std::string>(&v);
                if (t == nullptr ||
                    zoneCmpHolds(CmpOp::Eq, z.str_min, z.str_max, *t))
                    return true;
            } else {
                double d;
                if (!predValueToDouble(schema, e.column, v, &d) ||
                    zoneCmpHolds(CmpOp::Eq, z.num_min, z.num_max, d))
                    return true;
            }
        }
        return false;
      }
      case Expr::Kind::Like: {
        if (!isTextColumn(schema, e.column))
            return true;
        const std::string prefix = likePrefix(e.pattern);
        if (prefix.empty())
            return true;
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (z.str_max < prefix)
            return false;
        // Matching text lies in [prefix, next(prefix)); compute the
        // exclusive upper bound when a byte can be incremented
        // without leaving printable space, else stay conservative.
        std::string next = prefix;
        for (std::size_t i = next.size(); i-- > 0;) {
            if (static_cast<unsigned char>(next[i]) < 0x7e) {
                ++next[i];
                next.resize(i + 1);
                return z.str_min < next;
            }
        }
        return true;
      }
      case Expr::Kind::And:
        return std::all_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return zoneCanMatch(*k, schema, chunk);
                           });
      case Expr::Kind::Or:
        return std::any_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return zoneCanMatch(*k, schema, chunk);
                           });
      case Expr::Kind::CmpCol:
      case Expr::Kind::NotLike:
      case Expr::Kind::Not:
        return true;
    }
    return true;
}

// ---------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------

SelEstimate
estimateRowSelectivity(const Expr &e, const Schema &schema,
                       const TableStats &stats)
{
    SelEstimate out;
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        double v;
        if (h.empty() ||
            !predValueToDouble(schema, e.column, e.value, &v))
            return out;
        out.known = true;
        switch (e.op) {
          case CmpOp::Eq: out.sel = h.estimateEq(v); break;
          case CmpOp::Ne: out.sel = 1.0 - h.estimateEq(v); break;
          case CmpOp::Lt:
            out.sel = h.estimateLe(v) - h.estimateEq(v);
            break;
          case CmpOp::Le: out.sel = h.estimateLe(v); break;
          case CmpOp::Gt: out.sel = 1.0 - h.estimateLe(v); break;
          case CmpOp::Ge:
            out.sel = 1.0 - h.estimateLe(v) + h.estimateEq(v);
            break;
        }
        out.sel = clamp01(out.sel);
        return out;
      }
      case Expr::Kind::Between: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        double lo, hi;
        if (h.empty() ||
            !predValueToDouble(schema, e.column, e.lo, &lo) ||
            !predValueToDouble(schema, e.column, e.hi, &hi))
            return out;
        out.known = true;
        out.sel = h.estimateRange(lo, hi);
        return out;
      }
      case Expr::Kind::In: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        if (h.empty())
            return out;
        double sum = 0.0;
        for (const Value &v : e.set) {
            double d;
            if (!predValueToDouble(schema, e.column, v, &d))
                return out;
            sum += h.estimateEq(d);
        }
        out.known = true;
        out.sel = clamp01(sum);
        return out;
      }
      case Expr::Kind::Not: {
        SelEstimate kid =
            estimateRowSelectivity(*e.kids.at(0), schema, stats);
        if (kid.known) {
            out.known = true;
            out.sel = clamp01(1.0 - kid.sel);
        }
        return out;
      }
      case Expr::Kind::And: {
        // Independence assumption; unknown conjuncts contribute 1.0
        // (they only narrow further, so the estimate is an upper
        // bound — the conservative direction for offloading).
        double sel = 1.0;
        for (const ExprPtr &k : e.kids) {
            SelEstimate kid =
                estimateRowSelectivity(*k, schema, stats);
            if (kid.known) {
                out.known = true;
                sel *= kid.sel;
            }
        }
        if (out.known)
            out.sel = clamp01(sel);
        return out;
      }
      case Expr::Kind::Or: {
        double miss = 1.0;
        for (const ExprPtr &k : e.kids) {
            SelEstimate kid =
                estimateRowSelectivity(*k, schema, stats);
            if (!kid.known)
                return out;
            miss *= 1.0 - kid.sel;
        }
        out.known = !e.kids.empty();
        out.sel = clamp01(1.0 - miss);
        return out;
      }
      case Expr::Kind::CmpCol:
      case Expr::Kind::Like:
      case Expr::Kind::NotLike:
        return out;
    }
    return out;
}

// ---------------------------------------------------------------------
// Prune planning
// ---------------------------------------------------------------------

PrunePlan
planPrune(const Table &table, const Expr &pred)
{
    PrunePlan plan;
    std::shared_ptr<const TableStats> stats = table.stats();
    if (!stats)
        return plan;
    plan.usable = true;
    plan.pages_total = table.pageCount();
    for (const ChunkStats &chunk : stats->chunks) {
        ++plan.chunks_considered;
        if (!zoneCanMatch(pred, table.schema(), chunk)) {
            ++plan.chunks_skipped;
            continue;
        }
        plan.pages_selected += chunk.page_count;
        if (!plan.runs.empty() &&
            plan.runs.back().first + plan.runs.back().second ==
                chunk.first_page) {
            plan.runs.back().second += chunk.page_count;
        } else {
            plan.runs.emplace_back(chunk.first_page,
                                   chunk.page_count);
        }
    }
    return plan;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
shardPruneRuns(const Table &table, const PrunePlan &plan,
               std::uint32_t s)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const std::uint64_t n = table.shardCount();
    for (const auto &[g0, count] : plan.runs) {
        const std::uint64_t g1 = g0 + count;
        // Local pages l with l*n + s in [g0, g1).
        const std::uint64_t l_lo = g0 <= s ? 0 : (g0 - s + n - 1) / n;
        const std::uint64_t l_hi = g1 <= s ? 0 : (g1 - s + n - 1) / n;
        if (l_hi <= l_lo)
            continue;
        if (!out.empty() &&
            out.back().first + out.back().second == l_lo) {
            out.back().second += l_hi - l_lo;
        } else {
            out.emplace_back(l_lo, l_hi - l_lo);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Freeze / fork
// ---------------------------------------------------------------------

void
exportTableStats(MiniDb &db, sim::DeviceImage &image)
{
    for (const std::string &name : db.tableNames()) {
        std::shared_ptr<const TableStats> st = db.table(name).stats();
        if (st)
            image.app_stats["db.stats." + name] = st;
    }
}

void
adoptTableStats(MiniDb &db, const sim::DeviceImage &image)
{
    for (const std::string &name : db.tableNames()) {
        auto it = image.app_stats.find("db.stats." + name);
        if (it == image.app_stats.end())
            continue;
        auto st =
            std::dynamic_pointer_cast<const TableStats>(it->second);
        if (st)
            db.table(name).setStats(std::move(st));
    }
}

}  // namespace bisc::db
