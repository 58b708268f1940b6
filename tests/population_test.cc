/**
 * @file
 * The table-population path: rows are written into page slots through
 * SlotWriter, dates are parsed and formatted without allocating, and
 * statistics are built from a per-table column plan.
 *
 *  1. The date helpers agree with an snprintf/strtol reference on
 *     every day from 1900-01-01 to 2100-12-31, and non-digit input
 *     keeps the std::stoi field semantics.
 *  2. SlotWriter writes what Schema::encodeRow writes, truncates text
 *     at the column width, and load() leaves no bytes of a refused
 *     row behind.
 *  3. buildTableStats() equals a naive reference built from
 *     forEachRow(), decodeRow() and dateToDays(): every chunk zone,
 *     every histogram bucket, lo, hi and total — on TPC-H at 1 and 4
 *     drives and on a hand-built table with awkward cells.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

// ----- 1. date helpers -----

std::string
refFormat(long y, long m, long d)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%04ld-%02ld-%02ld", y, m, d);
    return std::string(buf).substr(0, kDateWidth);
}

bool
isLeap(long y)
{
    return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

TEST(DateHelpers, EveryDayFrom1900To2100RoundTrips)
{
    static const long kMonthDays[12] = {31, 28, 31, 30, 31, 30,
                                        31, 31, 30, 31, 30, 31};
    std::int64_t days = -25567;  // 1900-01-01
    char out[kDateWidth];
    for (long y = 1900; y <= 2100; ++y) {
        for (long m = 1; m <= 12; ++m) {
            const long last = kMonthDays[m - 1] + (m == 2 && isLeap(y));
            for (long d = 1; d <= last; ++d, ++days) {
                const std::string ref = refFormat(y, m, d);
                ASSERT_EQ(dateToDays(ref), days) << ref;
                formatDate(days, out);
                ASSERT_EQ(std::string(out, kDateWidth), ref);
                ASSERT_EQ(daysToDate(days), ref);
                // The formatted fields read back through strtol.
                ASSERT_EQ(std::strtol(ref.substr(0, 4).c_str(),
                                      nullptr, 10),
                          y);
                ASSERT_EQ(std::strtol(std::string(out + 5, 2).c_str(),
                                      nullptr, 10),
                          m);
                ASSERT_EQ(std::strtol(std::string(out + 8, 2).c_str(),
                                      nullptr, 10),
                          d);
            }
        }
    }
    EXPECT_EQ(daysToDate(days), "2101-01-01");
}

TEST(DateHelpers, NonDigitFieldsKeepStoiSemantics)
{
    // std::stoi reads a field's leading digits (after whitespace and
    // a sign), so "19a8" is year 19 and "5x" is day 5.
    EXPECT_EQ(dateToDays("19a8-06-15"), dateToDays("0019-06-15"));
    EXPECT_EQ(dateToDays(" 199-06-15"), dateToDays("0199-06-15"));
    EXPECT_EQ(dateToDays("+995-06-15"), dateToDays("0995-06-15"));
    EXPECT_EQ(dateToDays("1998-6-15x"), dateToDays("1998-06-05"));
    // Separators are never checked.
    EXPECT_EQ(dateToDays("1998/06/15"), dateToDays("1998-06-15"));
    EXPECT_THROW(dateToDays("abcd-ef-gh"), std::invalid_argument);
}

TEST(DateHelpers, YearsOutsideFourDigitsTruncateLikeSnprintf)
{
    const std::int64_t year0 = dateToDays("0000-01-01");
    EXPECT_EQ(daysToDate(year0 - 1), refFormat(-1, 12, 31));
    EXPECT_EQ(daysToDate(year0 - 1), "-001-12-31");
    const std::int64_t y10k = dateToDays("9999-12-31") + 1;
    EXPECT_EQ(daysToDate(y10k), refFormat(10000, 1, 1));
    EXPECT_EQ(daysToDate(y10k), "10000-01-0");
}

// ----- 2. SlotWriter and load() -----

Schema
awkwardSchema()
{
    return Schema({col("id", Type::Int64), col("qty", Type::Double),
                   col("tag", Type::String, 6),
                   col("day", Type::Date), col("never", Type::Date),
                   col("name", Type::String, 12)});
}

TEST(SlotWriter, MatchesEncodeRowAndTruncatesText)
{
    const Schema s = awkwardSchema();
    const Row row{std::int64_t{-7}, -2.5, std::string("abcdefgh"),
                  std::string("1995-09-01"), std::string("n/a"),
                  std::string("")};
    std::vector<std::uint8_t> encoded(s.rowWidth(), 0xff);
    s.encodeRow(row, encoded.data());

    std::vector<std::uint8_t> typed(s.rowWidth(), 0);
    SlotWriter w(s, typed.data());
    w.i64(0, -7);
    w.f64(1, -2.5);
    w.text(2, "abcdefgh");
    w.date(3, dateToDays("1995-09-01"));
    w.text(4, "n/a");
    w.text(5, "");
    EXPECT_EQ(typed, encoded);

    const Row back = s.decodeRow(typed.data());
    EXPECT_EQ(std::get<std::string>(back[2]), "abcdef");
    EXPECT_EQ(std::get<std::string>(back[4]), "n/a");
    EXPECT_DEATH(w.i64(2, 1), "another type");
    EXPECT_DEATH(w.text(0, "x"), "is not text");
}

TEST(SlotWriter, RefusedRowLeavesNoBytes)
{
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &t = db.createTable("t", awkwardSchema());
    int i = 0;
    t.load([&](SlotWriter &w) {
        // The fourth call writes a cell and then ends the data.
        w.text(5, "leftover");
        return ++i <= 3;
    });
    ASSERT_EQ(t.rowCount(), 3u);
    ASSERT_EQ(t.pageCount(), 1u);
    std::vector<std::uint8_t> page(t.pageSize());
    t.fs().peek(t.file(), 0, page.size(), page.data());
    for (std::size_t b = 3 * t.rowWidth(); b < page.size(); ++b)
        ASSERT_EQ(page[b], 0) << "byte " << b;
}

// ----- 3. statistics equivalence -----

bool
refLooksLikeDate(const std::string &t)
{
    return t.size() == 10 && t[4] == '-' && t[7] == '-';
}

/** The statistics buildTableStats() must produce, computed naively. */
TableStats
naiveStats(const Table &t)
{
    const Schema &s = t.schema();
    const std::size_t ncols = s.size();
    TableStats st;
    st.row_count = t.rowCount();
    st.page_count = t.pageCount();
    st.hists.resize(ncols);

    std::vector<Row> rows;
    t.forEachRow([&](const Row &r) { rows.push_back(r); });
    EXPECT_EQ(rows.size(), t.rowCount());

    // Histogram-domain value of a cell, if it has one.
    auto domain = [&](std::size_t c, const Value &v, double *out) {
        switch (s.at(c).type) {
          case Type::Int64:
            *out = static_cast<double>(std::get<std::int64_t>(v));
            return true;
          case Type::Double:
            *out = std::get<double>(v);
            return true;
          case Type::Date: {
            const auto &text = std::get<std::string>(v);
            if (!refLooksLikeDate(text))
                return false;
            *out = static_cast<double>(dateToDays(text));
            return true;
          }
          case Type::String:
            return false;
        }
        return false;
    };

    std::vector<bool> seen(ncols, false);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::uint64_t page = r / t.rowsPerPage();
        const std::uint64_t chunk_idx = page / kPagesPerChunk;
        if (chunk_idx == st.chunks.size()) {
            ChunkStats chunk;
            chunk.first_page = chunk_idx * kPagesPerChunk;
            chunk.cols.resize(ncols);
            st.chunks.push_back(std::move(chunk));
        }
        ChunkStats &chunk = st.chunks.back();
        const bool first = chunk.row_count == 0;
        ++chunk.row_count;
        for (std::size_t c = 0; c < ncols; ++c) {
            ColumnZone &z = chunk.cols[c];
            const Value &v = rows[r][c];
            if (const auto *text = std::get_if<std::string>(&v)) {
                if (first || *text < z.str_min)
                    z.str_min = *text;
                if (first || *text > z.str_max)
                    z.str_max = *text;
            } else {
                const double n =
                    s.at(c).type == Type::Int64
                        ? static_cast<double>(std::get<std::int64_t>(v))
                        : std::get<double>(v);
                if (first || n < z.num_min)
                    z.num_min = n;
                if (first || n > z.num_max)
                    z.num_max = n;
            }
            double d;
            if (domain(c, v, &d)) {
                EqualWidthHistogram &h = st.hists[c];
                if (!seen[c] || d < h.lo)
                    h.lo = d;
                if (!seen[c] || d > h.hi)
                    h.hi = d;
                seen[c] = true;
            }
        }
    }
    for (std::uint64_t p = 0; p < t.pageCount(); ++p)
        ++st.chunks.at(p / kPagesPerChunk).page_count;

    for (std::size_t c = 0; c < ncols; ++c) {
        EqualWidthHistogram &h = st.hists[c];
        if (!seen[c])
            continue;
        h.buckets.assign(kHistogramBuckets, 0);
        for (const Row &row : rows) {
            double d;
            if (!domain(c, row[c], &d))
                continue;
            std::size_t b = 0;
            if (h.hi > h.lo) {
                const double width =
                    (h.hi - h.lo) / static_cast<double>(h.buckets.size());
                b = std::min(h.buckets.size() - 1,
                             static_cast<std::size_t>((d - h.lo) / width));
            }
            ++h.buckets[b];
            ++h.total;
        }
    }
    return st;
}

void
expectSameStats(const Table &t)
{
    SCOPED_TRACE(t.name());
    const TableStats want = naiveStats(t);
    const std::shared_ptr<const TableStats> got = buildTableStats(t);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->pages_per_chunk, kPagesPerChunk);
    EXPECT_EQ(got->row_count, want.row_count);
    EXPECT_EQ(got->page_count, want.page_count);
    ASSERT_EQ(got->chunks.size(), want.chunks.size());
    for (std::size_t k = 0; k < want.chunks.size(); ++k) {
        const ChunkStats &a = got->chunks[k];
        const ChunkStats &b = want.chunks[k];
        EXPECT_EQ(a.first_page, b.first_page) << "chunk " << k;
        EXPECT_EQ(a.page_count, b.page_count) << "chunk " << k;
        EXPECT_EQ(a.row_count, b.row_count) << "chunk " << k;
        ASSERT_EQ(a.cols.size(), b.cols.size());
        for (std::size_t c = 0; c < b.cols.size(); ++c) {
            EXPECT_EQ(a.cols[c].num_min, b.cols[c].num_min)
                << "chunk " << k << " col " << c;
            EXPECT_EQ(a.cols[c].num_max, b.cols[c].num_max)
                << "chunk " << k << " col " << c;
            EXPECT_EQ(a.cols[c].str_min, b.cols[c].str_min)
                << "chunk " << k << " col " << c;
            EXPECT_EQ(a.cols[c].str_max, b.cols[c].str_max)
                << "chunk " << k << " col " << c;
            EXPECT_EQ(a.cols[c].null_count, 0u);
        }
    }
    ASSERT_EQ(got->hists.size(), want.hists.size());
    for (std::size_t c = 0; c < want.hists.size(); ++c) {
        EXPECT_EQ(got->hists[c].lo, want.hists[c].lo) << "col " << c;
        EXPECT_EQ(got->hists[c].hi, want.hists[c].hi) << "col " << c;
        EXPECT_EQ(got->hists[c].buckets, want.hists[c].buckets)
            << "col " << c;
        EXPECT_EQ(got->hists[c].total, want.hists[c].total)
            << "col " << c;
    }
}

class StatsEquivalence : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(StatsEquivalence, TpchTablesMatchNaiveReference)
{
    sisc::Env env(ssd::defaultConfig(), GetParam());
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    tpch::buildTpch(db, cfg);
    for (const std::string &name : db.tableNames())
        expectSameStats(db.table(name));
}

TEST_P(StatsEquivalence, AwkwardCellsMatchNaiveReference)
{
    // Negative doubles and ids, NUL-padded and full-width strings, a
    // Date column mixing dates with text that is not one (including a
    // 10-byte non-digit date the stoi fallback parses), a Date column
    // that never holds a date, and a partial last page across more
    // than one chunk.
    sisc::Env env(ssd::testConfig(), GetParam());
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &t = db.createShardedTable("awkward", awkwardSchema());
    const std::uint64_t n = 70 * t.rowsPerPage() + t.rowsPerPage() / 3;
    const char *const kOddDays[4] = {"n/a", "", "19a8-06-15",
                                     "1995-09-1"};
    const char *const kTags[4] = {"x", "full6!", "abcdefgh", ""};
    Rng rng(11);
    std::uint64_t i = 0;
    t.load([&](SlotWriter &w) {
        if (i >= n)
            return false;
        const auto id = static_cast<std::int64_t>(i++);
        w.i64(0, id - 500);
        w.f64(1, -1000.0 + 0.25 * static_cast<double>(rng.below(8000)));
        w.text(2, kTags[rng.below(4)]);
        if (rng.below(5) == 0)
            w.text(3, kOddDays[rng.below(4)]);
        else
            w.date(3, dateToDays("1994-01-01") + id / 7);
        w.text(4, kOddDays[rng.below(2)]);
        w.text(5, std::string(rng.below(13), 'k'));
        return true;
    });
    ASSERT_EQ(t.rowCount(), n);
    ASSERT_NE(t.rowCount() % t.rowsPerPage(), 0u);
    ASSERT_GT(t.pageCount(), 2 * kPagesPerChunk);
    expectSameStats(t);

    const auto st = buildTableStats(t);
    EXPECT_TRUE(st->hists[4].empty());  // never a date
    EXPECT_TRUE(st->hists[2].empty());  // strings carry none
    EXPECT_FALSE(st->hists[3].empty());
}

INSTANTIATE_TEST_SUITE_P(Drives, StatsEquivalence,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace bisc::db
