/**
 * @file
 * Typed row batches and the host operators built on them.
 *
 * Edge cases pin the orders and identities the Row-based operators
 * had (group keys ordered as strings, "%.2f" double buckets, per-key
 * join order, std::sort tie order). A 24-seed property sends random
 * tables, joined on Int64, String or Date keys, through scan -> join
 * -> computed column -> group-by -> sort, once through the vector<Row>
 * adapters and once on batches, and compares both with a naive
 * vector<Row> reference written here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/row_batch.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

class RowBatchTest : public ::testing::Test
{
  protected:
    RowBatchTest()
        : env_(ssd::testConfig()),
          host_(env_.kernel, env_.device, env_.fs), db_(env_, host_)
    {}

    /** Run @p fn on the host fiber (operators charge sim time). */
    template <class Fn>
    void
    run(const Fn &fn)
    {
        env_.run([&] { fn(); });
    }

    sisc::Env env_;
    host::HostSystem host_;
    MiniDb db_;
    DbStats stats_;
};

std::int64_t
asInt(const Value &v)
{
    return std::get<std::int64_t>(v);
}

// ----- edge cases -----

TEST_F(RowBatchTest, Int64GroupKeysEmitInStringOrder)
{
    std::vector<Row> rows;
    for (std::int64_t k : {9, 10, 100, 2, 10})
        rows.push_back({Value(k)});
    std::vector<Row> out;
    run([&] {
        out = groupBy(db_, rows, {0}, {{AggSpec::Op::Count, -1}},
                      stats_);
    });
    // "10" < "100" < "2" < "9": the key string order, not numeric.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(asInt(out[0][0]), 10);
    EXPECT_EQ(asInt(out[0][1]), 2);
    EXPECT_EQ(asInt(out[1][0]), 100);
    EXPECT_EQ(asInt(out[2][0]), 2);
    EXPECT_EQ(asInt(out[3][0]), 9);
}

TEST_F(RowBatchTest, DoubleKeysBucketByTheirTwoDecimalForm)
{
    std::vector<Row> rows;
    for (double k : {1.001, -0.001, 1.004, 0.0})
        rows.push_back({Value(k)});
    std::vector<Row> out;
    run([&] {
        out = groupBy(db_, rows, {0}, {{AggSpec::Op::Count, -1}},
                      stats_);
    });
    // "-0.00" < "0.00" < "1.00"; 1.001 and 1.004 share a group keyed
    // by the first row's value, -0.001 and 0.0 do not.
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(std::get<double>(out[0][0]), -0.001);
    EXPECT_EQ(asInt(out[0][1]), 1);
    EXPECT_EQ(std::get<double>(out[1][0]), 0.0);
    EXPECT_EQ(asInt(out[1][1]), 1);
    EXPECT_EQ(std::get<double>(out[2][0]), 1.001);
    EXPECT_EQ(asInt(out[2][1]), 2);
}

TEST_F(RowBatchTest, FullWidthStringsHaveNoNul)
{
    Schema s({col("tag", Type::String, 4), col("date", Type::Date),
              col("n", Type::Int64)});
    std::vector<std::uint8_t> slot(s.rowWidth());
    s.encodeRow({std::string("abcd"), std::string("1995-09-01"),
                 std::int64_t{7}},
                slot.data());

    RowBatch b = RowBatch::forSchema(s);
    b.appendSlot(s, slot.data());
    EXPECT_EQ(b.text(0, 0), "abcd");
    EXPECT_EQ(b.text(0, 1), "1995-09-01");
    EXPECT_EQ(b.i64(0, 2), 7);
    EXPECT_EQ(std::get<std::string>(s.decodeRow(slot.data())[0]), "abcd");

    // Through a table scan too: the text stays bounded by its width.
    auto &t = db_.createTable("wide", s);
    t.loadRows({{std::string("wxyz"), std::string("1996-01-31"),
                 std::int64_t{1}}});
    ScanOutcome out;
    run([&] {
        out = scanTable(db_, t, nullptr, EngineMode::Conv, stats_);
    });
    ASSERT_EQ(out.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(out.rows[0][0]), "wxyz");
    EXPECT_EQ(std::get<std::string>(out.rows[0][1]), "1996-01-31");
}

TEST_F(RowBatchTest, EmptyInputsAndEmptyJoins)
{
    auto &t = db_.createTable(
        "inner", Schema({col("k", Type::Int64),
                         col("v", Type::String, 6)}));
    t.loadRows({{std::int64_t{1}, std::string("one")},
                {std::int64_t{2}, std::string("two")}});
    const std::vector<Row> none;
    const std::vector<Row> outer = {{Value(std::int64_t{5})}};
    std::vector<Row> grouped, filtered, joined_empty, joined_miss;
    RowBatch typed_empty;
    run([&] {
        grouped = groupBy(db_, none, {0}, {{AggSpec::Op::Count, -1}},
                          stats_);
        filtered = filterRows(db_, none, nullptr, stats_);
        joined_empty = bnlJoin(db_, none, 8, 0, t, 0, nullptr, stats_);
        joined_miss = bnlJoin(db_, outer, 8, 0, t, 0, nullptr, stats_);
        typed_empty = bnlJoin(db_, RowBatch::fromRows(outer).where(
                                       [](std::size_t) { return false; }),
                              8, 0, t, 0, nullptr, stats_);
    });
    std::vector<Row> sorted;
    sortRows(sorted, {{0, false}});
    EXPECT_TRUE(grouped.empty());
    EXPECT_TRUE(filtered.empty());
    EXPECT_TRUE(joined_empty.empty());
    EXPECT_TRUE(joined_miss.empty());
    EXPECT_TRUE(sorted.empty());
    // An empty typed join still knows its columns: outer ++ inner.
    EXPECT_TRUE(typed_empty.empty());
    EXPECT_EQ(typed_empty.columnCount(), 3u);
}

TEST_F(RowBatchTest, DuplicateJoinKeysKeepTheirPerKeyOrder)
{
    auto &t = db_.createTable(
        "dups", Schema({col("k", Type::Int64), col("seq", Type::Int64)}));
    std::vector<Row> inner;
    const std::int64_t keys[] = {1, 2, 1, 1, 3, 2};
    for (std::int64_t i = 0; i < 6; ++i)
        inner.push_back({Value(keys[i]), Value(i)});
    t.loadRows(inner);
    std::vector<Row> outer = {{Value(std::int64_t{1})},
                              {Value(std::int64_t{2})},
                              {Value(std::int64_t{4})},
                              {Value(std::int64_t{1})}};
    std::vector<Row> out;
    run([&] { out = bnlJoin(db_, outer, 8, 0, t, 0, nullptr, stats_); });

    // Outer rows in order; each key's inner rows newest first, the
    // order the std::unordered_multimap of the Row engine yielded.
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    for (const Row &r : out)
        got.emplace_back(asInt(r[0]), asInt(r[2]));
    std::vector<std::pair<std::int64_t, std::int64_t>> want = {
        {1, 3}, {1, 2}, {1, 0}, {2, 5}, {2, 1},
        {1, 3}, {1, 2}, {1, 0}};
    EXPECT_EQ(got, want);
}

/** The Row engine's sort comparator, verbatim. */
void
referenceSort(std::vector<Row> &rows,
              const std::vector<std::pair<int, bool>> &keys)
{
    std::sort(rows.begin(), rows.end(),
              [&](const Row &a, const Row &b) {
                  for (auto [col, desc] : keys) {
                      int c = compareValues(
                          a[static_cast<std::size_t>(col)],
                          b[static_cast<std::size_t>(col)]);
                      if (c != 0)
                          return desc ? c > 0 : c < 0;
                  }
                  return false;
              });
}

TEST_F(RowBatchTest, SortTieOrderEqualsStdSortOverRows)
{
    // Many ties on the sort keys; the id column shows where each tie
    // landed. std::sort is unstable, so only an identical comparison
    // sequence reproduces the order.
    Rng rng(42);
    std::vector<Row> rows;
    for (std::int64_t id = 0; id < 500; ++id) {
        rows.push_back({Value(static_cast<std::int64_t>(rng.below(4))),
                        Value(std::string(1, 'a' + rng.below(3))),
                        Value(static_cast<double>(rng.below(3))),
                        Value(id)});
    }
    for (const auto &keys :
         std::vector<std::vector<std::pair<int, bool>>>{
             {{0, false}}, {{1, true}}, {{2, true}, {0, false}}}) {
        std::vector<Row> want = rows;
        referenceSort(want, keys);
        std::vector<Row> got = rows;
        sortRows(got, keys);
        RowBatch typed = RowBatch::fromRows(rows);
        sortRows(typed, keys);
        EXPECT_EQ(got, want);
        EXPECT_EQ(typed.toRows(), want);
    }
}

TEST_F(RowBatchTest, TypedAccessorsCheckTypes)
{
    RowBatch b = RowBatch::fromRows(
        {{Value(std::int64_t{1}), Value(2.5), Value(std::string("x"))}});
    EXPECT_EQ(b.num(0, 0), 1.0);
    EXPECT_EQ(b.num(0, 1), 2.5);
    EXPECT_EQ(b.text(0, 2), "x");
    EXPECT_DEATH(b.i64(0, 1), "not Int64");
    EXPECT_DEATH(b.num(0, 2), "not numeric");
    EXPECT_DEATH(b.text(0, 0), "not text");
}

// ----- property: typed operators equal a naive Row pipeline -----

/**
 * Join key type of a property seed: Int64 keys take the integer
 * path of the join, String and Date keys its text path.
 */
Type
keyType(int seed)
{
    const Type types[] = {Type::Int64, Type::String, Type::Date};
    return types[seed % 3];
}

/** Key @p k as a @p t value; text keys sort in the order of k. */
Value
keyValue(Type t, std::int64_t k)
{
    if (t == Type::String) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%02lld",
                      static_cast<long long>(k));
        return std::string(buf);
    }
    if (t == Type::Date)
        return dateAddDays("1995-01-01", k);
    return k;
}

/**
 * Random column mix behind the join key. A String key is @p
 * key_width wide; a text key brings an Int64 column along so every
 * schema has a numeric one.
 */
std::vector<Column>
randomColumns(Rng &rng, const std::string &prefix, Type key_type,
              Bytes key_width)
{
    std::vector<Column> cols = {col(prefix + "key", key_type,
                                    key_type == Type::String ? key_width
                                                             : 0)};
    if (key_type != Type::Int64)
        cols.push_back(col(prefix + "n", Type::Int64));
    const int extra = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < extra; ++i) {
        const std::string name = prefix + std::to_string(i);
        switch (rng.below(4)) {
          case 0:
            cols.push_back(col(name, Type::Int64));
            break;
          case 1:
            cols.push_back(col(name, Type::Double));
            break;
          case 2:
            cols.push_back(col(name, Type::String,
                               1 + static_cast<Bytes>(rng.below(6))));
            break;
          default:
            cols.push_back(col(name, Type::Date));
            break;
        }
    }
    return cols;
}

Value
randomValue(Rng &rng, const Column &c)
{
    switch (c.type) {
      case Type::Int64:
        return static_cast<std::int64_t>(rng.range(-20, 20));
      case Type::Double:
        // Few distinct hundredths, with values that straddle them.
        return static_cast<double>(rng.range(-300, 300)) / 1000.0;
      case Type::String: {
        // Full width sometimes, empty sometimes.
        std::string s(rng.below(c.width + 1), 'a');
        for (char &ch : s)
            ch = static_cast<char>('a' + rng.below(3));
        return s;
      }
      case Type::Date:
        return dateAddDays("1995-01-01",
                           static_cast<std::int64_t>(rng.below(40)));
    }
    return std::int64_t{0};
}

std::vector<Row>
randomRows(Rng &rng, const Schema &s, std::size_t n, int key_range)
{
    std::vector<Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
        Row r = {keyValue(s.at(0).type,
                          static_cast<std::int64_t>(rng.below(key_range)))};
        for (std::size_t c = 1; c < s.size(); ++c)
            r.push_back(randomValue(rng, s.at(c)));
        rows.push_back(std::move(r));
    }
    return rows;
}

/** The Row engine's group key: valueToString() per key + '\x01'. */
std::string
legacyKey(const Row &r, const std::vector<int> &key_cols)
{
    std::string key;
    for (int c : key_cols) {
        const Value &v = r[static_cast<std::size_t>(c)];
        if (const auto *i = std::get_if<std::int64_t>(&v)) {
            key += std::to_string(*i);
        } else if (const auto *d = std::get_if<double>(&v)) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2f", *d);
            key += buf;
        } else {
            key += std::get<std::string>(v);
        }
        key += '\x01';
    }
    return key;
}

double
numeric(const Value &v)
{
    return std::holds_alternative<std::int64_t>(v)
               ? static_cast<double>(std::get<std::int64_t>(v))
               : std::get<double>(v);
}

std::vector<Row>
naiveGroupBy(const std::vector<Row> &rows,
             const std::vector<int> &key_cols,
             const std::vector<AggSpec> &aggs)
{
    struct Acc
    {
        Row keys;
        std::vector<double> sum, min, max;
        std::int64_t count = 0;
    };
    std::map<std::string, Acc> groups;
    for (const Row &r : rows) {
        Acc &acc = groups[legacyKey(r, key_cols)];
        if (acc.count == 0) {
            for (int c : key_cols)
                acc.keys.push_back(r[static_cast<std::size_t>(c)]);
            acc.sum.assign(aggs.size(), 0.0);
            acc.min.assign(aggs.size(), 0.0);
            acc.max.assign(aggs.size(), 0.0);
        }
        for (std::size_t a = 0; a < aggs.size(); ++a) {
            if (aggs[a].column < 0)
                continue;
            double v =
                numeric(r[static_cast<std::size_t>(aggs[a].column)]);
            acc.sum[a] += v;
            acc.min[a] = acc.count == 0 ? v : std::min(acc.min[a], v);
            acc.max[a] = acc.count == 0 ? v : std::max(acc.max[a], v);
        }
        ++acc.count;
    }
    std::vector<Row> out;
    for (auto &[k, acc] : groups) {
        Row r = acc.keys;
        for (std::size_t a = 0; a < aggs.size(); ++a) {
            switch (aggs[a].op) {
              case AggSpec::Op::Sum: r.push_back(acc.sum[a]); break;
              case AggSpec::Op::Avg:
                r.push_back(acc.sum[a] / static_cast<double>(acc.count));
                break;
              case AggSpec::Op::Count: r.push_back(acc.count); break;
              case AggSpec::Op::Min: r.push_back(acc.min[a]); break;
              case AggSpec::Op::Max: r.push_back(acc.max[a]); break;
            }
        }
        out.push_back(std::move(r));
    }
    return out;
}

double
computed(const Row &r, int a, int b)
{
    return numeric(r[static_cast<std::size_t>(a)]) * 0.5 -
           numeric(r[static_cast<std::size_t>(b)]);
}

class RowBatchProperty : public ::testing::TestWithParam<int>
{};

TEST_P(RowBatchProperty, PipelineEqualsNaiveRows)
{
    const int seed = GetParam();
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(seed));
    sisc::Env env(ssd::testConfig());
    host::HostSystem host(env.kernel, env.device, env.fs);
    MiniDb db(env, host);

    // String keys are full width on the outer side, padded on the
    // inner one.
    const Type key_type = keyType(seed);
    Schema as(randomColumns(rng, "a", key_type, 2));
    Schema bs(randomColumns(rng, "b", key_type, 4));
    const int key_range = 1 + static_cast<int>(rng.below(12));
    std::vector<Row> a_rows =
        randomRows(rng, as, 20 + rng.below(200), key_range);
    std::vector<Row> b_rows =
        randomRows(rng, bs, 20 + rng.below(200), key_range);
    Table &A = db.createTable("a", as);
    Table &B = db.createTable("b", bs);
    A.loadRows(a_rows);
    B.loadRows(b_rows);

    // Scan predicate on the outer key, join predicate on the inner
    // one (sometimes none); both are key ranges.
    const Value a_max = keyValue(key_type, rng.range(0, key_range));
    const Value b_min = keyValue(key_type, rng.range(-1, key_range / 2));
    ExprPtr scan_pred = cmp(as, "akey", CmpOp::Le, a_max);
    ExprPtr join_pred =
        rng.chance(0.5) ? cmp(bs, "bkey", CmpOp::Ge, b_min) : nullptr;

    // Computed column over two numeric columns (there always are).
    const int width = static_cast<int>(as.size() + bs.size());
    std::vector<int> numerics;
    std::vector<int> any_cols;
    for (int c = 0; c < width; ++c) {
        const Column &column =
            c < static_cast<int>(as.size())
                ? as.at(static_cast<std::size_t>(c))
                : bs.at(static_cast<std::size_t>(c) - as.size());
        if (column.type == Type::Int64 || column.type == Type::Double)
            numerics.push_back(c);
        any_cols.push_back(c);
    }
    const int ca = numerics[rng.below(numerics.size())];
    const int cb = numerics[rng.below(numerics.size())];

    // Group on one or two random columns; aggregate numerics.
    std::vector<int> key_cols = {any_cols[rng.below(any_cols.size())]};
    if (rng.chance(0.5))
        key_cols.push_back(any_cols[rng.below(any_cols.size())]);
    const int agg_col = numerics[rng.below(numerics.size())];
    const std::vector<AggSpec> aggs = {{AggSpec::Op::Sum, width},
                                       {AggSpec::Op::Avg, agg_col},
                                       {AggSpec::Op::Count, -1},
                                       {AggSpec::Op::Min, agg_col},
                                       {AggSpec::Op::Max, width}};
    const int n_keys = static_cast<int>(key_cols.size());
    const std::vector<std::pair<int, bool>> sort_keys = {
        {n_keys + 2, true}, {0, rng.chance(0.5)}};

    // Naive reference.
    std::vector<Row> ref_scan;
    for (const Row &r : a_rows) {
        if (compareValues(r[0], a_max) <= 0)
            ref_scan.push_back(r);
    }
    std::vector<Row> ref_join;
    for (const Row &o : ref_scan) {
        // Per key, newest inner row first.
        for (auto it = b_rows.rbegin(); it != b_rows.rend(); ++it) {
            if (join_pred && compareValues((*it)[0], b_min) < 0)
                continue;
            if ((*it)[0] != o[0])
                continue;
            Row j = o;
            j.insert(j.end(), it->begin(), it->end());
            ref_join.push_back(std::move(j));
        }
    }
    for (Row &r : ref_join)
        r.push_back(computed(r, ca, cb));
    std::vector<Row> ref = naiveGroupBy(ref_join, key_cols, aggs);
    referenceSort(ref, sort_keys);

    // Subject 1: the vector<Row> adapters.
    std::vector<Row> via_rows;
    // Subject 2: the typed operators, checked stage by stage.
    std::vector<Row> via_batch;
    DbStats s1, s2;
    env.run([&] {
        std::vector<Row> scanned =
            scanTable(db, A, scan_pred, EngineMode::Conv, s1).rows;
        std::vector<Row> joined = bnlJoin(db, scanned, A.rowWidth(), 0,
                                          B, 0, join_pred, s1);
        for (Row &r : joined)
            r.push_back(computed(r, ca, cb));
        EXPECT_EQ(joined, ref_join) << "seed " << seed;
        via_rows = groupBy(db, joined, key_cols, aggs, s1);
        sortRows(via_rows, sort_keys);

        RowBatch b =
            scanBatch(db, A, scan_pred, EngineMode::Conv, s2).batch;
        EXPECT_EQ(b.toRows(), ref_scan) << "seed " << seed;
        RowBatch j = bnlJoin(db, b, A.rowWidth(), 0, B, 0, join_pred, s2);
        j.addColumn({Type::Double, 8}, [&](std::size_t r) {
            return Cell::fromDouble(j.num(r, ca) * 0.5 - j.num(r, cb));
        });
        EXPECT_EQ(j.toRows(), ref_join) << "seed " << seed;
        RowBatch g = groupBy(db, j, key_cols, aggs, s2);
        sortRows(g, sort_keys);
        via_batch = g.toRows();
    });
    EXPECT_EQ(via_rows, ref) << "seed " << seed;
    EXPECT_EQ(via_batch, ref) << "seed " << seed;
    EXPECT_EQ(s1.rows_examined, s2.rows_examined);
    EXPECT_EQ(s1.pages_to_host, s2.pages_to_host);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowBatchProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace bisc::db
