#include "db/expr.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/log.h"

namespace bisc::db {

namespace {

ExprPtr
make(Expr e)
{
    return std::make_shared<const Expr>(std::move(e));
}

}  // namespace

ExprPtr
cmp(const Schema &s, const std::string &col, CmpOp op, Value v)
{
    Expr e;
    e.kind = Expr::Kind::Cmp;
    e.column = s.indexOf(col);
    e.op = op;
    e.value = std::move(v);
    return make(std::move(e));
}

ExprPtr
cmpCols(const Schema &s, const std::string &lhs, CmpOp op,
        const std::string &rhs)
{
    Expr e;
    e.kind = Expr::Kind::CmpCol;
    e.column = s.indexOf(lhs);
    e.column2 = s.indexOf(rhs);
    e.op = op;
    return make(std::move(e));
}

ExprPtr
between(const Schema &s, const std::string &col, Value lo, Value hi)
{
    Expr e;
    e.kind = Expr::Kind::Between;
    e.column = s.indexOf(col);
    e.lo = std::move(lo);
    e.hi = std::move(hi);
    return make(std::move(e));
}

ExprPtr
inSet(const Schema &s, const std::string &col, std::vector<Value> set)
{
    Expr e;
    e.kind = Expr::Kind::In;
    e.column = s.indexOf(col);
    e.set = std::move(set);
    return make(std::move(e));
}

ExprPtr
like(const Schema &s, const std::string &col, std::string pattern)
{
    Expr e;
    e.kind = Expr::Kind::Like;
    e.column = s.indexOf(col);
    e.pattern = std::move(pattern);
    return make(std::move(e));
}

ExprPtr
notLike(const Schema &s, const std::string &col, std::string pattern)
{
    Expr e;
    e.kind = Expr::Kind::NotLike;
    e.column = s.indexOf(col);
    e.pattern = std::move(pattern);
    return make(std::move(e));
}

ExprPtr
exprAnd(std::vector<ExprPtr> kids)
{
    Expr e;
    e.kind = Expr::Kind::And;
    e.kids = std::move(kids);
    return make(std::move(e));
}

ExprPtr
exprOr(std::vector<ExprPtr> kids)
{
    Expr e;
    e.kind = Expr::Kind::Or;
    e.kids = std::move(kids);
    return make(std::move(e));
}

ExprPtr
exprNot(ExprPtr kid)
{
    Expr e;
    e.kind = Expr::Kind::Not;
    e.kids = {std::move(kid)};
    return make(std::move(e));
}

bool
likeMatch(std::string_view text, const std::string &pattern)
{
    // Greedy two-pointer wildcard match with backtracking to the
    // last '%' (the classic linear-space algorithm).
    std::size_t t = 0, p = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() && pattern[p] != '%' &&
            pattern[p] == text[t]) {
            ++t;
            ++p;
        } else if (p < pattern.size() && pattern[p] == '%') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '%')
        ++p;
    return p == pattern.size();
}

namespace {

bool
cmpHolds(CmpOp op, int c)
{
    switch (op) {
      case CmpOp::Eq: return c == 0;
      case CmpOp::Ne: return c != 0;
      case CmpOp::Lt: return c < 0;
      case CmpOp::Le: return c <= 0;
      case CmpOp::Gt: return c > 0;
      case CmpOp::Ge: return c >= 0;
    }
    return false;
}

template <class T>
int
threeWay(const T &x, const T &y)
{
    return x < y ? -1 : (x == y ? 0 : 1);
}

double
numberOf(const Value &v)
{
    return std::holds_alternative<std::int64_t>(v)
               ? static_cast<double>(std::get<std::int64_t>(v))
               : std::get<double>(v);
}

/**
 * The one predicate evaluator. @p Acc reads column values of one row
 * in whatever form it is stored (Row, packed slot, batch cells):
 * isText(c), text(c) -> string_view and number(c) -> double. The type
 * checks are compareValues()'s.
 */
template <class Acc>
int
compareWithValue(const Acc &row, int column, const Value &v)
{
    if (row.isText(column)) {
        BISC_ASSERT(std::holds_alternative<std::string>(v),
                    "comparing string with numeric");
        return threeWay(row.text(column),
                        std::string_view(std::get<std::string>(v)));
    }
    BISC_ASSERT(!std::holds_alternative<std::string>(v),
                "comparing numeric with string");
    return threeWay(row.number(column), numberOf(v));
}

template <class Acc>
int
compareColumns(const Acc &row, int c1, int c2)
{
    if (row.isText(c1)) {
        BISC_ASSERT(row.isText(c2), "comparing string with numeric");
        return threeWay(row.text(c1), row.text(c2));
    }
    BISC_ASSERT(!row.isText(c2), "comparing numeric with string");
    return threeWay(row.number(c1), row.number(c2));
}

template <class Acc>
bool
evalWith(const Expr &e, const Acc &row)
{
    switch (e.kind) {
      case Expr::Kind::Cmp:
        return cmpHolds(e.op, compareWithValue(row, e.column, e.value));
      case Expr::Kind::CmpCol:
        return cmpHolds(e.op, compareColumns(row, e.column, e.column2));
      case Expr::Kind::Between:
        return compareWithValue(row, e.column, e.lo) >= 0 &&
               compareWithValue(row, e.column, e.hi) <= 0;
      case Expr::Kind::In:
        return std::any_of(e.set.begin(), e.set.end(),
                           [&](const Value &v) {
                               return compareWithValue(row, e.column,
                                                       v) == 0;
                           });
      case Expr::Kind::Like:
      case Expr::Kind::NotLike:
        BISC_ASSERT(row.isText(e.column), "LIKE on a numeric column");
        return likeMatch(row.text(e.column), e.pattern) ==
               (e.kind == Expr::Kind::Like);
      case Expr::Kind::And:
        return std::all_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return evalWith(*k, row);
                           });
      case Expr::Kind::Or:
        return std::any_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return evalWith(*k, row);
                           });
      case Expr::Kind::Not:
        return !evalWith(*e.kids.at(0), row);
    }
    return false;
}

struct RowAccess
{
    const Row &row;

    bool
    isText(int c) const
    {
        return std::holds_alternative<std::string>(row.at(c));
    }
    std::string_view
    text(int c) const
    {
        return std::get<std::string>(row.at(c));
    }
    double number(int c) const { return numberOf(row.at(c)); }
};

struct SlotAccess
{
    const std::uint8_t *slot;
    const Schema &schema;

    const Column &
    column(int c) const
    {
        return schema.at(static_cast<std::size_t>(c));
    }
    const std::uint8_t *
    at(int c) const
    {
        return slot + schema.offsetOf(static_cast<std::size_t>(c));
    }
    bool
    isText(int c) const
    {
        return column(c).type == Type::String ||
               column(c).type == Type::Date;
    }
    std::string_view
    text(int c) const
    {
        return textOf(reinterpret_cast<const char *>(at(c)),
                      column(c).width);
    }
    double
    number(int c) const
    {
        if (column(c).type == Type::Int64) {
            std::int64_t v;
            std::memcpy(&v, at(c), 8);
            return static_cast<double>(v);
        }
        double v;
        std::memcpy(&v, at(c), 8);
        return v;
    }
};

struct BatchAccess
{
    const RowBatch &batch;
    std::size_t r;

    bool isText(int c) const { return batch.col(c).text(); }
    std::string_view text(int c) const { return batch.text(r, c); }
    double number(int c) const { return batch.num(r, c); }
};

}  // namespace

bool
evalPred(const Expr &e, const Row &row)
{
    return evalWith(e, RowAccess{row});
}

bool
evalPredRaw(const Expr &e, const std::uint8_t *slot, const Schema &s)
{
    return evalWith(e, SlotAccess{slot, s});
}

bool
evalPred(const Expr &e, const RowBatch &batch, std::size_t row)
{
    return evalWith(e, BatchAccess{batch, row});
}

namespace {

constexpr std::size_t kMinKeyLen = 3;

bool
isTextColumn(const Schema &s, int column)
{
    Type t = s.at(static_cast<std::size_t>(column)).type;
    return t == Type::String || t == Type::Date;
}

KeyDerivation
reject(std::string reason)
{
    KeyDerivation k;
    k.reason = std::move(reason);
    return k;
}

KeyDerivation
singleKey(const std::string &key)
{
    if (key.size() < kMinKeyLen)
        return reject("key '" + key +
                      "' too short: expected low selectivity");
    KeyDerivation k;
    if (!k.keys.addKey(key))
        return reject("key '" + key + "' exceeds matcher limits");
    k.offloadable = true;
    return k;
}

/** Longest literal (non-'%') segment of a LIKE pattern. */
std::string
longestLiteral(const std::string &pattern)
{
    std::string best, cur;
    for (char c : pattern) {
        if (c == '%') {
            if (cur.size() > best.size())
                best = cur;
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (cur.size() > best.size())
        best = cur;
    return best;
}

/** Date-range keys: month prefixes if few, else year prefixes. */
KeyDerivation
dateRangeKeys(const std::string &lo, const std::string &hi)
{
    if (lo.size() != 10 || hi.size() != 10 || hi < lo)
        return reject("malformed date range");
    int ylo = std::stoi(lo.substr(0, 4));
    int mlo = std::stoi(lo.substr(5, 2));
    int yhi = std::stoi(hi.substr(0, 4));
    int mhi = std::stoi(hi.substr(5, 2));

    int months = (yhi - ylo) * 12 + (mhi - mlo) + 1;
    KeyDerivation k;
    if (months <= static_cast<int>(pm::kMaxKeys)) {
        int y = ylo, m = mlo;
        for (int i = 0; i < months; ++i) {
            char buf[9];
            std::snprintf(buf, sizeof(buf), "%04d-%02d", y, m);
            if (!k.keys.addKey(buf))
                return reject("month keys exceed matcher limits");
            if (++m > 12) {
                m = 1;
                ++y;
            }
        }
        k.offloadable = true;
        return k;
    }
    int years = yhi - ylo + 1;
    if (years <= static_cast<int>(pm::kMaxKeys)) {
        for (int y = ylo; y <= yhi; ++y) {
            char buf[6];
            std::snprintf(buf, sizeof(buf), "%04d-", y);
            if (!k.keys.addKey(buf))
                return reject("year keys exceed matcher limits");
        }
        k.offloadable = true;
        return k;
    }
    return reject("date range spans " + std::to_string(years) +
                  " years: covers too much data");
}

}  // namespace

KeyDerivation
deriveKeys(const Expr &e, const Schema &schema)
{
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        if (!isTextColumn(schema, e.column))
            return reject("numeric predicate not key-expressible");
        if (e.op == CmpOp::Eq)
            return singleKey(std::get<std::string>(e.value));
        return reject("one-sided range covers too much data");
      }
      case Expr::Kind::CmpCol:
        return reject("column-column compare not key-expressible");
      case Expr::Kind::Between: {
        if (schema.at(static_cast<std::size_t>(e.column)).type !=
            Type::Date)
            return reject("BETWEEN only key-expressible on dates");
        return dateRangeKeys(std::get<std::string>(e.lo),
                             std::get<std::string>(e.hi));
      }
      case Expr::Kind::In: {
        if (!isTextColumn(schema, e.column))
            return reject("numeric IN not key-expressible");
        KeyDerivation k;
        for (const auto &v : e.set) {
            const auto &s = std::get<std::string>(v);
            if (s.size() < kMinKeyLen)
                return reject("IN value too short");
            if (!k.keys.addKey(s))
                return reject("IN set exceeds matcher key limit");
        }
        k.offloadable = !e.set.empty();
        if (!k.offloadable)
            k.reason = "empty IN set";
        return k;
      }
      case Expr::Kind::Like: {
        std::string lit = longestLiteral(e.pattern);
        if (lit.size() > pm::kMaxKeyLength)
            lit = lit.substr(0, pm::kMaxKeyLength);
        return singleKey(lit);
      }
      case Expr::Kind::NotLike:
        return reject("hardware matcher cannot express NOT LIKE");
      case Expr::Kind::Not:
        return reject("negation not key-expressible");
      case Expr::Kind::Or: {
        // All branches must be keyed, within the 3-key budget.
        KeyDerivation merged;
        merged.offloadable = true;
        for (const auto &kid : e.kids) {
            KeyDerivation k = deriveKeys(*kid, schema);
            if (!k.offloadable)
                return reject("OR branch not keyable: " + k.reason);
            for (const auto &key : k.keys.keys()) {
                if (!merged.keys.addKey(key))
                    return reject("OR exceeds matcher key limit");
            }
        }
        return merged;
      }
      case Expr::Kind::And: {
        // A conservative filter may use any one keyable conjunct;
        // pick the one with the fewest keys (most selective guess).
        KeyDerivation best;
        std::string reasons;
        for (const auto &kid : e.kids) {
            KeyDerivation k = deriveKeys(*kid, schema);
            if (!k.offloadable) {
                reasons += (reasons.empty() ? "" : "; ") + k.reason;
                continue;
            }
            if (!best.offloadable ||
                k.keys.size() < best.keys.size()) {
                best = k;
            }
        }
        if (!best.offloadable)
            best.reason = "no keyable conjunct (" + reasons + ")";
        return best;
      }
    }
    return reject("unreachable");
}

}  // namespace bisc::db
