/**
 * @file
 * Predicate expressions and their pattern-matcher key derivation.
 *
 * The planner decides offloadability by walking the WHERE-clause AST:
 * equality and IN on text/date columns become literal keys; date
 * ranges become year/month *prefix* keys (a "1995-09" key hits every
 * September-1995 date in the fixed-width storage); LIKE contributes
 * its longest literal segment. NOT LIKE and numeric predicates are
 * not expressible on the matcher IP — exactly the limitations the
 * paper reports for Q13/Q19/Q22-class queries.
 */

#ifndef BISCUIT_DB_EXPR_H_
#define BISCUIT_DB_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/row_batch.h"
#include "db/types.h"
#include "pm/pattern_matcher.h"

namespace bisc::db {

enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr
{
    enum class Kind {
        Cmp,      ///< column <op> constant
        CmpCol,   ///< column <op> column
        Between,  ///< lo <= column <= hi
        In,       ///< column in (set)
        Like,     ///< column LIKE pattern ('%' wildcards)
        NotLike,  ///< column NOT LIKE pattern
        And,
        Or,
        Not,
    };

    Kind kind = Kind::Cmp;
    int column = -1;           ///< Cmp/CmpCol/Between/In/Like/NotLike
    int column2 = -1;          ///< CmpCol right-hand side
    CmpOp op = CmpOp::Eq;      ///< Cmp/CmpCol
    Value value;               ///< Cmp
    Value lo, hi;              ///< Between (inclusive)
    std::vector<Value> set;    ///< In
    std::string pattern;       ///< Like/NotLike
    std::vector<ExprPtr> kids; ///< And/Or/Not
};

// ----- Builders (column indexes resolved against a schema) -----

ExprPtr cmp(const Schema &s, const std::string &col, CmpOp op,
            Value v);
ExprPtr cmpCols(const Schema &s, const std::string &lhs, CmpOp op,
                const std::string &rhs);
ExprPtr between(const Schema &s, const std::string &col, Value lo,
                Value hi);
ExprPtr inSet(const Schema &s, const std::string &col,
              std::vector<Value> set);
ExprPtr like(const Schema &s, const std::string &col,
             std::string pattern);
ExprPtr notLike(const Schema &s, const std::string &col,
                std::string pattern);
ExprPtr exprAnd(std::vector<ExprPtr> kids);
ExprPtr exprOr(std::vector<ExprPtr> kids);
ExprPtr exprNot(ExprPtr kid);

/** Evaluate a predicate against a row. */
bool evalPred(const Expr &e, const Row &row);

/** Evaluate a predicate against row @p row of a typed batch. */
bool evalPred(const Expr &e, const RowBatch &batch, std::size_t row);

/**
 * Evaluate a predicate directly against a packed row slot (the
 * layout produced by Schema::encodeRow), decoding only the columns
 * the predicate touches and allocating nothing. Equivalent to
 * `evalPred(e, schema.decodeRow(slot))`; the scan paths use it so
 * rows that fail the filter are never materialized.
 */
bool evalPredRaw(const Expr &e, const std::uint8_t *slot,
                 const Schema &schema);

/** SQL LIKE with '%' wildcards (no '_' support). */
bool likeMatch(std::string_view text, const std::string &pattern);

/** Outcome of trying to express a predicate as matcher keys. */
struct KeyDerivation
{
    bool offloadable = false;
    pm::KeySet keys;
    std::string reason;  ///< why not, when !offloadable
};

/**
 * Derive pattern-matcher keys for @p e over @p schema. The key set is
 * a *conservative page filter*: every page containing rows satisfying
 * the predicate must contain at least one key, but keyed pages may
 * contain no satisfying row (the host re-evaluates exactly).
 */
KeyDerivation deriveKeys(const Expr &e, const Schema &schema);

}  // namespace bisc::db

#endif  // BISCUIT_DB_EXPR_H_
