/**
 * @file
 * Typed, flat row batches: the host operators' working format.
 *
 * A RowBatch stores rows as runs of fixed 8-byte cells (db::Cell),
 * one per column, row after row in one vector. A scan decodes each
 * surviving page slot into cells exactly once; filter, join, computed
 * columns, group-by and sort then work on cells. Nothing is allocated
 * per row beyond the amortized growth of the cell vector and the
 * batch's byte arena.
 *
 * Text cells point at NUL-padded bytes bounded by the column width.
 * Those bytes live in a ByteArena: the slot copies a scan or join
 * decodes from, or the strings fromRows() converts. Arenas are shared
 * and immutable once written, so a batch derived from another (a
 * join's output, a group-by's key cells, a filtered subset) copies
 * cells and keeps its inputs' arenas alive instead of copying text.
 *
 * std::vector<Row> exists only at the public boundary: toRows() and
 * fromRows() convert, and the Row-based operators in db/executor.h
 * are thin adapters over the typed ones.
 */

#ifndef BISCUIT_DB_ROW_BATCH_H_
#define BISCUIT_DB_ROW_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/types.h"

namespace bisc::db {

/** Append-only byte storage with stable addresses. */
class ByteArena
{
  public:
    /** @p n bytes that stay put for the arena's lifetime. */
    std::uint8_t *alloc(std::size_t n);

  private:
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
    std::size_t used_ = 0;
    std::size_t cap_ = 0;
};

/** Column of a batch: its type and, for text, its byte bound. */
struct CellCol
{
    Type type = Type::Int64;
    std::uint32_t width = 8;

    bool
    text() const
    {
        return type == Type::String || type == Type::Date;
    }
};

/** Append valueToString() of @p cell, a value of @p col, to @p out. */
void appendCellString(std::string &out, const CellCol &col, Cell cell);

class RowBatch
{
  public:
    RowBatch() = default;
    explicit RowBatch(std::vector<CellCol> cols)
        : cols_(std::move(cols))
    {}

    /** Empty batch with @p schema's columns. */
    static RowBatch forSchema(const Schema &schema);

    /**
     * Convert Rows. Column types come from the first row; every row
     * must agree with them (the std::get checks of the Row world).
     */
    static RowBatch fromRows(const std::vector<Row> &rows);

    std::vector<Row> toRows() const;

    std::size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }
    std::size_t columnCount() const { return cols_.size(); }
    const std::vector<CellCol> &columns() const { return cols_; }

    const CellCol &
    col(int c) const
    {
        return cols_[static_cast<std::size_t>(c)];
    }

    const Cell *
    row(std::size_t r) const
    {
        return cells_.data() + r * cols_.size();
    }

    // ----- typed accessors (type-checked like std::get) -----

    std::int64_t
    i64(std::size_t r, int c) const
    {
        BISC_ASSERT(col(c).type == Type::Int64, "column ", c,
                    " is not Int64");
        return row(r)[c].i;
    }

    /** Int64 or Double as a double (Int64 converts). */
    double
    num(std::size_t r, int c) const
    {
        const Type t = col(c).type;
        BISC_ASSERT(!col(c).text(), "column ", c, " is not numeric");
        return t == Type::Int64 ? static_cast<double>(row(r)[c].i)
                                : row(r)[c].d;
    }

    std::string_view
    text(std::size_t r, int c) const
    {
        BISC_ASSERT(col(c).text(), "column ", c, " is not text");
        return textOf(row(r)[c].s, col(c).width);
    }

    Value value(std::size_t r, int c) const;

    /** Append valueToString() of cell (@p r, @p c) to @p out. */
    void
    appendString(std::string &out, std::size_t r, int c) const
    {
        appendCellString(out, col(c), row(r)[c]);
    }

    /**
     * compareValues() of cells (@p a, @p c) and (@p b, @p c): text
     * compares bytewise, numbers compare as doubles.
     */
    int compare(std::size_t a, std::size_t b, int c) const;

    // ----- building -----

    /** Append one row; fill its columnCount() cells before the next. */
    Cell *appendRow();

    /** Append the row @p left ++ @p right (columnCount() cells). */
    void
    appendJoined(const Cell *left, std::size_t n_left, const Cell *right)
    {
        Cell *dst = appendRow();
        std::copy_n(left, n_left, dst);
        std::copy_n(right, cols_.size() - n_left, dst + n_left);
    }

    /**
     * Append a slot of @p schema (which must match the columns): the
     * slot bytes are copied into this batch's arena and decoded once.
     */
    void appendSlot(const Schema &schema, const std::uint8_t *slot);

    /** Append row @p r of @p src (same columns) by cell copy. */
    void appendFrom(const RowBatch &src, std::size_t r);

    /**
     * Append rows [@p first, @p first + @p count) of @p src (same
     * columns) as one block copy of their cells.
     */
    void appendRows(const RowBatch &src, std::size_t first,
                    std::size_t count);

    /** Make room for @p rows rows in all, so appends do not regrow. */
    void
    reserve(std::size_t rows)
    {
        cells_.reserve(rows * cols_.size());
    }

    /** Keep @p src's text storage alive for this batch's cells. */
    void share(const RowBatch &src);

    /** Copy @p text into this batch's arena, NUL-terminated. */
    const char *copyText(std::string_view text);

    /** Append a column whose cell in row r is @p cellOf(r). */
    template <class Fn>
    void
    addColumn(CellCol col, const Fn &cellOf)
    {
        const std::size_t w = cols_.size();
        std::vector<Cell> next((w + 1) * rows_);
        for (std::size_t r = 0; r < rows_; ++r) {
            Cell *dst = next.data() + r * (w + 1);
            std::copy_n(row(r), w, dst);
            dst[w] = cellOf(r);
        }
        cells_.swap(next);
        cols_.push_back(col);
    }

    /** Rows @p keep(r) accepts, in order, sharing this batch's text. */
    template <class Keep>
    RowBatch
    where(const Keep &keep) const
    {
        RowBatch out(cols_);
        out.share(*this);
        for (std::size_t r = 0; r < rows_; ++r) {
            if (keep(r))
                out.appendFrom(*this, r);
        }
        return out;
    }

    /** Reorder rows: row i becomes old row @p order[i]. */
    void permute(const std::vector<std::uint32_t> &order);

    /** Keep the first @p n rows. */
    void truncate(std::size_t n);

  private:
    ByteArena &arena();

    std::vector<CellCol> cols_;
    std::vector<Cell> cells_;
    std::size_t rows_ = 0;
    // Every arena a text cell of this batch may point into; own_ is
    // the one this batch appends to (also listed in storage_).
    std::vector<std::shared_ptr<const ByteArena>> storage_;
    std::shared_ptr<ByteArena> own_;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_ROW_BATCH_H_
