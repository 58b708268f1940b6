/**
 * @file
 * MiniDB value and schema types.
 *
 * Rows are stored in fixed-width slots so that (a) rows never straddle
 * pages — making page-granular pattern-matcher filtering exact at the
 * page level — and (b) date and string fields appear as plain text the
 * channel matcher can key on (e.g. "1995-09" hits every September-1995
 * date in a page).
 */

#ifndef BISCUIT_DB_TYPES_H_
#define BISCUIT_DB_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/common.h"
#include "util/log.h"

namespace bisc::db {

enum class Type {
    Int64,   ///< 8-byte little-endian
    Double,  ///< 8-byte IEEE754
    String,  ///< fixed width, NUL padded
    Date,    ///< "YYYY-MM-DD", 10 bytes
};

using Value = std::variant<std::int64_t, double, std::string>;

/**
 * One fixed 8-byte cell of a typed row (db/row_batch.h): an Int64 or
 * Double value, or a pointer to NUL-padded text whose column width
 * bounds its length. Which member is live is the column's type.
 */
union Cell
{
    std::int64_t i;
    double d;
    const char *s;

    static Cell
    fromInt(std::int64_t v)
    {
        Cell c;
        c.i = v;
        return c;
    }

    static Cell
    fromDouble(double v)
    {
        Cell c;
        c.d = v;
        return c;
    }
};
static_assert(sizeof(Cell) == 8, "cells are 8 bytes");

/** Fixed-width text: the bytes before the first NUL, at most @p width. */
inline std::string_view
textOf(const char *p, std::size_t width)
{
    const void *nul = std::memchr(p, 0, width);
    return {p, nul == nullptr
                   ? width
                   : static_cast<std::size_t>(
                         static_cast<const char *>(nul) - p)};
}

/** Build a zero-padded date string. */
std::string makeDate(int year, int month, int day);

/**
 * Days since 1970-01-01 for a "YYYY-MM-DD" date (civil calendar).
 * The separators are not checked. Eight digits parse in place; any
 * other 10-byte text takes std::stoi of each field (leading digits,
 * sign, whitespace; throws when a field has none).
 */
std::int64_t dateToDays(std::string_view date);

/** Bytes of a formatted date. */
constexpr std::size_t kDateWidth = 10;

/**
 * Inverse of dateToDays, written into @p out: the first kDateWidth
 * bytes of "%04d-%02d-%02d", so years outside 0..9999 truncate.
 */
void formatDate(std::int64_t days, char *out);

/** formatDate() as a string. */
std::string daysToDate(std::int64_t days);

/** Add @p days to a date string. */
std::string dateAddDays(const std::string &date, std::int64_t days);

/** Three-way comparison; panics on mixed incomparable types. */
int compareValues(const Value &a, const Value &b);

/** Readable form for debugging and result dumps. */
std::string valueToString(const Value &v);

/**
 * Append the valueToString() form of an Int64 or Double to @p out
 * ("%.2f" for doubles) without a temporary string.
 */
void appendNumberString(std::string &out, std::int64_t v);
void appendNumberString(std::string &out, double v);

struct Column
{
    std::string name;
    Type type = Type::Int64;
    Bytes width = 8;  ///< storage width (8 for numerics)
};

/** Fixed-width column helper. */
inline Column
col(std::string name, Type type, Bytes width = 0)
{
    Column c;
    c.name = std::move(name);
    c.type = type;
    switch (type) {
      case Type::Int64:
      case Type::Double:
        c.width = 8;
        break;
      case Type::Date:
        c.width = 10;
        break;
      case Type::String:
        BISC_ASSERT(width > 0, "string column '", c.name,
                    "' needs a width");
        c.width = width;
        break;
    }
    return c;
}

class Schema
{
  public:
    Schema() = default;
    explicit Schema(std::vector<Column> columns);

    const std::vector<Column> &columns() const { return columns_; }
    std::size_t size() const { return columns_.size(); }
    const Column &at(std::size_t i) const { return columns_.at(i); }

    /** Column index by name; panics when absent. */
    int indexOf(const std::string &name) const;

    /** Byte offset of column @p i within a row slot. */
    Bytes offsetOf(std::size_t i) const { return offsets_.at(i); }

    /** Total fixed row width. */
    Bytes rowWidth() const { return row_width_; }

    /**
     * Encode @p row into @p out (rowWidth() bytes): zero the slot,
     * then SlotWriter::values().
     */
    void encodeRow(const std::vector<Value> &row,
                   std::uint8_t *out) const;

    /**
     * Decode column @p i of a row slot. A text cell points into
     * @p slot, so it stays valid only as long as those bytes do.
     */
    Cell decodeCell(const std::uint8_t *slot, std::size_t i) const;

    /** decodeCell() of every column into size() cells. */
    void decodeCells(const std::uint8_t *slot, Cell *out) const;

    /** Decode a row slot (decodeCell() materialized as Values). */
    std::vector<Value> decodeRow(const std::uint8_t *slot) const;

  private:
    std::vector<Column> columns_;
    std::vector<Bytes> offsets_;
    Bytes row_width_ = 0;
};

using Row = std::vector<Value>;

/**
 * Typed writes into one zeroed row slot of @p schema: the only way
 * rows are encoded. Each setter checks the column's type and writes
 * its bytes in place; nothing is allocated.
 */
class SlotWriter
{
  public:
    SlotWriter(const Schema &schema, std::uint8_t *slot)
        : schema_(schema), slot_(slot)
    {}

    void
    i64(std::size_t c, std::int64_t v)
    {
        std::memcpy(at(c, Type::Int64), &v, 8);
    }

    void
    f64(std::size_t c, double v)
    {
        std::memcpy(at(c, Type::Double), &v, 8);
    }

    /**
     * Text of a String or Date column, truncated at the column width;
     * shorter text leaves the slot's zero padding.
     */
    void
    text(std::size_t c, std::string_view v)
    {
        const Column &col = schema_.at(c);
        BISC_ASSERT(col.type == Type::String || col.type == Type::Date,
                    "column '", col.name, "' is not text");
        std::memcpy(slot_ + schema_.offsetOf(c), v.data(),
                    std::min<std::size_t>(v.size(), col.width));
    }

    /** formatDate(@p days) into a Date column. */
    void
    date(std::size_t c, std::int64_t days)
    {
        formatDate(days, reinterpret_cast<char *>(at(c, Type::Date)));
    }

    /** Every column of @p row, by its Value alternative. */
    void values(const Row &row);

  private:
    std::uint8_t *
    at(std::size_t c, Type t)
    {
        BISC_ASSERT(schema_.at(c).type == t, "column '",
                    schema_.at(c).name, "' has another type");
        return slot_ + schema_.offsetOf(c);
    }

    const Schema &schema_;
    std::uint8_t *slot_;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_TYPES_H_
