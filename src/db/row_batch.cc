#include "db/row_batch.h"

#include <algorithm>

namespace bisc::db {

std::uint8_t *
ByteArena::alloc(std::size_t n)
{
    if (blocks_.empty() || used_ + n > cap_) {
        // Blocks double from 4 KiB to 1 MiB, so a nation-sized batch
        // stays small and a lineitem-sized one makes few blocks.
        std::size_t grow =
            blocks_.empty() ? 4096 : std::min<std::size_t>(cap_ * 2, 1 << 20);
        cap_ = std::max(grow, n);
        blocks_.push_back(std::make_unique<std::uint8_t[]>(cap_));
        used_ = 0;
    }
    std::uint8_t *p = blocks_.back().get() + used_;
    used_ += n;
    return p;
}

void
appendCellString(std::string &out, const CellCol &col, Cell cell)
{
    switch (col.type) {
      case Type::Int64:
        appendNumberString(out, cell.i);
        return;
      case Type::Double:
        appendNumberString(out, cell.d);
        return;
      case Type::String:
      case Type::Date:
        out += textOf(cell.s, col.width);
        return;
    }
}

RowBatch
RowBatch::forSchema(const Schema &schema)
{
    std::vector<CellCol> cols;
    cols.reserve(schema.size());
    for (const Column &c : schema.columns())
        cols.push_back({c.type, static_cast<std::uint32_t>(c.width)});
    return RowBatch(std::move(cols));
}

RowBatch
RowBatch::fromRows(const std::vector<Row> &rows)
{
    if (rows.empty())
        return RowBatch();
    std::vector<CellCol> cols;
    for (const Value &v : rows[0]) {
        if (std::holds_alternative<std::int64_t>(v))
            cols.push_back({Type::Int64, 8});
        else if (std::holds_alternative<double>(v))
            cols.push_back({Type::Double, 8});
        else
            cols.push_back({Type::String, 0});
    }
    // A text column's width bounds its longest value; copies are
    // NUL-terminated, so shorter ones end at their NUL.
    for (const Row &row : rows) {
        BISC_ASSERT(row.size() == cols.size(), "row arity mismatch");
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (const auto *s = std::get_if<std::string>(&row[c])) {
                BISC_ASSERT(s->find('\0') == std::string::npos,
                            "text values cannot hold NUL");
                cols[c].width = std::max(
                    cols[c].width, static_cast<std::uint32_t>(s->size()));
            }
        }
    }
    RowBatch out(cols);
    out.cells_.reserve(rows.size() * cols.size());
    for (const Row &row : rows) {
        Cell *dst = out.appendRow();
        for (std::size_t c = 0; c < cols.size(); ++c) {
            switch (cols[c].type) {
              case Type::Int64:
                dst[c].i = std::get<std::int64_t>(row[c]);
                break;
              case Type::Double:
                dst[c].d = std::get<double>(row[c]);
                break;
              case Type::String:
              case Type::Date:
                dst[c].s = out.copyText(std::get<std::string>(row[c]));
                break;
            }
        }
    }
    return out;
}

std::vector<Row>
RowBatch::toRows() const
{
    std::vector<Row> out;
    out.reserve(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        Row row;
        row.reserve(cols_.size());
        for (std::size_t c = 0; c < cols_.size(); ++c)
            row.push_back(value(r, static_cast<int>(c)));
        out.push_back(std::move(row));
    }
    return out;
}

Value
RowBatch::value(std::size_t r, int c) const
{
    switch (col(c).type) {
      case Type::Int64:
        return row(r)[c].i;
      case Type::Double:
        return row(r)[c].d;
      case Type::String:
      case Type::Date:
        break;
    }
    return std::string(text(r, c));
}

int
RowBatch::compare(std::size_t a, std::size_t b, int c) const
{
    if (col(c).text()) {
        std::string_view x = text(a, c);
        std::string_view y = text(b, c);
        return x < y ? -1 : (x == y ? 0 : 1);
    }
    double x = num(a, c);
    double y = num(b, c);
    return x < y ? -1 : (x == y ? 0 : 1);
}

Cell *
RowBatch::appendRow()
{
    const std::size_t at = cells_.size();
    cells_.resize(at + cols_.size());
    ++rows_;
    return cells_.data() + at;
}

ByteArena &
RowBatch::arena()
{
    if (!own_) {
        own_ = std::make_shared<ByteArena>();
        storage_.push_back(own_);
    }
    return *own_;
}

void
RowBatch::appendSlot(const Schema &schema, const std::uint8_t *slot)
{
    std::uint8_t *copy = arena().alloc(schema.rowWidth());
    std::copy_n(slot, schema.rowWidth(), copy);
    schema.decodeCells(copy, appendRow());
}

void
RowBatch::appendFrom(const RowBatch &src, std::size_t r)
{
    Cell *dst = appendRow();
    std::copy_n(src.row(r), cols_.size(), dst);
}

void
RowBatch::appendRows(const RowBatch &src, std::size_t first,
                     std::size_t count)
{
    BISC_ASSERT(&src != this && first + count <= src.rows_,
                "bad source row range");
    const std::size_t w = cols_.size();
    cells_.insert(cells_.end(), src.cells_.begin() + first * w,
                  src.cells_.begin() + (first + count) * w);
    rows_ += count;
}

void
RowBatch::share(const RowBatch &src)
{
    for (const auto &a : src.storage_) {
        if (std::find(storage_.begin(), storage_.end(), a) ==
            storage_.end())
            storage_.push_back(a);
    }
}

const char *
RowBatch::copyText(std::string_view text)
{
    auto *p = reinterpret_cast<char *>(arena().alloc(text.size() + 1));
    std::copy(text.begin(), text.end(), p);
    p[text.size()] = '\0';
    return p;
}

void
RowBatch::permute(const std::vector<std::uint32_t> &order)
{
    BISC_ASSERT(order.size() == rows_, "permutation size mismatch");
    const std::size_t w = cols_.size();
    std::vector<Cell> next(cells_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        std::copy_n(row(order[i]), w, next.data() + i * w);
    cells_.swap(next);
}

void
RowBatch::truncate(std::size_t n)
{
    if (n >= rows_)
        return;
    rows_ = n;
    cells_.resize(n * cols_.size());
}

}  // namespace bisc::db
