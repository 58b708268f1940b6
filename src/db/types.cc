#include "db/types.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace bisc::db {

std::string
makeDate(int year, int month, int day)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
    return std::string(buf, 10);
}

namespace {

/** Howard Hinnant's civil-days algorithm. */
std::int64_t
daysFromCivil(std::int64_t y, unsigned m, unsigned d)
{
    y -= m <= 2;
    const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void
civilFromDays(std::int64_t z, std::int64_t &y, unsigned &m, unsigned &d)
{
    z += 719468;
    const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    y = static_cast<std::int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    d = doy - (153 * mp + 2) / 5 + 1;
    m = mp + (mp < 10 ? 3 : -9);
    y += (m <= 2);
}

/** Value of the two digits at @p p, or -1 when either is not one. */
int
twoDigits(const char *p)
{
    const unsigned a = static_cast<unsigned char>(p[0]) - '0';
    const unsigned b = static_cast<unsigned char>(p[1]) - '0';
    return a < 10 && b < 10 ? static_cast<int>(a * 10 + b) : -1;
}

/** "00" through "99", two characters each. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[2 * i] = static_cast<char>('0' + i / 10);
        t[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return t;
}();

/** @p v (below 100) as two decimal digits at @p out. */
void
putTwoDigits(char *out, unsigned v)
{
    std::memcpy(out, kDigitPairs.data() + 2 * v, 2);
}

}  // namespace

std::int64_t
dateToDays(std::string_view date)
{
    BISC_ASSERT(date.size() == kDateWidth, "bad date: '", date, "'");
    const char *p = date.data();
    const int yh = twoDigits(p), yl = twoDigits(p + 2);
    const int m = twoDigits(p + 5), d = twoDigits(p + 8);
    if (yh >= 0 && yl >= 0 && m >= 0 && d >= 0) {
        return daysFromCivil(yh * 100 + yl, static_cast<unsigned>(m),
                             static_cast<unsigned>(d));
    }
    const auto field = [&](std::size_t at, std::size_t n) {
        return std::stoi(std::string(date.substr(at, n)));
    };
    const int year = field(0, 4);
    const int month = field(5, 2);
    const int day = field(8, 2);
    return daysFromCivil(year, static_cast<unsigned>(month),
                         static_cast<unsigned>(day));
}

void
formatDate(std::int64_t days, char *out)
{
    std::int64_t y;
    unsigned m, d;
    civilFromDays(days, y, m, d);
    if (y < 0 || y > 9999) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                      static_cast<int>(y), static_cast<int>(m),
                      static_cast<int>(d));
        std::memcpy(out, buf, kDateWidth);
        return;
    }
    putTwoDigits(out, static_cast<unsigned>(y) / 100);
    putTwoDigits(out + 2, static_cast<unsigned>(y) % 100);
    out[4] = '-';
    putTwoDigits(out + 5, m);
    out[7] = '-';
    putTwoDigits(out + 8, d);
}

std::string
daysToDate(std::int64_t days)
{
    std::string out(kDateWidth, '\0');
    formatDate(days, out.data());
    return out;
}

std::string
dateAddDays(const std::string &date, std::int64_t days)
{
    return daysToDate(dateToDays(date) + days);
}

int
compareValues(const Value &a, const Value &b)
{
    if (std::holds_alternative<std::string>(a)) {
        BISC_ASSERT(std::holds_alternative<std::string>(b),
                    "comparing string with numeric");
        const auto &x = std::get<std::string>(a);
        const auto &y = std::get<std::string>(b);
        return x < y ? -1 : (x == y ? 0 : 1);
    }
    double x = std::holds_alternative<std::int64_t>(a)
                   ? static_cast<double>(std::get<std::int64_t>(a))
                   : std::get<double>(a);
    BISC_ASSERT(!std::holds_alternative<std::string>(b),
                "comparing numeric with string");
    double y = std::holds_alternative<std::int64_t>(b)
                   ? static_cast<double>(std::get<std::int64_t>(b))
                   : std::get<double>(b);
    return x < y ? -1 : (x == y ? 0 : 1);
}

void
appendNumberString(std::string &out, std::int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendNumberString(std::string &out, double v)
{
    char buf[32];
    int n = std::snprintf(buf, sizeof(buf), "%.2f", v);
    out.append(buf, static_cast<std::size_t>(n));
}

std::string
valueToString(const Value &v)
{
    if (const auto *s = std::get_if<std::string>(&v))
        return *s;
    std::string out;
    if (const auto *i = std::get_if<std::int64_t>(&v))
        appendNumberString(out, *i);
    else
        appendNumberString(out, std::get<double>(v));
    return out;
}

Schema::Schema(std::vector<Column> columns)
    : columns_(std::move(columns))
{
    offsets_.reserve(columns_.size());
    for (const auto &c : columns_) {
        offsets_.push_back(row_width_);
        row_width_ += c.width;
    }
    BISC_ASSERT(row_width_ > 0, "empty schema");
}

int
Schema::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name == name)
            return static_cast<int>(i);
    }
    BISC_PANIC("no such column: ", name);
}

void
Schema::encodeRow(const std::vector<Value> &row, std::uint8_t *out) const
{
    std::memset(out, 0, row_width_);
    SlotWriter(*this, out).values(row);
}

void
SlotWriter::values(const Row &row)
{
    BISC_ASSERT(row.size() == schema_.size(), "row arity mismatch");
    for (std::size_t i = 0; i < row.size(); ++i) {
        switch (schema_.at(i).type) {
          case Type::Int64:
            i64(i, std::get<std::int64_t>(row[i]));
            break;
          case Type::Double:
            f64(i, std::get<double>(row[i]));
            break;
          case Type::String:
          case Type::Date:
            text(i, std::get<std::string>(row[i]));
            break;
        }
    }
}

Cell
Schema::decodeCell(const std::uint8_t *slot, std::size_t i) const
{
    const std::uint8_t *src = slot + offsets_[i];
    Cell cell{};
    switch (columns_[i].type) {
      case Type::Int64: {
        std::int64_t v;
        std::memcpy(&v, src, 8);
        cell.i = v;
        break;
      }
      case Type::Double: {
        double v;
        std::memcpy(&v, src, 8);
        cell.d = v;
        break;
      }
      case Type::String:
      case Type::Date:
        cell.s = reinterpret_cast<const char *>(src);
        break;
    }
    return cell;
}

void
Schema::decodeCells(const std::uint8_t *slot, Cell *out) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i)
        out[i] = decodeCell(slot, i);
}

std::vector<Value>
Schema::decodeRow(const std::uint8_t *slot) const
{
    std::vector<Value> row;
    row.reserve(columns_.size());
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        const Cell cell = decodeCell(slot, i);
        switch (columns_[i].type) {
          case Type::Int64:
            row.emplace_back(cell.i);
            break;
          case Type::Double:
            row.emplace_back(cell.d);
            break;
          case Type::String:
          case Type::Date:
            row.emplace_back(std::in_place_type<std::string>,
                             textOf(cell.s, columns_[i].width));
            break;
        }
    }
    return row;
}

}  // namespace bisc::db
