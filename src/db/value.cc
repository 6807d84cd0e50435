#include "db/value.h"

#include "common/hash.h"
#include "common/string_util.h"

namespace cqms::db {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return "INT";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
    case ValueType::kBool: return "BOOL";
  }
  return "NULL";
}

Value Value::FromLiteral(const sql::Literal& lit) {
  switch (lit.kind) {
    case sql::Literal::Kind::kNull:
      return Null();
    case sql::Literal::Kind::kInteger:
      return Int(lit.int_value);
    case sql::Literal::Kind::kFloat:
      return Double(lit.double_value);
    case sql::Literal::Kind::kString:
      return String(lit.string_value);
    case sql::Literal::Kind::kBool:
      return Bool(lit.bool_value);
  }
  return Null();
}

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  // Numeric cross-type comparison.
  if (is_numeric() && other.is_numeric()) {
    if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    double a = AsDouble();
    double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kString:
      return string_.compare(other.string_) < 0   ? -1
             : string_.compare(other.string_) > 0 ? 1
                                                  : 0;
    case ValueType::kBool:
      return bool_ == other.bool_ ? 0 : (bool_ ? 1 : -1);
    default:
      return 0;
  }
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x6e756c6cULL;
    case ValueType::kInt:
      return HashMix(static_cast<uint64_t>(int_));
    case ValueType::kDouble: {
      // Hash ints and integral doubles identically so cross-type
      // grouping matches Compare()==0. Only a double inside int64's range
      // converts; inf, NaN and larger magnitudes hash by their bits.
      double d = double_;
      if (d >= -0x1p63 && d < 0x1p63) {
        int64_t as_int = static_cast<int64_t>(d);
        if (static_cast<double>(as_int) == d) {
          return HashMix(static_cast<uint64_t>(as_int));
        }
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashMix(bits);
    }
    case ValueType::kString:
      return Fnv1a64(string_);
    case ValueType::kBool:
      return bool_ ? 0xb001ULL : 0xb000ULL;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return std::to_string(int_);
    case ValueType::kDouble: return FormatDouble(double_);
    case ValueType::kString: return string_;
    case ValueType::kBool: return bool_ ? "TRUE" : "FALSE";
  }
  return "NULL";
}

std::string Value::ToSqlLiteral() const {
  if (type_ == ValueType::kString) return "'" + SqlEscape(string_) + "'";
  return ToString();
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

std::string RowToString(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out;
}

}  // namespace cqms::db
