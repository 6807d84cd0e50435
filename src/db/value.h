#ifndef CQMS_DB_VALUE_H_
#define CQMS_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/shared_value.h"
#include "sql/ast.h"

namespace cqms::db {

/// Column data types supported by the engine.
enum class ValueType { kNull, kInt, kDouble, kString, kBool };

/// Returns "INT", "DOUBLE", "STRING", "BOOL" or "NULL".
const char* ValueTypeToString(ValueType t);

/// A dynamically typed SQL value with three-valued-logic-aware
/// comparisons: a type tag, one 8-byte int, double or bool, and a
/// string held as one immutable, counted copy (SharedValue) that every
/// copy of the value reads, so copying a value copies 24 bytes and
/// never a string. The string handle is null for the empty string and
/// for every other type. Each accessor reads its own type and returns
/// the zero of its result for any other.
class Value {
 public:
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = ValueType::kInt;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = ValueType::kDouble;
    out.double_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = ValueType::kString;
    if (!v.empty()) out.string_ = SharedValue<std::string>(std::move(v));
    return out;
  }
  static Value Bool(bool v) {
    Value out;
    out.type_ = ValueType::kBool;
    out.bool_ = v;
    return out;
  }

  /// Converts a parsed SQL literal.
  static Value FromLiteral(const sql::Literal& lit);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }

  /// 0 unless an int.
  int64_t AsInt() const { return type_ == ValueType::kInt ? int_ : 0; }
  /// False unless a bool.
  bool AsBool() const { return type_ == ValueType::kBool && bool_; }
  /// "" unless a string. Copies of a value read one copy of the string.
  const std::string& AsString() const {
    const std::string* s = string_.get();
    return s != nullptr ? *s : EmptyString();
  }

  /// Numeric view: ints widen to double; 0.0 unless numeric.
  double AsDouble() const {
    return type_ == ValueType::kInt      ? static_cast<double>(int_)
           : type_ == ValueType::kDouble ? double_
                                         : 0.0;
  }

  /// Three-way comparison for ORDER BY and comparison operators.
  /// NULLs sort first; cross numeric types compare by value; comparing a
  /// string with a number orders by type id (stable, engine-defined).
  /// Returns -1, 0 or 1.
  int Compare(const Value& other) const;

  /// SQL equality (NULL-insensitive; used for grouping/DISTINCT where
  /// NULLs compare equal to each other).
  bool GroupEquals(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Compare()==0 for grouping.
  uint64_t Hash() const;

  /// Display rendering (NULL prints as "NULL"; strings unquoted).
  std::string ToString() const;

  /// SQL-literal rendering (strings quoted/escaped) for re-parseable text.
  std::string ToSqlLiteral() const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  static const std::string& EmptyString();

  ValueType type_ = ValueType::kNull;
  union {
    int64_t int_ = 0;
    double double_;
    bool bool_;
  };
  SharedValue<std::string> string_;
};

/// A tuple of values.
using Row = std::vector<Value>;

/// Hash of a full row (order-sensitive); used by DISTINCT/UNION/grouping.
uint64_t HashRow(const Row& row);

/// Renders a row as comma-separated values.
std::string RowToString(const Row& row);

}  // namespace cqms::db

#endif  // CQMS_DB_VALUE_H_
