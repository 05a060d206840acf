// Minimal JSON value, parser, and writer for the wire protocol.
//
// The repo already *writes* JSON in several places (QueryStats::ToJson,
// bench JsonReport, Chrome traces); the server is the first component that
// must *parse* untrusted JSON off a socket, so this is a small, strict
// recursive-descent parser: UTF-8 pass-through, \uXXXX escapes (surrogate
// pairs included), doubles via strtod so that %.17g-encoded values
// round-trip bit-for-bit, a nesting-depth cap against stack abuse, and no
// trailing garbage. Numbers are doubles — every id the protocol carries
// (vertex, trajectory, request) is well inside the 2^53 exact range.

#ifndef UOTS_SERVER_JSON_H_
#define UOTS_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace uots {

/// \brief A parsed JSON document node (tree-owning, movable).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Int(int64_t v) { return Number(static_cast<double>(v)); }
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed getters with fallbacks for optional protocol fields.
  double NumberOr(double fallback) const {
    return is_number() ? number_ : fallback;
  }
  bool BoolOr(bool fallback) const { return is_bool() ? bool_ : fallback; }
  std::string StringOr(std::string fallback) const {
    return is_string() ? string_ : std::move(fallback);
  }

  /// Builders (no-ops unless the value has the matching type).
  JsonValue& Append(JsonValue v);                  // arrays
  JsonValue& Set(std::string key, JsonValue v);    // objects

  /// Compact serialization. Doubles use JsonAppendDouble, so
  /// parse(serialize(x)) reproduces every double bit-for-bit.
  std::string Serialize() const;
  void SerializeTo(std::string* out) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses a complete JSON document (object, array, or scalar). Rejects
/// trailing non-whitespace and nesting deeper than 64 levels.
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `s` JSON-escaped (without quotes) to `out`.
void JsonEscape(std::string_view s, std::string* out);

/// Appends a double formatted for exact round-trip to `out`: the shortest
/// of %.15g, %.16g, %.17g that reads back exactly, written with
/// std::to_chars (independent of the C locale); NaN and +-inf as null.
void JsonAppendDouble(double v, std::string* out);

}  // namespace uots

#endif  // UOTS_SERVER_JSON_H_
