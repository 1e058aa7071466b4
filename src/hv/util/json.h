// Minimal JSON value type, parser and serializer: the one encoding of
// certificate files, distributed-protocol frames, journal lines and the
// service's event log.
//
// Deliberately self-contained: the auditor's trusted computing base is
// hv/util arithmetic plus this file, so no external JSON library is pulled
// in. The subset is exactly what those formats need — objects, arrays,
// strings, booleans, null, 64-bit integers and doubles. All big numbers
// (BigInt, Rational) are transported as strings, never as JSON numbers, so
// nothing is ever rounded.
#ifndef HV_UTIL_JSON_H
#define HV_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hv {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs: serialization is deterministic and
  /// mirrors emission order. Lookups are linear (objects are small).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}                    // NOLINT
  Json(std::int64_t value) : kind_(Kind::kInt), int_(value) {}              // NOLINT
  Json(int value) : kind_(Kind::kInt), int_(value) {}                       // NOLINT
  Json(double value) : kind_(Kind::kDouble), double_(value) {}              // NOLINT
  Json(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}  // NOLINT
  Json(const char* value) : kind_(Kind::kString), string_(value) {}         // NOLINT
  Json(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}      // NOLINT
  Json(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}   // NOLINT

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  /// Typed accessors; throw hv::InvalidArgument on a kind mismatch (a
  /// malformed certificate must fail cleanly, never crash).
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  // accepts kInt too
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access. find() returns nullptr when `this` is not an
  /// object or the key is absent; at() throws naming the missing key.
  const Json* find(std::string_view key) const noexcept;
  const Json& at(std::string_view key) const;
  /// Appends a field (no duplicate-key check; emission never duplicates).
  void set(std::string key, Json value);

  /// Compact single-line rendering.
  std::string to_string() const;
  /// Two-space-indented rendering (what certificate files use).
  std::string to_pretty_string() const;

  /// Strict parser; throws hv::InvalidArgument with a byte offset on any
  /// syntax error, trailing garbage, or nesting deeper than an internal
  /// limit (guarding the recursive parser's stack against hostile input).
  static Json parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace hv

#endif  // HV_UTIL_JSON_H
