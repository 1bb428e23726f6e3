// The repo's one JSON codec: a strict value parser plus object and array
// writers. Every JSON surface goes through it — serve requests and
// replies, run-journal and shard-ledger lines (robust/journal.h), the obs
// metrics and trace exporters, and the bench emitters.
//
// The parser is strict (complete values only, no trailing bytes, bounded
// nesting depth) and never throws on malformed input — Json::parse()
// returns false with a byte-offset error message, so untrusted client
// input becomes a structured `bad_json` response and a torn journal line
// becomes a recoverable parse failure, never a dead process.
//
// The writers escape `"`, `\`, \n, \r and \t by name and every other
// control byte as \u00XX, and write doubles with 17 significant digits
// ("%.17g", a bit-exact strtod round-trip), or `null` when non-finite:
// JSON has no NaN/Inf literals, and a diverged metric must not make the
// line unparseable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bd {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  /// Empty for non-strings.
  const std::string& as_string() const { return string_; }
  const std::map<std::string, Json>& members() const { return object_; }
  const std::vector<Json>& items() const { return array_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& name) const;

  /// Convenience accessors over object members, with fallbacks for absent
  /// members. A present member of the wrong type is NOT silently coerced:
  /// callers that must distinguish use find() and check the type.
  /// get_int also falls back when the number does not fit in int64.
  std::string get_string(const std::string& name,
                         const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Parses exactly one JSON value spanning all of `text` (surrounding
  /// whitespace allowed). On failure returns false and sets `error` to a
  /// reason with the byte offset. Nesting is limited to depth 16.
  static bool parse(const std::string& text, Json& out, std::string& error);

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::map<std::string, Json> object_;
  std::vector<Json> array_;
};

/// `s` escaped for embedding inside a JSON string literal (no quotes).
std::string json_escape(const std::string& s);

/// `v` with 17 significant digits ("%.17g"), which round-trips bit-exactly
/// through strtod; non-finite values print as "nan"/"inf". Journal fields
/// and cache signatures store doubles in this form.
std::string exact_double(double v);

/// Builds one JSON object string field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);
  JsonObject& set_int(const std::string& key, std::int64_t value);
  /// exact_double(value), or null when non-finite.
  JsonObject& set_double(const std::string& key, double value);
  /// `value` with `decimals` fixed decimals, or null when non-finite.
  JsonObject& set_fixed(const std::string& key, double value, int decimals);
  JsonObject& set_bool(const std::string& key, bool value);
  /// Inserts `json` verbatim (a pre-serialized object/array/value).
  JsonObject& set_raw(const std::string& key, const std::string& json);

  std::string str() const& { return "{" + body_ + "}"; }
  /// Renders in place without copying the body (for multi-MB documents).
  std::string str() && {
    body_.insert(body_.begin(), '{');
    body_ += '}';
    return std::move(body_);
  }

 private:
  JsonObject& raw_value(const std::string& key, const std::string& value);
  std::string body_;
};

/// Builds one JSON array string from pre-serialized values, in order.
class JsonArray {
 public:
  JsonArray& push_raw(const std::string& json);

  std::string str() const& { return "[" + body_ + "]"; }
  /// Renders in place without copying the body (for multi-MB documents).
  std::string str() && {
    body_.insert(body_.begin(), '[');
    body_ += ']';
    return std::move(body_);
  }

 private:
  std::string body_;
};

}  // namespace bd
