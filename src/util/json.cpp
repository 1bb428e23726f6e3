#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bd {

namespace {

constexpr int kMaxDepth = 16;

}  // namespace

const Json* Json::find(const std::string& name) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(name);
  return it == object_.end() ? nullptr : &it->second;
}

std::string Json::get_string(const std::string& name,
                             const std::string& fallback) const {
  const Json* v = find(name);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

std::int64_t Json::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const Json* v = find(name);
  if (v == nullptr || !v->is_number()) return fallback;
  // Range-check in double before the cast: casting an out-of-range value
  // (e.g. 1e19) is undefined behaviour. int64 spans [-2^63, 2^63).
  const double d = v->as_number();
  if (!(d >= -0x1p63 && d < 0x1p63)) return fallback;
  return static_cast<std::int64_t>(d);
}

double Json::get_double(const std::string& name, double fallback) const {
  const Json* v = find(name);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

bool Json::get_bool(const std::string& name, bool fallback) const {
  const Json* v = find(name);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

/// Recursive-descent parser over the full input string. All failure paths
/// record the byte offset where parsing stopped.
class Parser {
 public:
  Parser(const std::string& text, std::string& error)
      : s_(text), error_(error) {}

  bool parse(Json& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing bytes after value");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' ||
            s_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 16");
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type_ = Json::Type::kString;
        return parse_string(out.string_);
      case 't': return parse_literal("true", out, Json::Type::kBool, true);
      case 'f': return parse_literal("false", out, Json::Type::kBool, false);
      case 'n': return parse_literal("null", out, Json::Type::kNull, false);
      default: return parse_number(out);
    }
  }

  bool parse_literal(const char* word, Json& out, Json::Type type,
                     bool value) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        return fail(std::string("expected '") + word + "'");
      }
    }
    out.type_ = type;
    out.bool_ = value;
    return true;
  }

  bool parse_number(Json& out) {
    // strtod is laxer than JSON (hex floats, "inf", leading zeros), so
    // vet the prefix against the JSON number grammar first.
    std::size_t p = pos_;
    if (p < s_.size() && s_[p] == '-') ++p;
    if (p >= s_.size() || s_[p] < '0' || s_[p] > '9') {
      return fail("expected a value");
    }
    if (s_[p] == '0' && p + 1 < s_.size() && s_[p + 1] >= '0' &&
        s_[p + 1] <= '9') {
      return fail("number has a leading zero");
    }
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start || !std::isfinite(v)) return fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    out.type_ = Json::Type::kNumber;
    out.number_ = v;
    return true;
  }

  bool parse_string(std::string& out) {
    out.clear();
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (!parse_unicode_escape(out)) return false;
          break;
        }
        default:
          pos_ -= 1;
          return fail("unsupported string escape");
      }
    }
    return fail("unterminated string");
  }

  // \uXXXX (already consumed through the 'u'). Decodes the code point to
  // UTF-8; surrogate halves are rejected rather than paired, since the
  // escaper only emits \u00XX for control bytes.
  bool parse_unicode_escape(std::string& out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_ + static_cast<std::size_t>(i)];
      unsigned nibble = 0;
      if (h >= '0' && h <= '9') {
        nibble = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        nibble = static_cast<unsigned>(h - 'a') + 10;
      } else if (h >= 'A' && h <= 'F') {
        nibble = static_cast<unsigned>(h - 'A') + 10;
      } else {
        return fail("non-hex digit in \\u escape");
      }
      code = (code << 4) | nibble;
    }
    pos_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF) {
      return fail("surrogate \\u escape");
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  bool parse_object(Json& out, int depth) {
    out.type_ = Json::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        return fail("expected object member name");
      }
      std::string name;
      if (!parse_string(name)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      out.object_[name] = std::move(value);
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Json& out, int depth) {
    out.type_ = Json::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      out.array_.push_back(std::move(value));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& s_;
  std::string& error_;
  std::size_t pos_ = 0;
};

bool Json::parse(const std::string& text, Json& out, std::string& error) {
  out = Json();
  return Parser(text, error).parse(out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

JsonObject& JsonObject::raw_value(const std::string& key,
                                  const std::string& value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
  body_ += value;
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  // Built piecewise: `"\"" + json_escape(v) + "\""` trips GCC 12's
  // -Wrestrict false positive (PR 105651) under -Werror.
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  quoted += json_escape(value);
  quoted += '"';
  return raw_value(key, quoted);
}

JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

JsonObject& JsonObject::set_int(const std::string& key, std::int64_t value) {
  return raw_value(key, std::to_string(value));
}

std::string exact_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonObject& JsonObject::set_double(const std::string& key, double value) {
  return raw_value(key, std::isfinite(value) ? exact_double(value) : "null");
}

JsonObject& JsonObject::set_fixed(const std::string& key, double value,
                                  int decimals) {
  if (!std::isfinite(value)) return raw_value(key, "null");
  char buf[512];  // room for the widest finite double in fixed notation
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return raw_value(key, buf);
}

JsonObject& JsonObject::set_bool(const std::string& key, bool value) {
  return raw_value(key, value ? "true" : "false");
}

JsonObject& JsonObject::set_raw(const std::string& key,
                                const std::string& json) {
  return raw_value(key, json);
}

JsonArray& JsonArray::push_raw(const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += json;
  return *this;
}

}  // namespace bd
