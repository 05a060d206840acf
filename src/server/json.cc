#include "server/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace uots {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue& JsonValue::Append(JsonValue v) {
  if (type_ == Type::kArray) array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::Set(std::string key, JsonValue v) {
  if (type_ == Type::kObject) object_.emplace_back(std::move(key), std::move(v));
  return *this;
}

void JsonEscape(std::string_view s, std::string* out) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
}

void JsonAppendDouble(double v, std::string* out) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; clamp to null
    *out += "null";
    return;
  }
  char buf[32];  // "-1.7976931348623157e+308" is the longest form (24)
  char* end;
  if (std::abs(v) < 1e15 && v == std::trunc(v) &&
      !(v == 0 && std::signbit(v))) {
    // Integral and under 1e15: %.15g prints exactly the integer's digits
    // (no exponent, no fraction), which the integer path writes directly.
    // -0.0 is excluded because %g keeps its sign.
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v)).ptr;
  } else {
    // The shortest of %.15g, %.16g, %.17g that reads back exactly. The
    // precision overload of to_chars is specified as printf("%.*g") in the
    // "C" locale, so these are the bytes snprintf would produce, without
    // its locale lookup and format parsing.
    for (int prec = 15;; ++prec) {
      end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                          prec)
                .ptr;
      if (prec == 17) break;
      double back;
      const std::from_chars_result r = std::from_chars(buf, end, back);
      if (r.ec == std::errc() && back == v) break;
    }
  }
  out->append(buf, end);
}

void JsonValue::SerializeTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      JsonAppendDouble(number_, out);
      return;
    case Type::kString:
      out->push_back('"');
      JsonEscape(string_, out);
      out->push_back('"');
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        v.SerializeTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        JsonEscape(k, out);
        *out += "\":";
        v.SerializeTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

namespace {

constexpr int kMaxDepth = 64;

/// Recursive-descent parser over a bounded view; never reads past end_.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : cur_(text.data()), end_(text.data() + text.size()) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    UOTS_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (cur_ != end_) return Fail("trailing characters after JSON value");
    return v;
  }

 private:
  Status Fail(const std::string& msg) const {
    return Status::InvalidArgument("json: " + msg);
  }

  void SkipWs() {
    while (cur_ != end_ &&
           (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' || *cur_ == '\r')) {
      ++cur_;
    }
  }

  bool Consume(char c) {
    if (cur_ != end_ && *cur_ == c) {
      ++cur_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - cur_) < n) return false;
    if (std::memcmp(cur_, lit, n) != 0) return false;
    cur_ += n;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (cur_ == end_) return Fail("unexpected end of input");
    switch (*cur_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        UOTS_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++cur_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      if (cur_ == end_ || *cur_ != '"') return Fail("expected object key");
      std::string key;
      UOTS_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue v;
      UOTS_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Set(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++cur_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue v;
      UOTS_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Append(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (end_ - cur_ < 4) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *cur_++;
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++cur_;  // opening quote
    for (;;) {
      if (cur_ == end_) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*cur_);
      if (c == '"') {
        ++cur_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++cur_;
        continue;
      }
      ++cur_;  // backslash
      if (cur_ == end_) return Fail("unterminated escape");
      const char esc = *cur_++;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          UOTS_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (end_ - cur_ < 2 || cur_[0] != '\\' || cur_[1] != 'u') {
              return Fail("unpaired surrogate");
            }
            cur_ += 2;
            uint32_t lo = 0;
            UOTS_RETURN_NOT_OK(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) return Fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const char* start = cur_;
    if (Consume('-')) {
    }
    if (cur_ == end_ || !(*cur_ >= '0' && *cur_ <= '9')) {
      return Fail("invalid number");
    }
    while (cur_ != end_ && *cur_ >= '0' && *cur_ <= '9') ++cur_;
    if (Consume('.')) {
      if (cur_ == end_ || !(*cur_ >= '0' && *cur_ <= '9')) {
        return Fail("invalid number fraction");
      }
      while (cur_ != end_ && *cur_ >= '0' && *cur_ <= '9') ++cur_;
    }
    if (cur_ != end_ && (*cur_ == 'e' || *cur_ == 'E')) {
      ++cur_;
      if (cur_ != end_ && (*cur_ == '+' || *cur_ == '-')) ++cur_;
      if (cur_ == end_ || !(*cur_ >= '0' && *cur_ <= '9')) {
        return Fail("invalid number exponent");
      }
      while (cur_ != end_ && *cur_ >= '0' && *cur_ <= '9') ++cur_;
    }
    // strtod needs NUL-terminated input; numbers are short, copy is cheap.
    const std::string token(start, cur_);
    errno = 0;
    char* parsed_end = nullptr;
    const double v = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size()) {
      return Fail("invalid number");
    }
    *out = JsonValue::Number(v);
    return Status::OK();
  }

  const char* cur_;
  const char* end_;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace uots
