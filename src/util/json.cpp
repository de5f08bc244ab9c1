#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <exception>

namespace smart::util {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(const char* word) {
    const size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return string(&out->str);
    }
    if (literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;
    return number(out);
  }
  bool string(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u':
            if (!code_unit(out)) return false;
            break;
          default: return false;
        }
        ++pos_;
      } else {
        *out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  /// Decodes the four hex digits after `\u` (pos_ is on the 'u', and is
  /// left on the last digit) and appends the code unit as UTF-8.
  bool code_unit(std::string* out) {
    if (pos_ + 4 >= s_.size()) return false;
    const std::string hex = s_.substr(pos_ + 1, 4);
    for (const char c : hex)
      if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
    const unsigned long cp = std::stoul(hex, nullptr, 16);
    pos_ += 4;
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return true;
  }
  bool number(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return false;
    try {
      out->number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }
  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(&v)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!value(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

bool json_parse(const std::string& text, JsonValue* out) {
  return Parser(text).parse(out);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

namespace {

void dump_string(const std::string& s, std::string* out) {
  *out += '"';
  *out += json_escape(s);
  *out += '"';
}

void dump_value(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      // Integral values print without an exponent or trailing ".0" so ids
      // (trace/request) survive a parse→dump round trip byte-identically.
      if (v.number == static_cast<long long>(v.number)) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v.number));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      }
      *out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      dump_string(v.str, out);
      break;
    case JsonValue::Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) *out += ',';
        dump_value(v.array[i], out);
      }
      *out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.object) {
        if (!first) *out += ',';
        first = false;
        dump_string(key, out);
        *out += ':';
        dump_value(member, out);
      }
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_dump(const JsonValue& value) {
  std::string out;
  dump_value(value, &out);
  return out;
}

}  // namespace smart::util
