#pragma once

/// \file json.h
/// Minimal JSON support. The repo's exporters (obs metrics/trace, prof,
/// lint reports, scope timing reports, serve payloads) hand-build their
/// JSON with json_escape and json_number, the one string encoder and
/// number formatter they share. The recursive-descent reader is the
/// matching in-tree consumer used by tools (bench_diff, trace merging) and
/// by tests that assert the exports parse back. It covers the JSON the
/// repo emits — objects, arrays, numbers, strings, bools, null — and
/// deliberately stays small: \uXXXX escapes decode to UTF-8 one code unit
/// at a time (surrogate pairs are not joined), and numbers are parsed with
/// strtod semantics.

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace smart::util {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Escapes `s` for the inside of a JSON string literal (no surrounding
/// quotes): `"`, `\`, \n, \r and \t get their short escapes, any other
/// control byte becomes \u00XX, and everything else (UTF-8 included)
/// passes through unchanged.
std::string json_escape(std::string_view s);

/// A number as exporters write it: %.10g. NaN and infinities are not JSON
/// literals, so they become 0.
std::string json_number(double v);

/// Parses `text` as a single JSON document. Returns false on any syntax
/// error or trailing garbage; `out` is unspecified on failure.
bool json_parse(const std::string& text, JsonValue* out);

/// Serializes a JsonValue back to compact JSON text. Round-trips anything
/// json_parse accepts (numbers come back via %.17g, so integers stay
/// integral); used by tools that rewrite documents, e.g. trace merging.
std::string json_dump(const JsonValue& value);

}  // namespace smart::util
