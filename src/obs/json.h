// Minimal JSON support for the observability layer: a writer that produces
// the metric/trace/event documents, and a strict recursive-descent parser
// used to validate them (tools/check_json, obs tests). Deliberately tiny —
// no external dependency, no DOM mutation API, just build-and-serialize and
// parse-and-inspect.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace bdlfi::obs {

/// Parsed JSON document node.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  // std::map keeps member iteration deterministic (sorted), which the tests
  // rely on when re-serializing.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Strict parse of a complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Returns nullopt with a human-readable
/// message in `error` (if given) on malformed input.
std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error = nullptr);

/// True when every non-empty line of `text` parses as a JSON document — the
/// JSONL contract of the metrics event stream.
bool jsonl_valid(const std::string& text, std::string* error = nullptr);

/// JSON string escaping (quotes not included).
std::string json_escape(const std::string& s);

/// Streaming writer for objects/arrays; keys are emitted in call order.
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("p").number(1e-3);
///   w.key("layers").begin_array(); ... w.end_array();
///   w.end_object();
///   std::string doc = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& k);
  JsonWriter& string(const std::string& s);
  JsonWriter& number(double d);
  /// Round-trip-exact double (%.17g): a strict re-parse returns the identical
  /// bit pattern. Checkpoints need this; number(double) keeps the compact
  /// %.12g for human-facing streams. Non-finite still serializes as null.
  JsonWriter& number_exact(double d);
  JsonWriter& number(std::uint64_t u);
  JsonWriter& number(std::int64_t i);
  JsonWriter& boolean(bool b);
  JsonWriter& null();
  /// Shorthand: key(k) followed by the value.
  JsonWriter& field(const std::string& k, const std::string& v) {
    return key(k).string(v);
  }
  JsonWriter& field(const std::string& k, const char* v) {
    return key(k).string(v);
  }
  JsonWriter& field(const std::string& k, double v) { return key(k).number(v); }
  JsonWriter& field_exact(const std::string& k, double v) {
    return key(k).number_exact(v);
  }
  JsonWriter& field(const std::string& k, bool v) { return key(k).boolean(v); }
  JsonWriter& field(const std::string& k, std::uint64_t v) {
    return key(k).number(v);
  }
  JsonWriter& field(const std::string& k, std::int64_t v) {
    return key(k).number(v);
  }

  const std::string& str() const { return out_; }
  /// Drops the text emitted so far, once the caller has taken it from
  /// str(). The nesting state stays, so what follows continues the same
  /// document: a long one can be written out in pieces.
  void clear_text() { out_.clear(); }

 private:
  void comma();
  std::string out_;
  // One entry per open container: count of values already emitted in it.
  std::vector<std::size_t> counts_{0};
  bool after_key_ = false;
};

}  // namespace bdlfi::obs
