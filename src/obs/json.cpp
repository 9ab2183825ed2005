#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace bdlfi::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    auto v = value();
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': {
        auto str = string_body();
        if (!str.has_value()) return std::nullopt;
        return JsonValue(std::move(*str));
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return JsonValue(true);
        }
        break;
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return JsonValue(false);
        }
        break;
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return JsonValue(nullptr);
        }
        break;
      default:
        return number();
    }
    fail("invalid literal");
    return std::nullopt;
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      fail("invalid number");
      return std::nullopt;
    }
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    const bool leading_zero = s_[pos_] == '0';
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (leading_zero && pos_ - start > (s_[start] == '-' ? 2u : 1u)) {
      fail("leading zero in number");
      return std::nullopt;
    }
    if (consume('.')) {
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("digits required after decimal point");
        return std::nullopt;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("digits required in exponent");
        return std::nullopt;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return JsonValue(std::atof(s_.substr(start, pos_ - start).c_str()));
  }

  std::optional<std::string> string_body() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid hex digit in \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode (surrogate pairs are passed through individually —
          // good enough for validation; our writers never emit them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> array() {
    consume('[');
    JsonValue::Array items;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(items));
    for (;;) {
      skip_ws();
      auto v = value();
      if (!v.has_value()) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return JsonValue(std::move(items));
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> object() {
    consume('{');
    JsonValue::Object members;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(members));
    for (;;) {
      skip_ws();
      auto k = string_body();
      if (!k.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      skip_ws();
      auto v = value();
      if (!v.has_value()) return std::nullopt;
      members.emplace(std::move(*k), std::move(*v));
      skip_ws();
      if (consume('}')) return JsonValue(std::move(members));
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error) {
  return Parser(text, error).run();
}

bool jsonl_valid(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string err;
    if (!json_parse(line, &err).has_value()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " + err;
      }
      return false;
    }
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!counts_.empty() && counts_.back() > 0) out_.push_back(',');
  if (!counts_.empty()) ++counts_.back();
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.push_back('}');
  counts_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_.push_back('[');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.push_back(']');
  counts_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma();
  out_.push_back('"');
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(const std::string& s) {
  comma();
  out_.push_back('"');
  out_ += json_escape(s);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::number(double d) {
  comma();
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; null keeps the document valid and the gap visible.
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::number_exact(double d) {
  comma();
  if (!std::isfinite(d)) {
    out_ += "null";
    return *this;
  }
  // 17 significant digits round-trip any finite double; glibc's strtod is
  // correctly rounded, so parse(print(d)) == d bit-for-bit. to_chars with a
  // precision is specified as printf's %.17g in the C locale, without the
  // format parsing: checkpoints rewrite every sample each round.
  char buf[48];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, 17);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::number(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
  return *this;
}

JsonWriter& JsonWriter::number(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::boolean(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

}  // namespace bdlfi::obs
