// paxsim/report/parse.cpp
#include "report/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace paxsim::report {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::as_u64(std::uint64_t* out) const noexcept {
  if (kind != Kind::kNumber || raw_number.empty()) return false;
  for (const char c : raw_number) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw_number.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::move(fallback);
}

namespace {

/// Recursive-descent parser over a flat buffer.  Depth-capped so a
/// pathological (or corrupted) input cannot overflow the host stack.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  /// How many arrays/objects may nest inside one another.
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (at_end()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->string);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->kind = JsonValue::Kind::kNull;
        return true;
      default: return number(out);
    }
  }

  bool object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    if (depth == kMaxDepth) return fail("nesting too deep");
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!at_end() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (at_end() || text_[pos_] != '"' || !string(&key)) {
        return fail("expected object key");
      }
      // Consumers look members up by name, so a repeated name would mean
      // whichever copy the lookup happens to find.
      for (const auto& member : out->members) {
        if (member.first == key) {
          return fail("duplicate member \"" + key + "\"");
        }
      }
      skip_ws();
      if (at_end() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(&v, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue* out, int depth) {
    ++pos_;  // '['
    if (depth == kMaxDepth) return fail("nesting too deep");
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!at_end() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(&v, depth + 1)) return false;
      out->items.push_back(std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // The writer only ever emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 so arbitrary valid JSON still parses.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!at_end() && text_[pos_] == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits_start) return fail("expected a value");
    if (text_[digits_start] == '0' && pos_ - digits_start > 1) {
      return fail("leading zero in number");
    }
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac = pos_;
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) return fail("digits required after '.'");
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) return fail("digits required in exponent");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->raw_number.assign(text_.substr(start, pos_ - start));
    out->number = std::strtod(out->raw_number.c_str(), nullptr);
    if (std::isinf(out->number)) return fail("number out of range");
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json_value(std::string_view text, JsonValue* out,
                      std::string* error) {
  if (error != nullptr) error->clear();
  *out = JsonValue{};
  Parser p(text, error);
  return p.parse(out);
}

}  // namespace paxsim::report
