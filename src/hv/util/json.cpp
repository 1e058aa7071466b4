#include "hv/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv {

namespace {

// Proof trees nest one object level per propagation/decision/branch node;
// real certificates stay well under a few thousand levels. The limit keeps
// a hostile deeply-nested file from exhausting the parser's stack.
constexpr int kMaxDepth = 8000;

[[noreturn]] void fail(std::size_t offset, const std::string& message) {
  throw InvalidArgument("json: " + message + " at offset " + std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (position_ != text_.size()) fail(position_, "trailing characters");
    return value;
  }

 private:
  void skip_whitespace() {
    while (position_ < text_.size()) {
      const char c = text_[position_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++position_;
    }
  }

  char peek() {
    if (position_ >= text_.size()) fail(position_, "unexpected end of input");
    return text_[position_];
  }

  void expect(char c) {
    if (peek() != c) fail(position_, std::string("expected '") + c + "'");
    ++position_;
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(position_, word.size()) != word) return false;
    position_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail(position_, "nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_keyword("true")) return Json(true);
        fail(position_, "invalid literal");
      case 'f':
        if (consume_keyword("false")) return Json(false);
        fail(position_, "invalid literal");
      case 'n':
        if (consume_keyword("null")) return Json();
        fail(position_, "invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object fields;
    skip_whitespace();
    if (peek() == '}') {
      ++position_;
      return Json(std::move(fields));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      fields.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++position_;
        continue;
      }
      expect('}');
      return Json(std::move(fields));
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++position_;
      return Json(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++position_;
        continue;
      }
      expect(']');
      return Json(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (position_ >= text_.size()) fail(position_, "unterminated string");
      const char c = text_[position_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail(position_ - 1, "raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (position_ >= text_.size()) fail(position_, "unterminated escape");
      const char escape = text_[position_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (position_ >= text_.size()) fail(position_, "unterminated \\u escape");
            const char h = text_[position_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(position_ - 1, "invalid \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not combined;
          // certificates never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail(position_ - 1, "invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = position_;
    bool is_double = false;
    if (position_ < text_.size() && text_[position_] == '-') ++position_;
    while (position_ < text_.size()) {
      const char c = text_[position_];
      if (c >= '0' && c <= '9') {
        ++position_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++position_;
      } else {
        break;
      }
    }
    if (position_ == start || (position_ == start + 1 && text_[start] == '-')) {
      fail(start, "invalid number");
    }
    const std::size_t first_digit = text_[start] == '-' ? start + 1 : start;
    if (first_digit + 1 < position_ && text_[first_digit] == '0' &&
        text_[first_digit + 1] >= '0' && text_[first_digit + 1] <= '9') {
      fail(start, "leading zero");
    }
    const std::string token(text_.substr(start, position_ - start));
    if (is_double) {
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || !std::isfinite(value)) {
        fail(start, "invalid number");
      }
      return Json(value);
    }
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size()) fail(start, "integer out of range");
    return Json(static_cast<std::int64_t>(value));
  }

  std::string_view text_;
  std::size_t position_ = 0;
};

void write_escaped(std::string& out, const std::string& text) {
  out += '"';
  append_json_escaped(out, text);
  out += '"';
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw InvalidArgument("json: expected a boolean");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ != Kind::kInt) throw InvalidArgument("json: expected an integer");
  return int_;
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ != Kind::kDouble) throw InvalidArgument("json: expected a number");
  return double_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw InvalidArgument("json: expected a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::kArray) throw InvalidArgument("json: expected an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::kObject) throw InvalidArgument("json: expected an object");
  return object_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw InvalidArgument("json: missing field '" + std::string(key) + "'");
  }
  return *value;
}

void Json::set(std::string key, Json value) {
  if (kind_ == Kind::kNull && object_.empty()) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw InvalidArgument("json: set() on a non-object");
  object_.emplace_back(std::move(key), std::move(value));
}

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInt:
      out += std::to_string(int_);
      return;
    case Kind::kDouble: {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.17g", double_);
      out += buffer;
      return;
    }
    case Kind::kString:
      write_escaped(out, string_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        indent_to(out, indent, depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        indent_to(out, indent, depth + 1);
        write_escaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::to_string() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::to_pretty_string() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace hv
