#include "hv/util/text.h"

#include <cctype>
#include <cstdio>

namespace hv {

namespace {
bool is_space(char c) noexcept { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += separator;
    out += items[i];
  }
  return out;
}

std::string pad_left(std::string_view text, std::size_t width) {
  std::string out(width > text.size() ? width - text.size() : 0, ' ');
  out += text;
  return out;
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string numbered(std::string_view stem, std::int64_t n) {
  std::string out(stem);
  out += std::to_string(n);
  return out;
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", seconds);
  return buffer;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

}  // namespace hv
