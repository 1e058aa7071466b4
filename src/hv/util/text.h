// Small string helpers shared by the TA/LTL parsers and table printers.
#ifndef HV_UTIL_TEXT_H
#define HV_UTIL_TEXT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hv {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Splits on a separator character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view text, char separator);

/// True iff `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view separator);

/// Left-pads (align right) or right-pads (align left) to `width` with spaces.
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

/// `stem` followed by the decimal digits of `n` ("p", 3 -> "p3"). Names
/// built this way append to `stem` instead of inserting it in front of
/// std::to_string's result, which GCC 12's -Wrestrict flags at -O3.
std::string numbered(std::string_view stem, std::int64_t n);

/// Fixed-point with two decimals ("%.2f"), as verdict notes print times.
std::string format_seconds(double seconds);

/// Appends `text` as the body of a JSON string literal (no quotes): `"` and
/// `\` are escaped, newline, carriage return and tab get their short forms,
/// and every other control character becomes \u00XX. The one escaper of
/// every JSON and JSONL writer in the repo.
void append_json_escaped(std::string& out, std::string_view text);
std::string json_escape(std::string_view text);

}  // namespace hv

#endif  // HV_UTIL_TEXT_H
