// The one numeric lexer for text from outside: CLI flags (cli/parse_num.h),
// "key=value" params (api/params.h, so every scenario spec and --param
// value) and JSON numbers (api/json.cpp, so every scol-serve request).
//
// The WHOLE text must be one number: no leading blanks, no trailing junk;
// a sign is '-' or, as strtoll and strtod take it, '+'. Overflow is
// reported, never saturated — strtoll's INT64_MAX for
// "99999999999999999999" is what a silent narrowing then turns into -1.
#pragma once

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string>
#include <system_error>

namespace scol {

/// Lexes `text` as a base-10 Int into *out. Returns std::errc{} on
/// success, result_out_of_range when the number does not fit Int, and
/// invalid_argument for anything else (empty, not a number, junk after
/// it).
template <typename Int>
std::errc parse_integer(const std::string& text, Int* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  if (text.size() > 1 && text[0] == '+' && text[1] >= '0' && text[1] <= '9')
    ++first;
  const std::from_chars_result r = std::from_chars(first, last, *out);
  if (r.ec != std::errc()) return r.ec;
  return r.ptr == last ? std::errc() : std::errc::invalid_argument;
}

/// Lexes `text` as a double (strtod syntax) into *out, with
/// parse_integer's whole-text rule and error codes. On
/// result_out_of_range *out holds strtod's value (±HUGE_VAL, or a
/// denormal or zero), for a caller that accepts it.
inline std::errc parse_real(const std::string& text, double* out) {
  if (text.empty()) return std::errc::invalid_argument;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::errc::invalid_argument;
  *out = v;
  return errno == ERANGE ? std::errc::result_out_of_range : std::errc();
}

}  // namespace scol
