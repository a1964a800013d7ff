// Checked numeric flag parsing shared by scol-cli, scol-serve, and
// scol-bench-load.
//
// The raw std::atoi / std::atoll / std::atof / strtoull parses the CLIs
// used to do turn garbage into 0 silently: `--seeds foo` ran a zero-seed
// campaign that "succeeded", `--jobs 4x` ran one job, `--seed -1` became
// an astronomically large unsigned seed. Every numeric flag now goes
// through one of the checked_* helpers below, which reject empty values,
// non-numeric text, trailing junk, overflow, and out-of-range values with
// a message that names the flag — routed through the caller's
// [[noreturn]] usage-error function, so each binary keeps its own usage
// text and the exit code stays 2.
#pragma once

#include <cstdint>
#include <string>
#include <system_error>

#include "scol/util/parse_num.h"

namespace scol_cli_parse {

// Core parses over the shared lexer (scol/util/parse_num.h): the WHOLE
// text must be one number. Returns "" on success, else a message that
// already names the flag.

template <typename Int>
std::string parse_integer(const std::string& text, const char* flag,
                          Int* out) {
  const std::errc ec = scol::parse_integer(text, out);
  if (ec == std::errc::result_out_of_range)
    return std::string(flag) + ": number out of range: '" + text + "'";
  if (ec != std::errc())
    return std::string(flag) + ": expected an integer, got '" + text + "'";
  return "";
}

inline std::string parse_real(const std::string& text, const char* flag,
                              double* out) {
  const std::errc ec = scol::parse_real(text, out);
  if (ec == std::errc::result_out_of_range)
    return std::string(flag) + ": number out of range: '" + text + "'";
  if (ec != std::errc())
    return std::string(flag) + ": expected a number, got '" + text + "'";
  return "";
}

// Flag-level conveniences. `fail` is the binary's [[noreturn]] usage-error
// function (message -> usage text -> exit 2); the returns after it are
// unreachable but keep the compiler satisfied for non-attributed callables.

template <typename Fail>
std::int64_t checked_int(const std::string& text, const char* flag,
                         std::int64_t min_value, std::int64_t max_value,
                         Fail&& fail) {
  std::int64_t v = 0;
  const std::string err = parse_integer(text, flag, &v);
  if (!err.empty()) {
    fail(err);
    return 0;
  }
  if (v < min_value)
    fail(std::string(flag) + ": must be >= " + std::to_string(min_value) +
         ", got " + text);
  if (v > max_value)
    fail(std::string(flag) + ": must be <= " + std::to_string(max_value) +
         ", got " + text);
  return v;
}

/// Seeds: any non-negative 64-bit value (a '-' is rejected up front so it
/// cannot wrap to an astronomically large unsigned seed).
template <typename Fail>
std::uint64_t checked_seed(const std::string& text, const char* flag,
                           Fail&& fail) {
  if (!text.empty() && text[0] == '-')
    fail(std::string(flag) + ": must be >= 0, got " + text);
  std::uint64_t v = 0;
  const std::string err = parse_integer(text, flag, &v);
  if (!err.empty()) {
    fail(err);
    return 0;
  }
  return v;
}

template <typename Fail>
double checked_real(const std::string& text, const char* flag,
                    double min_value, Fail&& fail) {
  double v = 0.0;
  const std::string err = parse_real(text, flag, &v);
  if (!err.empty()) {
    fail(err);
    return 0.0;
  }
  if (v < min_value)
    fail(std::string(flag) + ": must be >= " + std::to_string(min_value) +
         ", got " + text);
  return v;
}

/// `--shard i/m`: both parts must be numeric (errors carry the part's
/// position in the spec) with m >= 1 and 0 <= i < m.
template <typename Fail>
void checked_shard_spec(const std::string& text, std::int64_t* index,
                        std::int64_t* count, Fail&& fail) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    fail("--shard wants i/m, got '" + text + "'");
    return;
  }
  const std::string index_part = text.substr(0, slash);
  const std::string count_part = text.substr(slash + 1);
  std::string err = parse_integer(index_part, "--shard index", index);
  if (!err.empty())
    fail(err + " (position 0 of '" + text + "')");
  err = parse_integer(count_part, "--shard count", count);
  if (!err.empty())
    fail(err + " (position " + std::to_string(slash + 1) + " of '" + text +
         "')");
  if (*count < 1)
    fail("--shard count must be >= 1, got '" + text + "'");
  if (*index < 0 || *index >= *count)
    fail("--shard index must satisfy 0 <= i < m, got '" + text + "'");
}

}  // namespace scol_cli_parse
