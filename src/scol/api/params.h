// Typed option bag for the solver API, and the one decode of every
// integer that comes from outside.
//
// ColoringRequest carries per-algorithm knobs (ball constants, arboricity,
// epsilon, node budgets, ...) as a ParamBag: an ordered list of
// (name, value) pairs where values are int / real / flag / string. Typed
// getters check the stored kind, so a misspelled or mistyped parameter
// fails loudly instead of silently falling back to a default. Insertion
// order is preserved, which keeps JSON serialization deterministic.
//
// Scenario keys and algorithm params narrow through ParamBag::get,
// scol-serve's wire integers through int_in_range: a value outside the
// destination's range is a ParamError naming the key, the value and the
// range, never a silent cast.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "scol/util/check.h"

namespace scol {

/// A key or field whose value does not decode. The registries' entry
/// points (build_scenario, admit, solve) lead its text with the spec or
/// algorithm the value belongs to.
class ParamError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// Throws ParamError "<what> = <shown> is not <wanted>"; `what` names the
/// key ("param 'n'", "field 'k'").
[[noreturn]] void throw_param_error(const std::string& what,
                                    const std::string& shown,
                                    const std::string& wanted);
/// "an integer in [lo, hi]", as throw_param_error wants it.
std::string integer_in(std::int64_t lo, std::int64_t hi);

/// The one checked narrowing of an integer from outside: `v` as an Int
/// when lo <= v <= hi, else a ParamError naming `what`, the value and
/// the range.
template <typename Int>
Int int_in_range(const std::string& what, std::int64_t v,
                 Int lo = std::numeric_limits<Int>::min(),
                 Int hi = std::numeric_limits<Int>::max()) {
  if (v < lo || v > hi)
    throw_param_error(what, std::to_string(v), integer_in(lo, hi));
  return static_cast<Int>(v);
}

class ParamBag {
 public:
  using Value = std::variant<std::int64_t, double, bool, std::string>;

  bool has(const std::string& name) const { return find(name) != nullptr; }
  bool empty() const { return items_.empty(); }

  ParamBag& set(const std::string& name, Value value) {
    for (auto& [n, v] : items_) {
      if (n == name) {
        v = std::move(value);
        return *this;
      }
    }
    items_.emplace_back(name, std::move(value));
    return *this;
  }
  ParamBag& set_int(const std::string& name, std::int64_t v) {
    return set(name, Value{v});
  }
  ParamBag& set_real(const std::string& name, double v) {
    return set(name, Value{v});
  }
  ParamBag& set_flag(const std::string& name, bool v) {
    return set(name, Value{v});
  }
  ParamBag& set_str(const std::string& name, std::string v) {
    return set(name, Value{std::move(v)});
  }

  /// The ranged integer read: the value of `name` as an Int in [lo, hi]
  /// (by default Int's whole range, so a 32-bit destination is never
  /// narrowed), or `def` as given when the key is absent. A non-integer
  /// or out-of-range value throws ParamError.
  template <typename Int>
  Int get(const std::string& name, Int def,
          Int lo = std::numeric_limits<Int>::min(),
          Int hi = std::numeric_limits<Int>::max()) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    const auto* i = std::get_if<std::int64_t>(v);
    if (i == nullptr || *i < lo || *i > hi)
      want_error(name, *v, integer_in(lo, hi));
    return static_cast<Int>(*i);
  }
  /// get() of a key the run cannot do without: absent throws too.
  template <typename Int>
  Int require(const std::string& name, Int lo) const {
    if (!has(name)) throw ParamError("needs param '" + name + "'");
    return get<Int>(name, lo, lo);
  }

  /// Typed getters: return the default when absent; throw ParamError
  /// when present with a different kind (get_real accepts an int and
  /// widens it).
  std::int64_t get_int(const std::string& name, std::int64_t def) const {
    return get<std::int64_t>(name, def);
  }
  double get_real(const std::string& name, double def) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    if (const auto* i = std::get_if<std::int64_t>(v))
      return static_cast<double>(*i);
    return want<double>(name, *v, "a number");
  }
  bool get_flag(const std::string& name, bool def) const {
    const Value* v = find(name);
    return v == nullptr ? def : want<bool>(name, *v, "a flag");
  }
  std::string get_str(const std::string& name, std::string def) const {
    const Value* v = find(name);
    return v == nullptr ? def : want<std::string>(name, *v, "a string");
  }

  const std::vector<std::pair<std::string, Value>>& items() const {
    return items_;
  }

 private:
  const Value* find(const std::string& name) const {
    for (const auto& [n, v] : items_)
      if (n == name) return &v;
    return nullptr;
  }
  /// throw_param_error for `name` holding `v`, shown as JSON.
  [[noreturn]] static void want_error(const std::string& name,
                                      const Value& v,
                                      const std::string& wanted);
  template <typename T>
  static const T& want(const std::string& name, const Value& v,
                       const char* wanted) {
    if (!std::holds_alternative<T>(v)) want_error(name, v, wanted);
    return std::get<T>(v);
  }

  std::vector<std::pair<std::string, Value>> items_;
};

/// Parses "key=value" into the bag: value lexes (scol/util/parse_num.h)
/// as int, then real, then true/false, else string. "key" alone sets a
/// true flag. Throws ParamError on an empty key or a number past int64
/// or double.
void parse_param(ParamBag& bag, const std::string& key_eq_value);

/// " (did you mean 'X'?)" when some name in `known` is within edit
/// distance 2 of `got` (ties go to the first in `known`), else "".
std::string did_you_mean(const std::string& got,
                         const std::vector<std::string>& known);

/// The one unknown-key check, which both registries run before any
/// build: throws PreconditionError when a key of `bag` is not in `keys`,
/// led by `owner` ("scenario spec '...'", "algorithm 'sparse'") and
/// naming the key, its offset in `spec` when one is given, a did-you-mean
/// hint and the known keys.
void require_known_keys(const ParamBag& bag,
                        const std::vector<std::string>& keys,
                        const std::string& owner,
                        const std::string& spec = "");

}  // namespace scol
