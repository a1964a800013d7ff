#include "scol/api/params.h"

#include <algorithm>

#include "scol/api/json.h"
#include "scol/util/parse_num.h"

namespace scol {

void throw_param_error(const std::string& what, const std::string& shown,
                       const std::string& wanted) {
  throw ParamError(what + " = " + shown + " is not " + wanted);
}

std::string integer_in(std::int64_t lo, std::int64_t hi) {
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

void ParamBag::want_error(const std::string& name, const Value& v,
                          const std::string& wanted) {
  std::string shown = Json::from_param(v).dump();
  // A real the JSON writer prints as "5" is still not an integer.
  if (std::holds_alternative<double>(v) &&
      shown.find_first_of(".eEn") == std::string::npos)
    shown += ".0";
  throw_param_error("param '" + name + "'", shown, wanted);
}

void parse_param(ParamBag& bag, const std::string& key_eq_value) {
  const std::size_t eq = key_eq_value.find('=');
  const std::string key = key_eq_value.substr(0, eq);
  if (key.empty()) throw ParamError("param key must be non-empty");
  if (eq == std::string::npos) {
    bag.set_flag(key, true);
    return;
  }
  const std::string val = key_eq_value.substr(eq + 1);
  if (val == "true") {
    bag.set_flag(key, true);
    return;
  }
  if (val == "false") {
    bag.set_flag(key, false);
    return;
  }
  std::int64_t as_int = 0;
  const std::errc int_ec = parse_integer(val, &as_int);
  if (int_ec == std::errc()) {
    bag.set_int(key, as_int);
    return;
  }
  const std::string what = "param '" + key + "'";
  if (int_ec == std::errc::result_out_of_range)
    throw_param_error(what, val,
                      integer_in(std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()));
  double as_real = 0.0;
  const std::errc real_ec = parse_real(val, &as_real);
  if (real_ec == std::errc::result_out_of_range)
    throw_param_error(what, val, "a finite number");
  if (real_ec == std::errc()) {
    bag.set_real(key, as_real);
    return;
  }
  bag.set_str(key, val);
}

// Levenshtein distance, for did-you-mean hints on unknown names/keys.
// Inputs are short (registry names and param keys), so the quadratic DP
// is plenty.
static std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string did_you_mean(const std::string& got,
                         const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_distance = 3;  // only suggest within distance 2
  for (const auto& candidate : known) {
    const std::size_t d = edit_distance(got, candidate);
    if (d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

void require_known_keys(const ParamBag& bag,
                        const std::vector<std::string>& keys,
                        const std::string& owner, const std::string& spec) {
  for (const auto& [key, value] : bag.items()) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    std::string where;
    if (!spec.empty()) {
      const std::size_t colon = spec.find(':');
      std::size_t offset = spec.find(key + "=", colon);
      if (offset == std::string::npos) offset = spec.find(key, colon);
      where = " at offset " + std::to_string(offset);
    }
    std::string known;
    for (const auto& k : keys) known += (known.empty() ? "" : ", ") + k;
    throw PreconditionError(
        owner + ": unknown key '" + key + "'" + where +
        did_you_mean(key, keys) +
        (keys.empty() ? " (takes no params)" : "; known keys: " + known));
  }
}

}  // namespace scol
