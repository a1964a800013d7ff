#include "scol/api/registry.h"

#include <algorithm>

#include "scol/util/rng.h"

namespace scol {
namespace {

// Default guarantee for every list-respecting algorithm: a coloring drawn
// from the lists can use at most the number of distinct colors across
// them (k for uniform k-lists, read off the shared list).
std::int64_t distinct_list_colors(const ColoringRequest& req) {
  if (req.lists == nullptr) return -1;
  return static_cast<std::int64_t>(req.lists->palette().size());
}

std::string why_not_k(Vertex k, Vertex needed) {
  if (k >= needed) return "";
  return "needs k >= " + std::to_string(needed) + ", got " + std::to_string(k);
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::add(AlgorithmInfo info) {
  SCOL_REQUIRE(!info.name.empty(), + "algorithm name must be non-empty");
  SCOL_REQUIRE(static_cast<bool>(info.run),
               + "algorithm must have a run function");
  SCOL_REQUIRE(find(info.name) == nullptr,
               + ("duplicate algorithm name '" + info.name + "'"));
  SCOL_REQUIRE(!(info.list_size.fixed && info.list_size.probed),
               + "a list-size rule is fixed or probed, not both");
  if (!info.color_bound && info.caps.needs_lists)
    info.color_bound = distinct_list_colors;
  algorithms_.push_back(std::move(info));
}

const AlgorithmInfo* AlgorithmRegistry::find(const std::string& name) const {
  for (const auto& a : algorithms_)
    if (a.name == name) return &a;
  return nullptr;
}

const AlgorithmInfo& AlgorithmRegistry::at(const std::string& name) const {
  const AlgorithmInfo* a = find(name);
  if (a == nullptr) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw PreconditionError("unknown algorithm '" + name + "'; known: " +
                            known);
  }
  return *a;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(algorithms_.size());
  for (const auto& a : algorithms_) out.push_back(a.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string algorithm_skip_reason(const AlgorithmInfo& info,
                                  const EligibilityQuery& query) {
  const ListSizeRule& rule = info.list_size;
  if (!info.precondition && !rule) return "";
  SCOL_REQUIRE(query.probe != nullptr && query.params != nullptr,
               + "eligibility query needs a probe and params");
  std::string reason = info.precondition ? info.precondition(query) : "";
  if (!reason.empty() || !rule) return reason;
  return why_not_k(query.k, rule.fixed ? rule.fixed(*query.params)
                                       : rule.probed(*query.probe));
}

Vertex effective_k(const AlgorithmInfo& info, Vertex k, Vertex max_degree,
                   const ParamBag& params) {
  if (k > 0 || !info.caps.needs_lists) return k;
  Vertex out = std::max<Vertex>(3, max_degree + 1);
  if (info.list_size.fixed) out = std::max(out, info.list_size.fixed(params));
  return out;
}

ListAssignment Admission::build_lists(Vertex n, std::uint64_t seed) const {
  if (palette <= 0) return uniform_lists(n, static_cast<Color>(k));
  Rng list_rng = Rng::stream(seed, (static_cast<std::uint64_t>(k) << 32) ^
                                       static_cast<std::uint64_t>(palette));
  return random_lists(n, static_cast<Color>(k), palette, list_rng);
}

void require_declared_params(const std::vector<std::string>& algorithms,
                             const ParamBag& params) {
  std::vector<std::string> keys;
  for (const auto& name : algorithms)
    for (const auto& key : AlgorithmRegistry::instance().at(name).keys)
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
  require_known_keys(params, keys,
                     algorithms.size() == 1
                         ? "algorithm '" + algorithms.front() + "'"
                         : "params shared by " +
                               std::to_string(algorithms.size()) +
                               " algorithms");
}

void require_lists_mode(const std::string& lists_mode) {
  SCOL_REQUIRE(lists_mode == "uniform" || lists_mode == "random",
               + ("lists mode must be uniform or random, got '" +
                  lists_mode + "'"));
}

Admission admit(const AlgorithmInfo& info, const Graph& g, Vertex k,
                const std::string& lists_mode, Color palette,
                const ParamBag& params, const GraphProbe* probe) {
  require_lists_mode(lists_mode);
  Admission out;
  try {
    out.k = effective_k(info, k, g.max_degree(), params);
    if (probe != nullptr)
      out.skip_reason = algorithm_skip_reason(
          info, EligibilityQuery{probe, &params, out.k});
  } catch (const ParamError& e) {
    throw PreconditionError("algorithm '" + info.name + "': " + e.what());
  }
  if (!out.skip_reason.empty()) return out;
  if (!info.caps.needs_lists) return out;
  out.lists = lists_mode;
  if (lists_mode == "random")
    out.palette = palette > 0 ? palette
                              : int_in_range<Color>("default palette 4k",
                                                    4 * std::int64_t{out.k});
  return out;
}

}  // namespace scol
