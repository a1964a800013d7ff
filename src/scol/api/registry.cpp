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
  if (!info.precondition) return "";
  SCOL_REQUIRE(query.probe != nullptr && query.params != nullptr,
               + "eligibility query needs a probe and params");
  return info.precondition(query);
}

Vertex effective_k(const AlgorithmInfo& info, Vertex k, Vertex max_degree,
                   const ParamBag& params) {
  if (k > 0 || !info.caps.needs_lists) return k;
  Vertex out = std::max<Vertex>(3, max_degree + 1);
  if (info.min_k) out = std::max(out, info.min_k(params));
  return out;
}

ListAssignment ListShape::build(Vertex n, std::uint64_t seed) const {
  if (palette <= 0) return uniform_lists(n, static_cast<Color>(k));
  Rng list_rng = Rng::stream(seed, (static_cast<std::uint64_t>(k) << 32) ^
                                       static_cast<std::uint64_t>(palette));
  return random_lists(n, static_cast<Color>(k), palette, list_rng);
}

void require_lists_mode(const std::string& lists_mode) {
  SCOL_REQUIRE(lists_mode == "uniform" || lists_mode == "random",
               + ("lists mode must be uniform or random, got '" +
                  lists_mode + "'"));
}

ListShape list_shape(const std::string& lists_mode, Color palette, Vertex k) {
  if (lists_mode != "random") return ListShape{k, -1};
  return ListShape{k, palette > 0 ? palette : static_cast<Color>(4 * k)};
}

}  // namespace scol
