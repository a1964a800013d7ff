#include "scol/coloring/sparsify.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace scol {

Vertex sparsify_target(Vertex n, double c) {
  SCOL_REQUIRE(c > 0.0, + "sparsify constant c must be positive");
  const double bits = std::log2(static_cast<double>(n) + 1.0);
  const double raw = std::ceil(c * bits);
  return std::max<Vertex>(2, static_cast<Vertex>(raw));
}

ListAssignment sparsify_palette(const ListAssignment& lists, Vertex target,
                                std::uint64_t seed, std::uint64_t attempt) {
  SCOL_REQUIRE(target > 0, + "sparsify target must be positive");
  const Vertex n = lists.size();
  ListAssignment out;
  out.reserve(n, std::min(lists.flat().size(),
                          static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(target)));
  std::vector<Color> scratch;
  for (Vertex v = 0; v < n; ++v) {
    const auto list = lists.of(v);
    if (static_cast<Vertex>(list.size()) <= target) {
      out.append(list);
      continue;
    }
    // Per-(vertex, attempt) stream: the sample depends only on (seed,
    // attempt, v), never on who visits v first.
    Rng r = Rng::stream(seed, (attempt << 32) |
                                  static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(v)));
    scratch.assign(list.begin(), list.end());
    // Partial Fisher–Yates: the first `target` slots become a uniform
    // target-subset.
    for (Vertex i = 0; i < target; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(r.below(scratch.size() -
                                           static_cast<std::size_t>(i)));
      std::swap(scratch[static_cast<std::size_t>(i)], scratch[j]);
    }
    scratch.resize(static_cast<std::size_t>(target));
    std::sort(scratch.begin(), scratch.end());
    out.append(scratch);
  }
  return out;
}

}  // namespace scol
