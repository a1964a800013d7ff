#include "scol/coloring/sparsify.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
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
  const auto t = static_cast<std::size_t>(target);
  ListAssignment out;
  out.reserve(n, std::min(lists.flat().size(),
                          static_cast<std::size_t>(n) * t));
  // Partial Fisher–Yates over list positions rather than colors: pos[i] is
  // the position in Fisher–Yates slot i, and is the identity outside the
  // slots the current vertex swapped (swapped_to), which are reset after
  // it. The chosen positions are marked in `chosen` and read back in
  // increasing order, which, on a canonical list, is the sorted sample —
  // so no list is copied or sorted, and a vertex costs O(target + |L|/64).
  std::vector<std::size_t> pos;
  std::vector<std::size_t> swapped_to(t);
  std::vector<std::uint64_t> chosen;
  std::vector<Color> sample(t);
  for (Vertex v = 0; v < n; ++v) {
    const auto list = lists.of(v);
    const std::size_t len = list.size();
    if (len <= t) {
      out.append(list);
      continue;
    }
    for (std::size_t p = pos.size(); p < len; ++p) pos.push_back(p);
    const std::size_t words = (len + 63) / 64;
    if (chosen.size() < words) chosen.resize(words, 0);
    // Per-(vertex, attempt) stream: the sample depends only on (seed,
    // attempt, v), never on who visits v first.
    Rng r = Rng::stream(seed, (attempt << 32) |
                                  static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(v)));
    // Slot i is final once step i has run: later steps swap slots > i.
    for (std::size_t i = 0; i < t; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(r.below(len - i));
      std::swap(pos[i], pos[j]);
      swapped_to[i] = j;
      chosen[pos[i] >> 6] |= std::uint64_t{1} << (pos[i] & 63);
    }
    std::size_t k = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1)
        sample[k++] =
            list[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      chosen[w] = 0;
    }
    SCOL_REQUIRE(std::adjacent_find(sample.begin(), sample.end(),
                                    std::greater_equal<>()) == sample.end(),
                 + "sparsify_palette: lists must be sorted unique");
    out.append(sample);
    for (std::size_t i = 0; i < t; ++i) {
      pos[i] = i;
      pos[swapped_to[i]] = swapped_to[i];
    }
  }
  return out;
}

}  // namespace scol
