#include "scol/coloring/types.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace scol {

ListAssignment ListAssignment::from_lists(
    const std::vector<std::vector<Color>>& ls) {
  ListAssignment out;
  std::size_t total = 0;
  for (const auto& l : ls) total += l.size();
  out.reserve(static_cast<Vertex>(ls.size()), total);
  for (const auto& l : ls) out.append(l);
  return out;
}

std::vector<std::vector<Color>> to_lists(const ListAssignment& lists) {
  std::vector<std::vector<Color>> out(static_cast<std::size_t>(lists.size()));
  for (Vertex v = 0; v < lists.size(); ++v) {
    const auto l = lists.of(v);
    out[static_cast<std::size_t>(v)].assign(l.begin(), l.end());
  }
  return out;
}

std::size_t ListAssignment::min_list_size() const {
  if (size() == 0) return 0;
  std::size_t m = ~static_cast<std::size_t>(0);
  for (Vertex v = 0; v < size(); ++v) m = std::min(m, of(v).size());
  return m;
}

bool ListAssignment::canonical() const {
  // Sorted and duplicate-free is strictly increasing: one pass per list.
  for (Vertex v = 0; v < size(); ++v) {
    const auto l = of(v);
    if (std::adjacent_find(l.begin(), l.end(), std::greater_equal<>()) !=
        l.end())
      return false;
  }
  return true;
}

ListAssignment uniform_lists(Vertex n, Color k) {
  SCOL_REQUIRE(n >= 0 && k >= 1);
  std::vector<Color> base(static_cast<std::size_t>(k));
  for (Color c = 0; c < k; ++c) base[static_cast<std::size_t>(c)] = c;
  ListAssignment out;
  out.reserve(n, static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (Vertex v = 0; v < n; ++v) out.append(base);
  return out;
}

ListAssignment random_lists(Vertex n, Color k, Color palette_size, Rng& rng) {
  SCOL_REQUIRE(k >= 1 && palette_size >= k);
  ListAssignment out;
  out.reserve(n, static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  std::vector<Color> palette(static_cast<std::size_t>(palette_size));
  for (Color c = 0; c < palette_size; ++c)
    palette[static_cast<std::size_t>(c)] = c;
  std::vector<Color> list(static_cast<std::size_t>(k));
  for (Vertex v = 0; v < n; ++v) {
    rng.shuffle(palette);
    std::copy(palette.begin(), palette.begin() + k, list.begin());
    std::sort(list.begin(), list.end());
    out.append(list);
  }
  return out;
}

Coloring empty_coloring(Vertex n) {
  return Coloring(static_cast<std::size_t>(n), kUncolored);
}

bool is_proper(const Graph& g, const Coloring& c) {
  if (static_cast<Vertex>(c.size()) != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (c[static_cast<std::size_t>(v)] == kUncolored) return false;
  return is_partial_proper(g, c);
}

bool is_partial_proper(const Graph& g, const Coloring& c) {
  if (static_cast<Vertex>(c.size()) != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Color cv = c[static_cast<std::size_t>(v)];
    if (cv == kUncolored) continue;
    for (Vertex w : g.neighbors(v)) {
      if (w > v && c[static_cast<std::size_t>(w)] == cv) return false;
    }
  }
  return true;
}

bool respects_lists(const Coloring& c, const ListAssignment& lists) {
  if (static_cast<Vertex>(c.size()) != lists.size()) return false;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == kUncolored) continue;
    if (!list_contains(lists.of(static_cast<Vertex>(v)), c[v])) return false;
  }
  return true;
}

// Sorts a copy of the colored values and counts the distinct ones: one
// allocation, any color range (negative or far above n).
Vertex count_colors(const Coloring& c) {
  std::vector<Color> used;
  used.reserve(c.size());
  for (Color x : c)
    if (x != kUncolored) used.push_back(x);
  std::sort(used.begin(), used.end());
  return static_cast<Vertex>(std::unique(used.begin(), used.end()) -
                             used.begin());
}

bool list_contains(std::span<const Color> list, Color x) {
  return std::binary_search(list.begin(), list.end(), x);
}

}  // namespace scol
