#include "scol/coloring/types.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
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

ListAssignment ListAssignment::select(std::span<const Vertex> vertices) const {
  ListAssignment out;
  if (uniform_) {
    out = *this;
    out.n_ = static_cast<Vertex>(vertices.size());
    return out;
  }
  std::size_t total = 0;
  for (Vertex v : vertices) total += of(v).size();
  out.reserve(static_cast<Vertex>(vertices.size()), total);
  for (Vertex v : vertices) out.append(of(v));
  return out;
}

std::size_t ListAssignment::min_list_size() const {
  if (size() == 0) return 0;
  if (uniform_) return colors_.size();
  std::size_t m = ~static_cast<std::size_t>(0);
  for (Vertex v = 0; v < size(); ++v) m = std::min(m, of(v).size());
  return m;
}

std::vector<Color> ListAssignment::palette() const {
  if (uniform_) return n_ > 0 ? colors_ : std::vector<Color>{};
  std::vector<Color> all(colors_);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

bool ListAssignment::canonical() const {
  // Sorted and duplicate-free is strictly increasing: one pass per list,
  // and a uniform assignment has one list.
  const Vertex lists = uniform_ ? std::min<Vertex>(n_, 1) : n_;
  for (Vertex v = 0; v < lists; ++v) {
    const auto l = of(v);
    if (std::adjacent_find(l.begin(), l.end(), std::greater_equal<>()) !=
        l.end())
      return false;
  }
  return true;
}

ListAssignment uniform_lists(Vertex n, Color k) {
  SCOL_REQUIRE(n >= 0 && k >= 1);
  ListAssignment out;
  out.colors_.resize(static_cast<std::size_t>(k));
  for (Color c = 0; c < k; ++c) out.colors_[static_cast<std::size_t>(c)] = c;
  out.n_ = n;
  out.uniform_ = true;
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
  if (lists.uniform()) {
    // Every list is [0, k).
    const auto k = static_cast<Color>(lists.min_list_size());
    return std::all_of(c.begin(), c.end(), [k](Color x) {
      return x == kUncolored || (x >= 0 && x < k);
    });
  }
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == kUncolored) continue;
    if (!list_contains(lists.of(static_cast<Vertex>(v)), c[v])) return false;
  }
  return true;
}

// Counts the distinct colored values, any color range (negative or far
// above n). When the span [min, max] (in int64: it can exceed int32) is at
// most c.size(), a mark array over it counts in O(n); otherwise a sorted
// copy does. Either way it is one allocation of at most c.size() entries.
Vertex count_colors(const Coloring& c) {
  Color lo = std::numeric_limits<Color>::max();
  Color hi = std::numeric_limits<Color>::min();
  for (Color x : c) {
    if (x == kUncolored) continue;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (lo > hi) return 0;  // nothing colored
  const std::int64_t span = static_cast<std::int64_t>(hi) - lo + 1;
  if (span <= static_cast<std::int64_t>(c.size())) {
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(span), 0);
    Vertex count = 0;
    for (Color x : c) {
      if (x == kUncolored) continue;
      std::uint8_t& s = seen[static_cast<std::size_t>(
          static_cast<std::int64_t>(x) - lo)];
      count += s ^ 1;
      s = 1;
    }
    return count;
  }
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
