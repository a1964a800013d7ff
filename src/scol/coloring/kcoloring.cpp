#include "scol/coloring/kcoloring.h"

#include <algorithm>

#include "scol/coloring/small_color_set.h"
#include "scol/util/executor.h"
#include "scol/util/prefetch.h"
#include "scol/util/prime.h"

namespace scol {
namespace {

// q^e, clamped to avoid overflow.
std::int64_t clamped_pow(std::int64_t q, int e) {
  std::int64_t r = 1;
  for (int i = 0; i < e; ++i) {
    if (r > (std::int64_t{1} << 40)) return std::int64_t{1} << 40;
    r *= q;
  }
  return r;
}

struct LinialParams {
  std::int64_t q = 0;
  int t = 0;
  std::int64_t palette() const { return q * q; }
};

// Best (q, t): minimize q^2 subject to q prime, q > d*t, q^{t+1} >= k.
LinialParams linial_params(std::int64_t k, Vertex d) {
  LinialParams best;
  for (int t = 1; t <= 42; ++t) {
    std::int64_t q = next_prime(static_cast<std::int64_t>(d) * t + 1);
    while (clamped_pow(q, t + 1) < k) q = next_prime(q + 1);
    if (best.q == 0 || q * q < best.palette()) best = {q, t};
  }
  return best;
}

}  // namespace

std::int64_t linial_next_palette(std::int64_t k, Vertex d) {
  return linial_params(k, d).palette();
}

DegreeColoringResult distributed_degree_coloring(const Graph& g, Vertex dmax,
                                                 Rounds& rounds,
                                                 std::string_view phase) {
  SCOL_REQUIRE(dmax >= g.max_degree(), + "dmax must bound the max degree");
  rounds.charge(phase, 0);
  const Executor& exec = rounds.exec();
  const Vertex n = g.num_vertices();
  DegreeColoringResult out;
  out.coloring.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) out.coloring[static_cast<std::size_t>(v)] = v;

  const Vertex target = std::min<Vertex>(dmax + 1, std::max<Vertex>(n, 1));
  std::int64_t k = std::max<Vertex>(n, 1);  // current palette size
  const Vertex d = std::max<Vertex>(dmax, 1);

  // --- Linial reduction rounds (one communication round each). ---
  while (k > target) {
    const LinialParams p = linial_params(k, d);
    if (p.palette() >= k) break;  // no further improvement possible
    // One synchronous round: every node reads only its neighbors' previous
    // colors, so the vertex map is one Rounds::round. Two flat tables
    // hoist the modular arithmetic out of the search loop: per-vertex
    // base-q digits of the current color, and x^i mod q for every
    // evaluation point. One polynomial evaluation then costs t+1 multiply-
    // adds and a single % q (all partial sums fit: (t+1) * q^2 < 2^63).
    const std::size_t width = static_cast<std::size_t>(p.t) + 1;
    std::vector<std::int64_t> digits(static_cast<std::size_t>(n) * width);
    parallel_for_index(exec, static_cast<std::size_t>(n), [&](std::size_t i) {
      std::int64_t c = out.coloring[i];
      for (std::size_t j = 0; j < width; ++j) {
        digits[i * width + j] = c % p.q;
        c /= p.q;
      }
    });
    std::vector<std::int64_t> pow_table(static_cast<std::size_t>(p.q) * width);
    for (std::int64_t x = 0; x < p.q; ++x) {
      std::int64_t xp = 1;
      for (std::size_t j = 0; j < width; ++j) {
        pow_table[static_cast<std::size_t>(x) * width + j] = xp;
        xp = (xp * x) % p.q;
      }
    }
    const auto eval = [&](std::size_t vertex, std::int64_t x) {
      const std::int64_t* dg = digits.data() + vertex * width;
      const std::int64_t* pw =
          pow_table.data() + static_cast<std::size_t>(x) * width;
      std::int64_t val = 0;
      for (std::size_t j = 0; j < width; ++j) val += dg[j] * pw[j];
      return val % p.q;
    };
    std::vector<Color> next(static_cast<std::size_t>(n));
    rounds.round(phase, static_cast<std::size_t>(n), [&](std::size_t begin,
                                                         std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const Vertex v = static_cast<Vertex>(i);
        std::int64_t chosen_x = -1;
        for (std::int64_t x = 0; x < p.q && chosen_x < 0; ++x) {
          bool ok = true;
          const std::int64_t mine = eval(i, x);
          for (Vertex w : g.neighbors(v)) {
            if (eval(static_cast<std::size_t>(w), x) == mine) {
              ok = false;
              break;
            }
          }
          if (ok) chosen_x = x;
        }
        SCOL_CHECK(chosen_x >= 0, + "cover-free family must provide a point");
        next[i] = static_cast<Color>(chosen_x * p.q + eval(i, chosen_x));
      }
    });
    out.coloring = std::move(next);
    k = p.palette();
  }

  // --- Reduce one color value per round down to the target palette. ---
  // In round for value c (from k-1 down to target), the class {v : color(v)
  // == c} is an independent set; each member picks the smallest color in
  // [0, target) unused by its neighbors (exists: deg <= dmax < target).
  // The class {v : color(v) == c} is an independent set (the coloring is
  // proper throughout), so its members' neighbors keep their colors for the
  // whole round — the in-place update is race-free and order-independent.
  // Classes are bucketed up front (recolored vertices land below target and
  // are never revisited), so each round touches only its own members
  // instead of scanning all n.
  std::vector<std::vector<Vertex>> classes;
  if (k > target) {
    classes.resize(static_cast<std::size_t>(k - target));
    for (Vertex v = 0; v < n; ++v) {
      const Color cv = out.coloring[static_cast<std::size_t>(v)];
      if (cv >= target)
        classes[static_cast<std::size_t>(cv - target)].push_back(v);
    }
  }
  for (std::int64_t c = k - 1; c >= target; --c) {
    const auto& members = classes[static_cast<std::size_t>(c - target)];
    // One forbidden-set per chunk, cleared per member (clear() only
    // touches the words the last member dirtied) — a fresh set would pay
    // a heap allocation per vertex.
    rounds.round(phase, members.size(), [&](std::size_t begin,
                                            std::size_t end) {
      SmallColorSet used;
      for (std::size_t mi = begin; mi < end; ++mi) {
        const std::size_t i = static_cast<std::size_t>(members[mi]);
        // Pull the next member's adjacency row while this one picks.
        if (mi + 1 < end)
          SCOL_PREFETCH_RO(g.neighbors(members[mi + 1]).data());
        // At most deg <= dmax neighbor colors block the pick; the
        // bitset's word scan finds the smallest free color branchlessly.
        used.clear();
        const auto nb = g.neighbors(static_cast<Vertex>(i));
        for (std::size_t j = 0; j < nb.size(); ++j) {
          if (j + kPrefetchAhead < nb.size())
            SCOL_PREFETCH_RO(&out.coloring[static_cast<std::size_t>(
                nb[j + kPrefetchAhead])]);
          const Color cw = out.coloring[static_cast<std::size_t>(nb[j])];
          if (cw >= 0 && cw < target) used.insert(cw);
        }
        out.coloring[i] = used.smallest_free();
      }
    });
  }

  out.palette = target;
  return out;
}

}  // namespace scol
