#include "scol/local/shard.h"

#include <algorithm>
#include <cstdint>

#include "scol/util/check.h"

namespace scol {
namespace {

// Balanced range cuts over the CSR: shard s gets an equal share of
// sum(degree(v) + 1), the same monotone quantity the counting-sort builder
// lays out, so shards hold contiguous vertex ranges with near-equal
// adjacency footprints.
std::vector<std::int64_t> range_cuts(const Graph& g, int p) {
  const std::int64_t n = g.num_vertices();
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t v = 0; v < n; ++v) {
    prefix[v + 1] = prefix[v] + g.degree(static_cast<Vertex>(v)) + 1;
  }
  const std::int64_t total = prefix[n];
  std::vector<std::int64_t> cuts(static_cast<std::size_t>(p) + 1, 0);
  cuts[p] = n;
  for (int s = 1; s < p; ++s) {
    const std::int64_t target = total * s / p;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    std::int64_t c = static_cast<std::int64_t>(it - prefix.begin());
    cuts[s] = std::clamp<std::int64_t>(c, cuts[s - 1], n);
  }
  return cuts;
}

}  // namespace

int ShardPlan::owner(Vertex v) const {
  SCOL_DCHECK(v >= 0 && static_cast<std::size_t>(v) < num_vertices);
  const auto it = std::upper_bound(cuts.begin() + 1, cuts.end(),
                                   static_cast<std::int64_t>(v));
  return static_cast<int>(it - (cuts.begin() + 1));
}

ShardPlan ShardPlan::build(const Graph& g, int shards) {
  SCOL_REQUIRE(shards >= 1, + "shard count must be >= 1");
  ShardPlan plan;
  plan.shards = shards;
  plan.num_vertices = static_cast<std::size_t>(g.num_vertices());
  plan.cuts = range_cuts(g, plan.shards);

  for (Vertex v = 0; static_cast<std::size_t>(v) < plan.num_vertices; ++v) {
    const int s = plan.owner(v);
    int last_t = s;  // adjacency is sorted, so owners are non-decreasing
    for (const Vertex u : g.neighbors(v)) {
      const int t = plan.owner(u);
      if (t == s) continue;
      if (u > v) ++plan.cut_edges;
      if (t != last_t) {
        ++plan.boundary_pairs;  // v updates shard t every round
        last_t = t;
      }
    }
    if (last_t != s) ++plan.boundary_vertices;
  }
  return plan;
}

}  // namespace scol
