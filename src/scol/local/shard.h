// Exchange pricing: the CSR partition a p-machine LOCAL deployment would
// run on, and the boundary counts that price its per-round exchange.
//
// The paper's algorithms are stated in the LOCAL model — p machines, each
// owning a set of vertices, exchanging boundary colors between synchronous
// rounds. ShardPlan partitions the CSR into p contiguous vertex ranges
// (reusing the monotone degree order the counting-sort builder already
// guarantees) and counts, per ordered shard pair (s, t), the s-owned
// vertices with at least one neighbor in t — exactly the per-round update
// set a real network backend would transmit.
//
// Nothing here executes: a run's wire cost on the partition is ledger
// rounds x boundary_pairs, which callers compute from any report after the
// solve (add_exchange_metrics in api/report.h). The solve itself runs
// under whatever Executor the caller chose, so the coloring, ledger and
// every other report field are the serial ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scol/graph/graph.h"

namespace scol {

/// A contiguous range partition of [0, num_vertices) into p shards, each
/// holding an equal share of sum(degree(v) + 1), plus the boundary counts
/// the per-round exchange accounting needs. Deterministic: depends only on
/// the graph and the shard count.
struct ShardPlan {
  static ShardPlan build(const Graph& g, int shards);

  int shards = 1;
  std::size_t num_vertices = 0;
  /// shards + 1 monotone cut points; shard s owns [cuts[s], cuts[s+1]).
  std::vector<std::int64_t> cuts;
  std::int64_t cut_edges = 0;          ///< undirected edges crossing shards
  std::int64_t boundary_vertices = 0;  ///< vertices with any cross neighbor
  /// Sum over ordered shard pairs (s, t), s != t, of the s-owned vertices
  /// with >= 1 neighbor in t: the boundary updates of one LOCAL round.
  std::int64_t boundary_pairs = 0;

  /// Owning shard of v (cuts binary search).
  int owner(Vertex v) const;
};

}  // namespace scol
