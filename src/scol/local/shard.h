// Partitioned execution: CSR shards whose exchange cost the ledger prices.
//
// The paper's algorithms are stated in the LOCAL model — p machines, each
// owning a set of vertices, exchanging boundary colors between synchronous
// rounds. ShardPlan partitions the CSR into p contiguous vertex ranges
// (reusing the monotone degree order the counting-sort builder already
// guarantees) and counts, per ordered shard pair (s, t), the s-owned
// vertices with at least one neighbor in t — exactly the per-round update
// set a real network backend would transmit.
//
// ShardedExecutor implements the Executor seam on top of a plan: a
// parallel_ranges() call whose width equals the graph's vertex count runs
// each shard's body over its own range — the split a multi-machine backend
// would distribute. Nothing is sent and nothing is counted here: the
// bodies read shared memory, and the round count is the RoundLedger's. A
// sharded run's wire cost is therefore ledger rounds x plan.boundary_pairs,
// which solve() computes once after the run. Because the shard ranges are
// disjoint and exactly cover [0, n), results are bit-identical to
// SerialExecutor — the golden corpus pins this for p ∈ {1, 2, 4, 8}.
//
// With `ShardOptions::metrics` on, solve() surfaces that exchange profile
// in the report metrics bag. With metrics off the executor is
// observationally identical to serial — that is what the byte-compare CI
// legs and the golden sharded sweep run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/executor.h"
#include "scol/util/thread_pool.h"

namespace scol {

struct ShardOptions {
  int shards = 1;         ///< p >= 1
  bool threaded = false;  ///< run shards on an owned p-thread pool
  bool metrics = true;    ///< surface exchange telemetry in reports
};

/// A contiguous range partition of [0, num_vertices) into p shards, each
/// holding an equal share of sum(degree(v) + 1), plus the boundary counts
/// the per-round exchange accounting needs. Deterministic: depends only on
/// the graph and options, never on scheduling.
struct ShardPlan {
  static ShardPlan build(const Graph& g, const ShardOptions& options);

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
  std::size_t shard_begin(int s) const { return static_cast<std::size_t>(cuts[s]); }
  std::size_t shard_end(int s) const { return static_cast<std::size_t>(cuts[s + 1]); }
};

/// Executor that drives LOCAL rounds across p CSR shards. Not safe for
/// concurrent parallel_ranges() calls (same contract as
/// ThreadPoolExecutor); campaign builds one per instance.
class ShardedExecutor final : public Executor {
 public:
  ShardedExecutor(const Graph& g, const ShardOptions& options);

  int concurrency() const override;
  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override;

  const ShardPlan& plan() const { return plan_; }
  bool metrics_enabled() const { return options_.metrics; }

 private:
  void for_each_shard(const std::function<void(int)>& f) const;

  ShardOptions options_;
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;  // threaded mode only
};

}  // namespace scol
