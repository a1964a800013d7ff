// Partitioned execution: CSR shards with counted boundary exchange.
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
// parallel_ranges() call whose width equals the graph's vertex count is one
// BSP superstep — each shard runs the body over its own range, and the
// executor counts the superstep. Nothing is actually sent: the bodies read
// shared memory, and the wire volume of a superstep is a property of the
// plan, so messages and bytes are computed as plan x supersteps. Narrower
// loops (palette scans, reductions) run as plain disjoint chunks and are
// not counted. Because the shard ranges are disjoint and exactly cover
// [0, n), results are bit-identical to SerialExecutor — the golden corpus
// pins this for p ∈ {1, 2, 4, 8}.
//
// solve() snapshots the counters around a run and surfaces per-run deltas
// in the report metrics bag when `ShardOptions::metrics` is on. With
// metrics off the executor is observationally identical to serial — that
// is what the byte-compare CI legs and the golden sharded sweep run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/executor.h"
#include "scol/util/thread_pool.h"

namespace scol {

/// How ShardPlan places the p-1 internal cut points.
enum class ShardPartition {
  kRange,    ///< balance sum(degree(v) + 1) per shard (CSR adjacency share)
  kEdgeCut,  ///< kRange start, then local search each cut to reduce cut edges
};

struct ShardOptions {
  int shards = 1;                                  ///< p >= 1
  ShardPartition partition = ShardPartition::kRange;
  bool threaded = false;  ///< run shards on an owned p-thread pool
  bool metrics = true;    ///< surface exchange telemetry in reports
  /// Half-width of the kEdgeCut local-search window around each range cut.
  std::size_t edge_cut_window = 64;
};

/// A contiguous range partition of [0, num_vertices) into p shards, plus
/// the boundary counts the per-round exchange accounting needs.
/// Deterministic: depends only on the graph and options, never on
/// scheduling.
struct ShardPlan {
  static ShardPlan build(const Graph& g, const ShardOptions& options);

  int shards = 1;
  std::size_t num_vertices = 0;
  /// shards + 1 monotone cut points; shard s owns [cuts[s], cuts[s+1]).
  std::vector<std::int64_t> cuts;
  std::int64_t cut_edges = 0;          ///< undirected edges crossing shards
  std::int64_t boundary_vertices = 0;  ///< vertices with any cross neighbor
  /// Sum over ordered shard pairs (s, t), s != t, of the s-owned vertices
  /// with >= 1 neighbor in t: the boundary updates of one superstep.
  std::int64_t boundary_pairs = 0;

  /// Owning shard of v (cuts binary search).
  int owner(Vertex v) const;
  std::size_t shard_begin(int s) const { return static_cast<std::size_t>(cuts[s]); }
  std::size_t shard_end(int s) const { return static_cast<std::size_t>(cuts[s + 1]); }
};

/// Cumulative exchange counters (monotone over the executor's lifetime;
/// solve() reports per-run deltas).
struct ExchangeStats {
  std::int64_t rounds = 0;    ///< BSP supersteps driven
  std::int64_t messages = 0;  ///< rounds * plan.boundary_pairs
  std::int64_t bytes = 0;     ///< messages * (sizeof(Vertex) + sizeof color)
};

/// Executor that drives LOCAL rounds across p CSR shards and accounts for
/// the boundary exchange they imply. Not safe for concurrent
/// parallel_ranges() calls (same contract as ThreadPoolExecutor); campaign
/// builds one per instance.
class ShardedExecutor final : public Executor {
 public:
  /// A wire update is (vertex id, color) — 8 bytes.
  static constexpr std::int64_t kBytesPerUpdate =
      sizeof(Vertex) + sizeof(std::int32_t);

  ShardedExecutor(const Graph& g, const ShardOptions& options);

  int concurrency() const override;
  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override;

  const ShardPlan& plan() const { return plan_; }
  bool metrics_enabled() const { return options_.metrics; }

  /// Snapshot of the cumulative counters (thread-safe).
  ExchangeStats stats() const;

 private:
  void for_each_shard(const std::function<void(int)>& f) const;

  ShardOptions options_;
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;  // threaded mode only
  mutable std::atomic<std::int64_t> supersteps_{0};
};

}  // namespace scol
