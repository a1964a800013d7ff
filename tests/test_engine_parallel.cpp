// Pluggable-executor runtime: thread pool semantics, and bit-identical
// serial vs. thread-pool execution (states AND RoundLedger charges) across
// engine programs, the coloring call sites that accept executors, and
// seeds. The determinism contract is the whole point of the runtime: a
// parallel run must be indistinguishable from a serial run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "proptest.h"
#include "scol/api/json.h"
#include "scol/coloring/ert.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/randomized.h"
#include "scol/coloring/ruling.h"
#include "scol/coloring/types.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/local/balls.h"
#include "scol/local/engine.h"
#include "scol/local/shard.h"
#include "scol/local/validate.h"
#include "scol/util/executor.h"
#include "scol/util/thread_pool.h"

namespace scol {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.run_chunks(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run_chunks(17, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPool, PropagatesFirstExceptionByChunkIndex) {
  ThreadPool pool(4);
  try {
    pool.run_chunks(64, [&](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  // The pool must still be usable after an exception.
  std::atomic<int> sum{0};
  pool.run_chunks(8, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), 8);
}

TEST(Executor, ParallelRangesCoverExactly) {
  ThreadPoolExecutor exec(4, /*grain=*/8);
  std::vector<int> hit(1000, 0);
  exec.parallel_ranges(hit.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hit[i];
  });
  for (int h : hit) EXPECT_EQ(h, 1);
  // Empty range is a no-op.
  exec.parallel_ranges(0, [&](std::size_t, std::size_t) { FAIL(); });
}

// Engine programs must produce identical states and identical ledger
// charges under serial and thread-pool executors.
TEST(EngineParallel, FloodingBitIdenticalAcrossExecutors) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2027);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(300, 700, rng);
    for (int r : {0, 1, 3}) {
      RoundLedger serial_ledger, pool_ledger;
      const auto serial = flood_balls_engine(g, r, &serial_ledger);
      const auto parallel = flood_balls_engine(g, r, &pool_ledger, &pool);
      EXPECT_EQ(serial, parallel);
      EXPECT_EQ(serial_ledger.total(), pool_ledger.total());
      EXPECT_EQ(serial_ledger.phase("flood-balls"),
                pool_ledger.phase("flood-balls"));
    }
  }
}

TEST(EngineParallel, RunSynchronousMatchesOnFamilies) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2029);
  const auto min_propagation = [](Vertex, const Vertex& self,
                                  NeighborStates<Vertex> nb) {
    Vertex best = self;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const Vertex d = nb.state(i);
      if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
    }
    return best;
  };
  for (const Graph& g : {gnm(500, 1200, rng), grid(22, 23),
                         random_stacked_triangulation(400, rng)}) {
    std::vector<Vertex> init(static_cast<std::size_t>(g.num_vertices()), -1);
    init[0] = 0;
    const auto serial = run_synchronous(g, init, 9, min_propagation);
    const auto parallel = run_synchronous(
        g, init, 9, min_propagation, EngineOptions{&pool, nullptr, "engine"});
    EXPECT_EQ(serial, parallel);
  }
}

TEST(EngineParallel, RunUntilStableMatchesRoundsAndStates) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2031);
  const Graph g = gnm(400, 900, rng);
  std::vector<int> init(static_cast<std::size_t>(g.num_vertices()), 0);
  init[7] = 1;
  const auto max_spread = [](Vertex, const int& self, NeighborStates<int> nb) {
    int best = self;
    for (std::size_t i = 0; i < nb.size(); ++i)
      best = std::max(best, nb.state(i));
    return best;
  };
  RoundLedger serial_ledger, pool_ledger;
  auto [s_states, s_used] = run_until_stable(
      g, init, 1000, max_spread,
      EngineOptions{nullptr, &serial_ledger, "spread"});
  auto [p_states, p_used] = run_until_stable(
      g, init, 1000, max_spread, EngineOptions{&pool, &pool_ledger, "spread"});
  EXPECT_EQ(s_states, p_states);
  EXPECT_EQ(s_used, p_used);
  EXPECT_EQ(serial_ledger.phase("spread"), pool_ledger.phase("spread"));
}

TEST(EngineParallel, RandomizedColoringBitIdenticalPerSeed) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng g_rng(2033);
  for (const Graph& g :
       {gnm(250, 600, g_rng), grid(14, 15), random_regular(200, 4, g_rng)}) {
    const ListAssignment lists = uniform_lists(
        g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
    for (std::uint64_t seed : {1ULL, 42ULL, 2026ULL}) {
      Rng serial_rng(seed), pool_rng(seed);
      RoundLedger serial_ledger, pool_ledger;
      const auto serial = randomized_list_coloring(g, lists, serial_rng,
                                                   &serial_ledger);
      const auto parallel = randomized_list_coloring(
          g, lists, pool_rng, &pool_ledger, &pool);
      EXPECT_EQ(serial.coloring, parallel.coloring);
      EXPECT_EQ(serial.rounds, parallel.rounds);
      EXPECT_EQ(serial_ledger.phase("randomized-coloring"),
                pool_ledger.phase("randomized-coloring"));
      expect_proper_list_coloring(g, *parallel.coloring, lists, &pool);
    }
  }
}

TEST(EngineParallel, DegreeColoringBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2039);
  for (Vertex d : {3, 5}) {
    const Graph g = random_regular(240, d, rng);
    RoundLedger serial_ledger, pool_ledger;
    const auto serial =
        distributed_degree_coloring(g, d, &serial_ledger);
    const auto parallel =
        distributed_degree_coloring(g, d, &pool_ledger, &pool);
    EXPECT_EQ(serial.coloring, parallel.coloring);
    EXPECT_EQ(serial.rounds, parallel.rounds);
    EXPECT_EQ(serial.palette, parallel.palette);
    EXPECT_EQ(serial_ledger.total(), pool_ledger.total());
    expect_proper_with_at_most(g, parallel.coloring, d + 1, &pool);
  }
}

TEST(EngineParallel, RulingForestBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2041);
  const Graph g = gnm(350, 800, rng);
  std::vector<char> in_u(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v = 0; v < g.num_vertices(); v += 3)
    in_u[static_cast<std::size_t>(v)] = 1;
  for (Vertex alpha : {2, 5}) {
    RoundLedger serial_ledger, pool_ledger;
    const RulingForest serial =
        ruling_forest(g, in_u, alpha, &serial_ledger, nullptr, "ruling");
    const RulingForest parallel =
        ruling_forest(g, in_u, alpha, &pool_ledger, &pool, "ruling");
    EXPECT_EQ(serial.root, parallel.root);
    EXPECT_EQ(serial.parent, parallel.parent);
    EXPECT_EQ(serial.depth, parallel.depth);
    EXPECT_EQ(serial.roots, parallel.roots);
    EXPECT_EQ(serial.max_depth, parallel.max_depth);
    EXPECT_EQ(serial_ledger.phase("ruling"), pool_ledger.phase("ruling"));
  }
}

TEST(EngineParallel, DegreeChoosableColoringBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2047);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = random_non_gallai(120, rng);
    AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      auto& list = avail[static_cast<std::size_t>(v)];
      for (Color c = 0; c < g.degree(v); ++c) list.push_back(c);
    }
    const Coloring serial = degree_choosable_coloring(g, avail);
    const Coloring parallel = degree_choosable_coloring(g, avail, &pool);
    EXPECT_EQ(serial, parallel);
  }
}

TEST(EngineParallel, ValidatorsReportIdenticalViolations) {
  ThreadPoolExecutor pool(4, /*grain=*/4);
  const Graph g = grid(10, 10);
  Coloring bad(static_cast<std::size_t>(g.num_vertices()), 0);  // all equal
  std::string serial_msg, pool_msg;
  try {
    expect_proper(g, bad);
  } catch (const InternalError& e) {
    serial_msg = e.what();
  }
  try {
    expect_proper(g, bad, &pool);
  } catch (const InternalError& e) {
    pool_msg = e.what();
  }
  EXPECT_FALSE(serial_msg.empty());
  EXPECT_EQ(serial_msg, pool_msg);
}

// --- Sharded executor: partition structure -------------------------------

TEST(ShardPlan, CutsCoverAndBoundariesMatchBruteForce) {
  Rng rng(2053);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(200, 500, rng);
    for (int p : {1, 2, 3, 5, 8}) {
      ShardOptions options;
      options.shards = p;
      const ShardPlan plan = ShardPlan::build(g, options);
      ASSERT_EQ(plan.shards, p);
      ASSERT_EQ(static_cast<int>(plan.cuts.size()), p + 1);
      EXPECT_EQ(plan.cuts.front(), 0);
      EXPECT_EQ(plan.cuts.back(), g.num_vertices());
      for (int s = 0; s < p; ++s) EXPECT_LE(plan.cuts[s], plan.cuts[s + 1]);
      // owner() agrees with the ranges.
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const int s = plan.owner(v);
        EXPECT_GE(static_cast<std::int64_t>(v), plan.cuts[s]);
        EXPECT_LT(static_cast<std::int64_t>(v), plan.cuts[s + 1]);
      }
      // Cut edges and boundary counts vs. brute force.
      std::int64_t cut = 0, bvs = 0, pairs = 0;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const int s = plan.owner(v);
        std::vector<char> sends(static_cast<std::size_t>(p), 0);
        for (const Vertex u : g.neighbors(v)) {
          const int t = plan.owner(u);
          if (t == s) continue;
          sends[static_cast<std::size_t>(t)] = 1;
          if (u > v) ++cut;
        }
        const auto targets = std::count(sends.begin(), sends.end(), 1);
        if (targets > 0) ++bvs;
        pairs += targets;
      }
      EXPECT_EQ(plan.cut_edges, cut);
      EXPECT_EQ(plan.boundary_vertices, bvs);
      EXPECT_EQ(plan.boundary_pairs, pairs);
    }
  }
}

// --- Sharded executor: bit-identity and exchange accounting --------------

TEST(ShardedExecutor, EngineBitIdenticalAcrossShardCountsAndModes) {
  Rng rng(2057);
  const Graph g = gnm(300, 700, rng);
  RoundLedger serial_ledger;
  const auto serial = flood_balls_engine(g, 3, &serial_ledger);
  for (int p : {1, 2, 4, 8}) {
    for (const bool threaded : {false, true}) {
      ShardOptions options;
      options.shards = p;
      options.threaded = threaded;
      ShardedExecutor sharded(g, options);
      RoundLedger ledger;
      const auto got = flood_balls_engine(g, 3, &ledger, &sharded);
      EXPECT_EQ(serial, got) << "p=" << p << " threaded=" << threaded;
      EXPECT_EQ(serial_ledger.total(), ledger.total());
    }
  }
}

TEST(ShardedExecutor, RandomizedColoringBitIdenticalAndModesAgree) {
  Rng g_rng(2059);
  const Graph g = random_regular(200, 4, g_rng);
  const ListAssignment lists = uniform_lists(
      g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
  Rng serial_rng(7);
  const auto serial = randomized_list_coloring(g, lists, serial_rng);
  for (int p : {2, 5}) {
    ShardOptions options;
    options.shards = p;
    ShardedExecutor sequential(g, options);
    options.threaded = true;
    ShardedExecutor threaded(g, options);
    Rng seq_rng(7), thr_rng(7);
    const auto seq = randomized_list_coloring(g, lists, seq_rng, nullptr,
                                              &sequential);
    const auto thr = randomized_list_coloring(g, lists, thr_rng, nullptr,
                                              &threaded);
    EXPECT_EQ(serial.coloring, seq.coloring);
    EXPECT_EQ(serial.rounds, seq.rounds);
    EXPECT_EQ(seq.coloring, thr.coloring);
  }
}

// Every index runs exactly once whatever the loop width: full-width
// sweeps split on the shard ranges, narrower loops split p ways, and loops
// below the inline threshold run as one range on the caller.
TEST(ShardedExecutor, EveryIndexRunsOnceAtEveryWidth) {
  Rng rng(2065);
  const Graph g = gnm(600, 1500, rng);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  for (const bool threaded : {false, true}) {
    ShardOptions options;
    options.shards = 3;
    options.threaded = threaded;
    const ShardedExecutor sharded(g, options);
    for (const std::size_t width :
         {std::size_t{0}, std::size_t{100}, n - 1, n}) {
      std::vector<int> hit(width, 0);
      sharded.parallel_ranges(width, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hit[i];
      });
      for (std::size_t i = 0; i < width; ++i)
        EXPECT_EQ(hit[i], 1) << "width " << width << " index " << i
                             << " threaded=" << threaded;
    }
  }
}

// The exchange telemetry is priced from the ledger, so it agrees with the
// report's rounds by construction: exactly one update per boundary pair
// per LOCAL round, none on a single shard, and the rest of the report is
// the serial bytes.
TEST(ShardedExecutor, ExchangeIsLedgerRoundsTimesBoundaryPairs) {
  Rng rng(2063);
  const ParamBag params;
  const auto report_of = [](const ColoringRequest& req, std::uint64_t seed,
                            const Executor* exec) {
    RunContext ctx;
    ctx.seed = seed;
    ctx.executor = exec;
    ctx.validate = true;
    ColoringReport report = solve(req, ctx);
    report.wall_ms = 0.0;
    return report;
  };
  const std::vector<std::string> shard_keys = {
      "shards", "exchange_messages", "boundary_vertices", "cut_edges"};
  for (int trial = 0; trial < 3; ++trial) {
    const proptest::Sample sample = proptest::random_graph(rng);
    const Graph& g = sample.graph;
    const auto cells = proptest::eligible_cells(g, params, probe_graph(g, {}));
    const std::uint64_t seed = 1 + rng.below(1000);
    for (const proptest::EligibleCell& cell : cells) {
      const ColoringRequest req = proptest::cell_request(cell, g);
      const std::string serial =
          to_json(report_of(req, seed, nullptr), true).dump();
      for (int p : {1, 2, 4}) {
        ShardOptions options;
        options.shards = p;
        const ShardedExecutor sharded(g, options);
        ColoringReport r = report_of(req, seed, &sharded);
        const std::string where = sample.description + " algo=" +
                                  cell.info->name + " p=" + std::to_string(p);
        const std::int64_t messages =
            r.metrics.get_int("exchange_messages", -1);
        EXPECT_EQ(r.metrics.get_int("shards", -1), p) << where;
        EXPECT_EQ(messages, r.rounds * sharded.plan().boundary_pairs) << where;
        if (p == 1) {
          EXPECT_EQ(messages, 0) << where;
        }
        ParamBag stripped;
        for (const auto& [name, value] : r.metrics.items())
          if (std::find(shard_keys.begin(), shard_keys.end(), name) ==
              shard_keys.end())
            stripped.set(name, value);
        r.metrics = stripped;
        EXPECT_EQ(serial, to_json(r, true).dump()) << where;
      }
    }
  }
}

// The tentpole property: sharded solve() reports are bit-for-bit the
// serial reports — across shard counts, across eligible algorithms, and
// on permuted-id twins of the instance (where serial-on-the-twin is the
// oracle for sharded-on-the-twin). Telemetry is off so the whole report,
// metrics bag included, must match byte-for-byte.
TEST(ShardedExecutor, SolveMatchesSerialAcrossShardCountsAndPermutations) {
  Rng rng(20260808);
  const ParamBag params;  // cells needing explicit params drop out
  const auto report_bytes = [](const ColoringRequest& req, std::uint64_t seed,
                               const Executor* exec) {
    RunContext ctx;
    ctx.seed = seed;
    ctx.executor = exec;
    ctx.validate = true;
    ColoringReport report = solve(req, ctx);
    report.wall_ms = 0.0;  // the only nondeterministic field
    return to_json(report, /*include_coloring=*/true).dump();
  };
  for (int trial = 0; trial < 4; ++trial) {
    const proptest::Sample sample = proptest::random_graph(rng);
    const Graph& g = sample.graph;
    const GraphProbe probe = probe_graph(g, {});
    const auto cells = proptest::eligible_cells(g, params, probe);
    const std::vector<Vertex> perm =
        proptest::random_permutation(g.num_vertices(), rng);
    const Graph twin = permute(g, perm);
    const std::uint64_t seed = 1 + rng.below(1000);
    for (const proptest::EligibleCell& cell : cells) {
      const ColoringRequest req = proptest::cell_request(cell, g);
      const std::string serial = report_bytes(req, seed, nullptr);
      for (int p : {2, 3, 7}) {
        ShardOptions options;
        options.shards = p;
        options.metrics = false;
        ShardedExecutor sharded(g, options);
        EXPECT_EQ(serial, report_bytes(req, seed, &sharded))
            << sample.description << " algo=" << cell.info->name
            << " p=" << p;
      }
      // Permuted twin: same property on relabeled ids (the cuts land
      // elsewhere, so this exercises genuinely different partitions).
      ColoringRequest twin_req = req;
      twin_req.graph = &twin;
      ListAssignment twin_lists;
      if (cell.info->caps.needs_lists) {
        twin_lists = proptest::permuted_lists(cell.lists, perm);
        twin_req.lists = &twin_lists;
      }
      const std::string twin_serial = report_bytes(twin_req, seed, nullptr);
      ShardOptions options;
      options.shards = 4;
      options.metrics = false;
      ShardedExecutor sharded(twin, options);
      EXPECT_EQ(twin_serial, report_bytes(twin_req, seed, &sharded))
          << sample.description << " (permuted) algo=" << cell.info->name;
    }
  }
}

TEST(RngStream, StreamsAreDeterministicAndDecorrelated) {
  Rng a = Rng::stream(99, 7);
  Rng b = Rng::stream(99, 7);
  Rng c = Rng::stream(99, 8);
  Rng d = Rng::stream(100, 7);
  const std::uint64_t a0 = a.next();
  EXPECT_EQ(a0, b.next());
  EXPECT_NE(a0, c.next());
  EXPECT_NE(a0, d.next());
}

}  // namespace
}  // namespace scol
