// Pluggable-executor runtime: thread pool semantics, the Rounds contract,
// and bit-identical serial vs. thread-pool execution (states AND ledger
// charges) across engine-oracle programs, the distributed kernels, and
// seeds. The determinism contract is the whole point of the runtime: a
// parallel run must be indistinguishable from a serial run. Also the
// ShardPlan partition and the exchange pricing built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "scol/api/campaign.h"
#include "scol/api/json.h"
#include "scol/api/oneshot.h"
#include "scol/api/scenario.h"
#include "scol/coloring/ert.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/randomized.h"
#include "scol/coloring/ruling.h"
#include "scol/coloring/types.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/local/rounds.h"
#include "scol/local/shard.h"
#include "scol/local/validate.h"
#include "scol/util/executor.h"
#include "scol/util/thread_pool.h"

#include "engine_oracle.h"

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

// round() visits [0, width) exactly once and charges exactly one round
// per call, under serial and pool executors; an empty round still charges
// its round and never calls the body.
TEST(RoundsSeam, RoundVisitsOnceAndChargesOne) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  for (const Executor* exec : {static_cast<const Executor*>(nullptr),
                               static_cast<const Executor*>(&pool)}) {
    RoundLedger ledger;
    Rounds rounds(ledger, exec);
    for (std::size_t width : {1u, 16u, 17u, 1000u}) {
      std::vector<std::atomic<int>> hits(width);
      const std::int64_t before = ledger.total();
      rounds.round("work", width, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "width " << width;
      EXPECT_EQ(ledger.total(), before + 1);
    }
    rounds.round("empty", 0, [](std::size_t, std::size_t) { FAIL(); });
    rounds.charge("priced", 7);
    rounds.charge("opened", 0);
    EXPECT_EQ(ledger.breakdown(),
              (std::vector<std::pair<std::string, std::int64_t>>{
                  {"work", 4}, {"empty", 1}, {"priced", 7}, {"opened", 0}}));
  }
}

// Engine-oracle programs must produce identical states and identical
// ledger charges under serial and thread-pool executors.
TEST(EngineParallel, FloodingBitIdenticalAcrossExecutors) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2027);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(300, 700, rng);
    for (int r : {0, 1, 3}) {
      RoundLedger serial_ledger, pool_ledger;
      Rounds serial_rounds(serial_ledger), pool_rounds(pool_ledger, &pool);
      const auto serial = flood_balls_engine(g, r, serial_rounds);
      const auto parallel = flood_balls_engine(g, r, pool_rounds);
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
    RoundLedger ledger;
    Rounds pool_rounds(ledger, &pool);
    const auto serial = run_synchronous(g, init, 9, min_propagation);
    const auto parallel =
        run_synchronous(g, init, 9, min_propagation, pool_rounds);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(ledger.phase("engine"), 9);
  }
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
      const auto serial = randomized_list_coloring(g, lists, serial_rng);
      const auto parallel =
          randomized_list_coloring(g, lists, pool_rng, &pool);
      EXPECT_EQ(serial.coloring, parallel.coloring);
      EXPECT_EQ(serial.rounds, parallel.rounds);
      EXPECT_EQ(serial.ledger.phase("randomized-coloring"),
                parallel.ledger.phase("randomized-coloring"));
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
    Rounds serial_rounds(serial_ledger), pool_rounds(pool_ledger, &pool);
    const auto serial = distributed_degree_coloring(g, d, serial_rounds);
    const auto parallel = distributed_degree_coloring(g, d, pool_rounds);
    EXPECT_EQ(serial.coloring, parallel.coloring);
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
    Rounds serial_rounds(serial_ledger), pool_rounds(pool_ledger, &pool);
    const RulingForest serial = ruling_forest(g, in_u, alpha, serial_rounds);
    const RulingForest parallel = ruling_forest(g, in_u, alpha, pool_rounds);
    EXPECT_EQ(serial.root, parallel.root);
    EXPECT_EQ(serial.parent, parallel.parent);
    EXPECT_EQ(serial.depth, parallel.depth);
    EXPECT_EQ(serial.roots, parallel.roots);
    EXPECT_EQ(serial.max_depth, parallel.max_depth);
    EXPECT_EQ(serial_ledger.phase("ruling-forest"),
              pool_ledger.phase("ruling-forest"));
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

// --- Exchange pricing: partition structure --------------------------------

TEST(ShardPlan, CutsCoverAndBoundariesMatchBruteForce) {
  Rng rng(2053);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(200, 500, rng);
    for (int p : {1, 2, 3, 5, 8}) {
      const ShardPlan plan = ShardPlan::build(g, p);
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

// --- Exchange pricing: one-shot reports and campaign lines -----------------

// `obj` minus its top-level "shards" field and, inside "metrics", the four
// exchange keys: what a priced report must reduce to.
std::string unpriced(const Json& obj) {
  static const std::vector<std::string> kExchangeKeys = {
      "shards", "exchange_messages", "boundary_vertices", "cut_edges"};
  const auto strip = [](const Json& o, const std::vector<std::string>& keys) {
    Json out = Json::object();
    for (const auto& [name, value] : o.members())
      if (std::find(keys.begin(), keys.end(), name) == keys.end())
        out.set(name, value);
    return out;
  };
  Json out = strip(obj, {"shards"});
  out.set("metrics", strip(*obj.get("metrics"), kExchangeKeys));
  return out.dump();
}

// Checks one priced report against the plan of its graph and against the
// unpriced report of the same run.
void expect_priced(const Json& priced, const Json& serial, const Graph& g,
                   int p, const std::string& where) {
  const Json& metrics = *priced.get("metrics");
  const std::int64_t rounds = priced.get("rounds")->as_int();
  const std::int64_t messages = metrics.get("exchange_messages")->as_int();
  EXPECT_EQ(metrics.get("shards")->as_int(), p) << where;
  EXPECT_EQ(messages, rounds * ShardPlan::build(g, p).boundary_pairs)
      << where;
  if (p == 1) {
    EXPECT_EQ(messages, 0) << where;
  }
  EXPECT_EQ(unpriced(priced), serial.dump()) << where;
}

// The exchange is priced from the ledger, so it agrees with the report's
// rounds by construction: exactly one update per boundary pair per LOCAL
// round, none on a single shard, and the rest of the report is the serial
// bytes — in one-shot reports and in every campaign line.
TEST(ShardPlan, ExchangeIsLedgerRoundsTimesBoundaryPairs) {
  for (const char* algo : {"sparse", "randomized", "linial", "greedy"}) {
    OneShotSpec spec;
    spec.scenario = "regular:n=96,d=4";
    spec.algorithm = algo;
    spec.seed = 11;
    spec.include_timing = false;
    spec.with_coloring = true;
    const Json serial = Json::parse(one_shot_report(spec).dump());
    Rng rng(spec.seed);
    const Graph g = build_scenario(spec.scenario, rng);
    for (int p : {1, 2, 4}) {
      spec.shards = p;
      expect_priced(Json::parse(one_shot_report(spec).dump()), serial, g, p,
                    std::string("one-shot ") + algo + " p=" +
                        std::to_string(p));
    }
  }

  CampaignSpec spec;
  spec.scenarios = {"regular:n=64,d=4", "planar:n=80", "grid:rows=6,cols=6"};
  spec.algorithms = {"greedy", "sparse", "randomized", "dplus1-sparsified"};
  spec.seeds = 2;
  const auto lines = [&spec] {
    std::vector<std::string> out;
    run_campaign(spec, {}, [&](const std::string& l) { out.push_back(l); });
    return out;
  };
  const std::vector<std::string> serial = lines();
  spec.exec_shards = 4;
  const std::vector<std::string> priced = lines();
  ASSERT_EQ(priced.size(), serial.size());
  for (std::size_t i = 0; i < priced.size(); ++i) {
    const Json line = Json::parse(priced[i]);
    EXPECT_EQ(line.get("shards")->as_int(), 4) << priced[i];
    Rng rng(static_cast<std::uint64_t>(line.get("seed")->as_int()));
    const Graph g = build_scenario(
        line.get("scenario")->get("spec")->as_str(), rng);
    expect_priced(line, Json::parse(serial[i]), g, 4, priced[i]);
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
