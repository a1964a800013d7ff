// The serving layer: content digests and canonical cache keys
// (permutation invariance, no cross-type collisions), GraphStore /
// ReportCache semantics (seed normalization, digest addressing, LRU
// eviction, error caching), the NDJSON protocol (strict parsing, error
// recovery, ordering), Zipf sampler sanity, and the end-to-end contract
// that a served report is byte-identical to the library's one-shot path
// under any worker count.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scol/api/oneshot.h"
#include "scol/api/scenario.h"
#include "scol/serve/cache.h"
#include "scol/serve/hash.h"
#include "scol/serve/protocol.h"
#include "scol/serve/server.h"
#include "scol/serve/zipf.h"
#include "scol/util/check.h"
#include "scol/util/rng.h"

namespace scol {
namespace {

Graph build(const std::string& spec, std::uint64_t seed = 1) {
  Rng rng(seed);
  return build_scenario(spec, rng);
}

// --- Digests -----------------------------------------------------------

TEST(Digest, HexRoundTripsAndOrders) {
  const Digest d = hash_graph(build("petersen"));
  EXPECT_EQ(d.hex().size(), 32u);
  EXPECT_EQ(Digest::from_hex(d.hex()), d);
  EXPECT_THROW(Digest::from_hex("short"), PreconditionError);
  EXPECT_THROW(Digest::from_hex(std::string(32, 'g')), PreconditionError);
  const Digest zero;
  EXPECT_TRUE(zero < d || d < zero || d == zero);
}

TEST(Digest, PureFunctionOfGraphContent) {
  EXPECT_EQ(hash_graph(build("grid")), hash_graph(build("grid")));
  // Equivalent specs — defaults spelled out vs elided — produce equal
  // graphs, hence one content address (the tentpole's dedup property).
  EXPECT_EQ(hash_graph(build("grid")),
            hash_graph(build("grid:rows=20,cols=20")));
  EXPECT_EQ(hash_graph(build("regular:n=64,d=4", 7)),
            hash_graph(build("regular:n=64,d=4", 7)));
  // Different content, different address.
  EXPECT_NE(hash_graph(build("grid")), hash_graph(build("grid:rows=21")));
  EXPECT_NE(hash_graph(build("regular:n=64,d=4", 7)),
            hash_graph(build("regular:n=64,d=4", 8)));
  EXPECT_NE(hash_graph(build("petersen")), hash_graph(build("heawood")));
}

TEST(CanonicalParams, OrderInvariantTypeTagged) {
  ParamBag a;
  a.set_int("d", 4).set_real("eps", 0.5).set_str("mode", "x");
  ParamBag b;
  b.set_str("mode", "x").set_int("d", 4).set_real("eps", 0.5);
  EXPECT_EQ(canonical_params(a), canonical_params(b));
  EXPECT_EQ(canonical_params(ParamBag{}), "");

  // Same value, different stored type → different key.
  ParamBag as_int, as_real;
  as_int.set_int("d", 4);
  as_real.set_real("d", 4.0);
  EXPECT_NE(canonical_params(as_int), canonical_params(as_real));

  // Different values never collide, and string boundaries are length-
  // prefixed so an embedded separator cannot forge an entry.
  ParamBag s1, s2;
  s1.set_str("a", "x,b=y");
  s2.set_str("a", "x").set_str("b", "y");
  EXPECT_NE(canonical_params(s1), canonical_params(s2));
}

// --- GraphStore --------------------------------------------------------

TEST(GraphStore, MemoizesAndCountsHits) {
  GraphStore store;
  bool hit = true;
  auto first = store.get_scenario("grid:rows=4,cols=4", 1, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first->graph(), nullptr);
  auto again = store.get_scenario("grid:rows=4,cols=4", 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());  // same entry, not a rebuild
  // Different seed of a *generator* spec is a different graph.
  auto other = store.get_scenario("regular:n=32,d=4", 1, &hit);
  EXPECT_FALSE(hit);
  store.get_scenario("regular:n=32,d=4", 2, &hit);
  EXPECT_FALSE(hit);
  const CacheStats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(GraphStore, FileSpecsIgnoreSeed) {
  const std::string spec =
      std::string("file:path=") + SCOL_REPO_DIR +
      "/examples/graphs/petersen.mtx";
  GraphStore store;
  bool hit = true;
  auto a = store.get_scenario(spec, 1, &hit);
  EXPECT_FALSE(hit);
  auto b = store.get_scenario(spec, 99, &hit);
  EXPECT_TRUE(hit);  // every seed is the same parse
  EXPECT_EQ(a.get(), b.get());
}

TEST(GraphStore, DigestIndexAndErrors) {
  GraphStore store;
  auto entry = store.get_scenario("petersen", 1);
  ASSERT_NE(entry->graph(), nullptr);
  auto by_hash = store.find_digest(entry->digest());
  ASSERT_NE(by_hash, nullptr);
  EXPECT_EQ(by_hash.get(), entry.get());
  EXPECT_EQ(store.find_digest(Digest{1, 2}), nullptr);

  // Build failures are cached (bad path errors once, not per request)
  // and never indexed by digest.
  bool hit = true;
  auto bad = store.get_scenario("file:path=/nonexistent.col", 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(bad->graph(), nullptr);
  EXPECT_FALSE(bad->error().empty());
  auto bad2 = store.get_scenario("file:path=/nonexistent.col", 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(bad.get(), bad2.get());
}

TEST(GraphStore, EvictsLeastRecentlyUsed) {
  GraphStore store(2);
  auto a = store.get_scenario("petersen", 1);
  store.get_scenario("heawood", 1);
  store.get_scenario("petersen", 1);   // touch: heawood is now LRU
  store.get_scenario("grotzsch", 1);   // evicts heawood
  const CacheStats s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_NE(store.find_digest(a->digest()), nullptr);
  EXPECT_EQ(store.find_digest(hash_graph(build("heawood"))), nullptr);
  // The evicted entry's shared_ptr keeps the graph alive for holders.
  EXPECT_NE(a->graph(), nullptr);
}

TEST(ReportCache, FirstWriterWinsAndEvicts) {
  ReportCache cache(2);
  EXPECT_EQ(cache.lookup("k1"), nullptr);
  cache.insert("k1", "v1");
  cache.insert("k1", "ignored");  // first writer wins
  EXPECT_EQ(*cache.lookup("k1"), "v1");
  cache.insert("k2", "v2");
  cache.lookup("k1");             // k2 is now LRU
  cache.insert("k3", "v3");       // evicts k2
  EXPECT_EQ(cache.lookup("k2"), nullptr);
  EXPECT_NE(cache.lookup("k1"), nullptr);
  EXPECT_NE(cache.lookup("k3"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

// --- Zipf --------------------------------------------------------------

TEST(Zipf, DistributionShape) {
  const ZipfSampler uniform(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(uniform.probability(i), 0.25, 1e-12);

  const ZipfSampler skewed(100, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    total += skewed.probability(i);
    if (i > 0) {
      EXPECT_LT(skewed.probability(i), skewed.probability(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Empirical head mass under heavy skew.
  Rng rng(42);
  std::size_t head = 0;
  for (int t = 0; t < 2000; ++t)
    if (skewed.draw(rng) < 10) ++head;
  EXPECT_GT(head, 1000);  // top-10 of 100 keys absorb most draws
  EXPECT_THROW(ZipfSampler(0, 1.0), PreconditionError);
}

// --- Protocol ----------------------------------------------------------

TEST(Protocol, ParsesDefaultsAndRejectsUnknowns) {
  const ServeRequest req = parse_request(
      R"({"id":7,"algo":"greedy","gen":"petersen","seed":3,"k":5,)"
      R"("lists":"random","palette":12,"params":{"d":4,"eps":0.5,)"
      R"("flag":true,"s":"x"},"round_budget":9,"with_coloring":true})");
  EXPECT_EQ(req.op, ServeOp::kSolve);
  EXPECT_EQ(req.id.as_int(), 7);
  EXPECT_EQ(req.spec.algorithm, "greedy");
  EXPECT_EQ(req.spec.scenario, "petersen");
  EXPECT_EQ(req.spec.seed, 3u);
  EXPECT_EQ(req.spec.k, 5);
  EXPECT_EQ(req.spec.lists_mode, "random");
  EXPECT_EQ(req.spec.palette, 12);
  EXPECT_EQ(req.spec.round_budget, 9);
  EXPECT_TRUE(req.spec.with_coloring);
  EXPECT_FALSE(req.spec.include_timing);  // the server's fixed mode
  EXPECT_TRUE(req.spec.validate);
  EXPECT_EQ(req.spec.params.get_int("d", -1), 4);
  EXPECT_EQ(req.spec.params.get_str("s", ""), "x");

  const ServeRequest defaults = parse_request(R"({"algo":"greedy"})");
  EXPECT_TRUE(defaults.id.is_null());
  EXPECT_EQ(defaults.spec.scenario, "grid");
  EXPECT_EQ(defaults.spec.seed, 1u);

  EXPECT_THROW(parse_request("not json"), PreconditionError);
  EXPECT_THROW(parse_request("[1,2]"), PreconditionError);
  EXPECT_THROW(parse_request(R"({"alog":"greedy"})"), PreconditionError);
  EXPECT_THROW(parse_request(R"({"op":"dance"})"), PreconditionError);
  EXPECT_THROW(parse_request(R"({"gen":"grid"})"), PreconditionError);
  EXPECT_THROW(parse_request(R"({"algo":"greedy","seed":"x"})"),
               PreconditionError);
  EXPECT_THROW(parse_request(R"({"algo":"greedy","params":{"a":[1]}})"),
               PreconditionError);
  EXPECT_THROW(
      parse_request(R"({"algo":"greedy","gen":"grid","hash":")" +
                    std::string(32, '0') + R"("})"),
      PreconditionError);
  EXPECT_NO_THROW(parse_request(R"({"op":"stats"})"));  // no algo needed
}

// --- Server end-to-end -------------------------------------------------

std::vector<std::string> serve(const std::vector<std::string>& requests,
                               const ServerOptions& options = {}) {
  std::stringstream in, out;
  for (const auto& r : requests) in << r << "\n";
  Server server(options);
  server.serve_stream(in, out);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(out, line)) lines.push_back(line);
  return lines;
}

TEST(Server, OrdersResponsesEchoesIdsRecoversFromGarbage) {
  const auto lines = serve({
      R"({"id":"a","algo":"greedy","gen":"petersen"})",
      "this is not json",
      R"({"id":3,"algo":"no-such-algorithm"})",
      R"({"id":"b","algo":"greedy","gen":"petersen"})",
  });
  ASSERT_EQ(lines.size(), 4u);
  const Json r0 = Json::parse(lines[0]);
  const Json r1 = Json::parse(lines[1]);
  const Json r2 = Json::parse(lines[2]);
  const Json r3 = Json::parse(lines[3]);
  EXPECT_EQ(r0.get("id")->as_str(), "a");
  EXPECT_TRUE(r0.get("ok")->as_bool());
  // Malformed line → error envelope with a null id, stream continues.
  EXPECT_TRUE(r1.get("id")->is_null());
  EXPECT_FALSE(r1.get("ok")->as_bool());
  EXPECT_EQ(r2.get("id")->as_int(), 3);
  EXPECT_FALSE(r2.get("ok")->as_bool());
  EXPECT_EQ(r3.get("id")->as_str(), "b");
  EXPECT_TRUE(r3.get("ok")->as_bool());
  // Identical request later in the stream: both caches hit.
  EXPECT_EQ(r3.get("cache")->get("graph")->as_str(), "hit");
  EXPECT_EQ(r0.get("cache")->get("report")->as_str(), "miss");
}

TEST(Server, BadListsModeGetsAnErrorEnvelope) {
  // The lists-mode check the one-shot and campaign paths share: a bad
  // value answers its own line with an error and the stream continues.
  const auto lines = serve({
      R"({"id":1,"algo":"randomized","gen":"petersen","lists":"fancy"})",
      R"({"id":2,"algo":"randomized","gen":"petersen","lists":"random"})",
  });
  ASSERT_EQ(lines.size(), 2u);
  const Json bad = Json::parse(lines[0]);
  const Json good = Json::parse(lines[1]);
  EXPECT_FALSE(bad.get("ok")->as_bool());
  EXPECT_NE(bad.get("error")->as_str().find(
                "lists mode must be uniform or random, got 'fancy'"),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(good.get("id")->as_int(), 2);
  ASSERT_TRUE(good.get("ok")->as_bool()) << lines[1];
  EXPECT_EQ(good.get("report")->get("status")->as_str(), "colored");
}

TEST(Server, DeepExactSearchBetweenTwoGoodLines) {
  // exact on pref-attach (n = 65536) is one search-tree level per vertex:
  // the daemon answers it like any other line, in order.
  const auto lines = serve({
      R"({"id":1,"algo":"greedy","gen":"petersen"})",
      R"({"id":2,"algo":"exact","gen":"pref-attach","k":8})",
      R"({"id":3,"algo":"greedy","gen":"petersen"})",
  });
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const Json r = Json::parse(lines[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.get("id")->as_int(), i + 1);
    ASSERT_TRUE(r.get("ok")->as_bool()) << lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.get("report")->get("status")->as_str(), "colored");
  }
}

TEST(Server, StatsShutdownAndHashAddressing) {
  const auto lines = serve({
      R"({"id":1,"algo":"greedy","gen":"petersen"})",
      R"({"id":2,"op":"stats"})",
      R"({"id":3,"op":"shutdown"})",
      R"({"id":4,"algo":"greedy"})",  // after shutdown: never answered
  });
  ASSERT_EQ(lines.size(), 3u);
  const Json solve = Json::parse(lines[0]);
  const Json stats = Json::parse(lines[1]);
  const Json bye = Json::parse(lines[2]);
  ASSERT_NE(stats.get("stats"), nullptr);
  EXPECT_EQ(stats.get("stats")->get("server")->get("solves")->as_int(), 1);
  EXPECT_EQ(stats.get("stats")->get("graphs")->get("entries")->as_int(), 1);
  EXPECT_TRUE(bye.get("shutdown")->get("stopping")->as_bool());

  // Re-request by content hash: same report bytes, no spec shipped.
  const std::string hash =
      solve.get("cache")->get("hash")->as_str();
  const auto hash_lines = serve({
      R"({"id":1,"algo":"greedy","gen":"petersen"})",
      R"({"id":2,"algo":"dsatur","hash":")" + hash + R"("})",
      R"({"id":3,"algo":"dsatur","hash":")" + std::string(32, 'f') +
          R"("})",
  });
  ASSERT_EQ(hash_lines.size(), 3u);
  const Json by_hash = Json::parse(hash_lines[1]);
  ASSERT_TRUE(by_hash.get("ok")->as_bool());
  EXPECT_EQ(by_hash.get("cache")->get("graph")->as_str(), "hit");
  EXPECT_EQ(by_hash.get("report")->get("scenario")->get("spec")->as_str(),
            "hash:" + hash);
  EXPECT_FALSE(Json::parse(hash_lines[2]).get("ok")->as_bool());
}

TEST(Server, ExplicitKEqualToAutoKSharesCacheEntry) {
  // delta-list on petersen: max_degree 3 → auto-k = max(3, 3+1) = 4.
  // max_batch=1 so every request is its own batch: a shared key then
  // shows up as a report-cache hit rather than in-batch dedup.
  ServerOptions one_at_a_time;
  one_at_a_time.max_batch = 1;
  const auto lines = serve(
      {
          R"({"id":1,"algo":"delta-list","gen":"petersen"})",
          R"({"id":2,"algo":"delta-list","gen":"petersen","k":4})",
          R"({"id":3,"algo":"delta-list","gen":"petersen","k":5})",
      },
      one_at_a_time);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(Json::parse(lines[0]).get("cache")->get("report")->as_str(),
            "miss");
  EXPECT_EQ(Json::parse(lines[1]).get("cache")->get("report")->as_str(),
            "hit");  // resolved key: explicit 4 == auto 4
  EXPECT_EQ(Json::parse(lines[2]).get("cache")->get("report")->as_str(),
            "miss");  // a genuinely different k must not collide
  EXPECT_EQ(Json::parse(lines[0]).get("report")->dump(),
            Json::parse(lines[1]).get("report")->dump());
  EXPECT_NE(Json::parse(lines[0]).get("report")->dump(),
            Json::parse(lines[2]).get("report")->dump());
}

TEST(Server, EquivalentSpecsShareOneGraphDigest) {
  const auto lines = serve({
      R"({"id":1,"algo":"greedy","gen":"grid"})",
      R"({"id":2,"algo":"greedy","gen":"grid:rows=20,cols=20"})",
  });
  ASSERT_EQ(lines.size(), 2u);
  const Json a = Json::parse(lines[0]);
  const Json b = Json::parse(lines[1]);
  // Different spec strings → distinct report-cache entries (the spec is
  // echoed in the report), but one content-addressed graph.
  EXPECT_EQ(a.get("cache")->get("hash")->as_str(),
            b.get("cache")->get("hash")->as_str());
  EXPECT_EQ(b.get("cache")->get("report")->as_str(), "miss");
}

std::vector<std::string> report_dumps(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& line : lines) {
    const Json env = Json::parse(line);
    const Json* report = env.get("report");
    EXPECT_NE(report, nullptr) << line;
    out.push_back(report != nullptr ? report->dump() : "<error>");
  }
  return out;
}

TEST(Server, WorkerCountNeverChangesReportBytes) {
  std::vector<std::string> requests;
  const std::vector<std::string> algos = {"greedy", "dsatur", "delta-list",
                                          "randomized"};
  const std::vector<std::string> gens = {"petersen",
                                         "grid:rows=6,cols=6",
                                         "regular:n=48,d=4"};
  int id = 0;
  for (const auto& g : gens)
    for (const auto& a : algos)
      for (int seed = 1; seed <= 2; ++seed)
        requests.push_back("{\"id\":" + std::to_string(id++) +
                           ",\"algo\":\"" + a + "\",\"gen\":\"" + g +
                           "\",\"seed\":" + std::to_string(seed) + "}");
  ServerOptions serial, pooled;
  serial.jobs = 1;
  pooled.jobs = 4;
  pooled.max_batch = 8;
  const auto a = report_dumps(serve(requests, serial));
  const auto b = report_dumps(serve(requests, pooled));
  ASSERT_EQ(a.size(), requests.size());
  EXPECT_EQ(a, b);
}

TEST(Server, ResponsesByteIdenticalToOneShot) {
  // The full contract: the served "report" object equals the library's
  // one-shot report — same bytes scol-cli --no-timing prints — across
  // scenario kinds, list modes, params, and with_coloring.
  struct Case {
    std::string request_body;
    OneShotSpec spec;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.request_body = R"("algo":"greedy","gen":"petersen")";
    c.spec.algorithm = "greedy";
    c.spec.scenario = "petersen";
    cases.push_back(c);
  }
  {
    Case c;
    c.request_body =
        R"("algo":"delta-list","gen":"grid:rows=5,cols=5",)"
        R"("lists":"random","palette":9,"seed":4,"with_coloring":true)";
    c.spec.algorithm = "delta-list";
    c.spec.scenario = "grid:rows=5,cols=5";
    c.spec.lists_mode = "random";
    c.spec.palette = 9;
    c.spec.seed = 4;
    c.spec.with_coloring = true;
    cases.push_back(c);
  }
  {
    Case c;
    c.request_body =
        R"("algo":"randomized","gen":"regular:n=40,d=4","seed":6,)"
        R"("round_budget":64)";
    c.spec.algorithm = "randomized";
    c.spec.scenario = "regular:n=40,d=4";
    c.spec.seed = 6;
    c.spec.round_budget = 64;
    cases.push_back(c);
  }
  {
    Case c;
    const std::string path =
        std::string(SCOL_REPO_DIR) + "/examples/graphs/grotzsch.col";
    c.request_body =
        R"("algo":"dsatur","gen":"file:path=)" + path + R"(")";
    c.spec.algorithm = "dsatur";
    c.spec.scenario = "file:path=" + path;
    cases.push_back(c);
  }
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < cases.size(); ++i)
    requests.push_back("{\"id\":" + std::to_string(i) + "," +
                       cases[i].request_body + "}");
  // Twice: the second pass must be all report-cache hits with the very
  // same bytes. max_batch = one pass, so the repeats land in a second
  // batch (same-batch repeats dedup instead of hitting the cache).
  std::vector<std::string> twice = requests;
  twice.insert(twice.end(), requests.begin(), requests.end());
  ServerOptions options;
  options.jobs = 2;
  options.max_batch = cases.size();
  const auto lines = serve(twice, options);
  ASSERT_EQ(lines.size(), twice.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    OneShotSpec spec = cases[i].spec;
    spec.include_timing = false;
    spec.validate = true;
    const std::string expected = one_shot_report(spec).dump();
    const Json first = Json::parse(lines[i]);
    const Json second = Json::parse(lines[i + cases.size()]);
    EXPECT_EQ(first.get("report")->dump(), expected) << requests[i];
    EXPECT_EQ(second.get("report")->dump(), expected);
    EXPECT_EQ(second.get("cache")->get("report")->as_str(), "hit");
  }
}

// --- TCP disconnect regression ----------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SCOL_CHECK(fd >= 0, + "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  SCOL_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1,
             + "inet_pton failed");
  SCOL_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0,
             + "connect() failed");
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    SCOL_CHECK(n > 0, + "write() to server failed");
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_until_close(int fd) {
  std::string bytes;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
}

TEST(Server, SurvivesClientDisconnectMidBatch) {
  // The daemon-lifetime regression: a client that walks away while the
  // server is mid-write must cost exactly one connection, never the
  // process. Without SIGPIPE ignored, the first write into the dead
  // socket kills this whole test binary; without the EPIPE-as-clean-close
  // handling, the serving thread would keep grinding through the rest of
  // the batch into a dead stream.
  Server server(ServerOptions{});
  int port = -1;
  std::mutex mu;
  std::condition_variable cv;
  std::thread daemon([&] {
    server.listen_and_serve(0, [&](int p) {
      std::lock_guard<std::mutex> lock(mu);
      port = p;
      cv.notify_one();
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return port >= 0; });
  }

  // Client 1: pipeline a batch of requests with fat responses (full
  // colorings on a 3600-vertex grid), then hang up without reading a
  // byte. The responses overflow the socket send buffer, so the server's
  // writes hit the dead connection for sure.
  const int victim = connect_loopback(port);
  std::string burst;
  for (int i = 0; i < 16; ++i) {
    burst += R"({"id":)" + std::to_string(i) +
             R"(,"algo":"greedy","gen":"grid:rows=60,cols=60",)" +
             R"("with_coloring":true})" + "\n";
  }
  send_all(victim, burst);
  ::close(victim);  // mid-batch: no shutdown request, nothing read

  // Client 2: the daemon must still answer a fresh connection with a
  // valid response, then honor a shutdown request so the listener exits.
  const int fd = connect_loopback(port);
  send_all(fd,
           "{\"id\":\"after\",\"algo\":\"greedy\",\"gen\":\"petersen\"}\n"
           "{\"id\":\"bye\",\"op\":\"shutdown\"}\n");
  ::shutdown(fd, SHUT_WR);
  const std::string reply = recv_until_close(fd);
  ::close(fd);
  daemon.join();

  std::istringstream lines(reply);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line)) << "no response after disconnect";
  const Json solve = Json::parse(line);
  EXPECT_EQ(solve.get("id")->as_str(), "after");
  EXPECT_TRUE(solve.get("ok")->as_bool());
  ASSERT_TRUE(std::getline(lines, line)) << "no shutdown acknowledgement";
  EXPECT_TRUE(Json::parse(line).get("shutdown")->get("stopping")->as_bool());
}

// --- JSON parser (wire round-trips) -----------------------------------

TEST(JsonParse, RoundTripsWriterOutput) {
  Json obj = Json::object();
  obj.set("i", Json::integer(-42));
  obj.set("r", Json::real(0.1));
  obj.set("big", Json::real(1e300));
  obj.set("s", Json::str("esc \"x\"\n\t\xc3\xa9"));
  obj.set("b", Json::boolean(true));
  obj.set("nul", Json());
  Json arr = Json::array();
  arr.push(Json::integer(1));
  arr.push(std::move(obj));
  const std::string bytes = arr.dump();
  EXPECT_EQ(Json::parse(bytes).dump(), bytes);
  EXPECT_EQ(Json::parse(arr.dump(2)).dump(), bytes);  // pretty → compact
}

TEST(JsonParse, StrictnessAndTypes) {
  EXPECT_EQ(Json::parse("3").as_int(), 3);
  EXPECT_TRUE(Json::parse("3.0").is_real());
  EXPECT_TRUE(Json::parse("3e2").is_real());
  EXPECT_EQ(Json::parse(R"("é")").as_str(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("😀")").as_str(),
            "\xf0\x9f\x98\x80");  // surrogate pair
  EXPECT_THROW(Json::parse(""), PreconditionError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), PreconditionError);
  EXPECT_THROW(Json::parse("[1 2]"), PreconditionError);
  EXPECT_THROW(Json::parse("{} trailing"), PreconditionError);
  EXPECT_THROW(Json::parse("\"unterminated"), PreconditionError);
  EXPECT_THROW(Json::parse("01"), PreconditionError);
  EXPECT_THROW(Json::parse("nul"), PreconditionError);
}

}  // namespace
}  // namespace scol
