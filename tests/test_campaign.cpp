// Campaign runner: grid enumeration + spec validation, byte-identical
// JSONL under serial vs thread-pool job executors, shard recombination,
// the differential-consistency oracle (including deliberately lying
// algorithms), a property-style sweep asserting zero guarantee violations
// for every registered algorithm, and JSON round-trips through
// tools/check_report.py.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "scol/api/oneshot.h"
#include "scol/scol.h"

namespace scol {
namespace {

std::vector<std::string> run_lines(const CampaignSpec& spec,
                                   const CampaignOptions& options,
                                   CampaignResult* result = nullptr) {
  std::vector<std::string> lines;
  CampaignResult r = run_campaign(
      spec, options, [&](const std::string& line) { lines.push_back(line); });
  if (result != nullptr) *result = std::move(r);
  return lines;
}

std::int64_t job_of(const std::string& line) {
  const std::size_t pos = line.find("\"job\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return std::atoll(line.c_str() + pos + 6);
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.scenarios = {"grid:rows=6,cols=6", "regular:n=40,d=4"};
  spec.algorithms = {"greedy", "sparse", "randomized", "exact-list"};
  spec.seeds = 3;
  return spec;
}

TEST(Campaign, EnumerationAndValidation) {
  const CampaignSpec spec = small_spec();
  const auto jobs = enumerate_campaign(spec);
  ASSERT_EQ(jobs.size(), 2u * 3u * 4u);
  // Scenario-major, then seed, then algorithm; instances are contiguous
  // blocks of #algorithms jobs.
  EXPECT_EQ(jobs[0].scenario, "grid:rows=6,cols=6");
  EXPECT_EQ(jobs[0].algorithm, "greedy");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[5].algorithm, "sparse");
  EXPECT_EQ(jobs[5].instance, 1u);
  EXPECT_EQ(jobs[5].seed, 2u);
  EXPECT_EQ(jobs[12].scenario, "regular:n=40,d=4");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].instance, i / 4);
  }

  // Every axis fails loudly before any job runs.
  CampaignSpec bad = spec;
  bad.algorithms = {"no-such-algorithm"};
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);
  bad = spec;
  bad.scenarios = {"grid:rowz=6"};  // unknown key
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);
  bad = spec;
  bad.scenarios = {"grid:rows=6,,cols=6"};  // malformed pair
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);
  bad = spec;
  bad.seeds = 0;
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);
  bad = spec;
  bad.lists_mode = "fancy";
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);
  bad = spec;
  bad.algo_params.emplace_back("no-such-algorithm", ParamBag{});
  EXPECT_THROW(enumerate_campaign(bad), PreconditionError);

  CampaignOptions out_of_range;
  out_of_range.shard_index = 3;
  out_of_range.shard_count = 3;
  EXPECT_THROW(run_campaign(spec, out_of_range, [](const std::string&) {}),
               PreconditionError);
}

TEST(Campaign, ByteIdenticalAcrossJobExecutors) {
  const CampaignSpec spec = small_spec();
  CampaignOptions serial;
  CampaignResult serial_result;
  const auto serial_lines = run_lines(spec, serial, &serial_result);
  ASSERT_EQ(serial_lines.size(), 24u);
  EXPECT_EQ(serial_result.jobs, 24u);
  EXPECT_EQ(serial_result.instances, 6u);
  EXPECT_EQ(serial_result.oracle_violations, 0u);
  EXPECT_EQ(serial_result.failed, 0u);

  ThreadPoolExecutor pool(8, /*grain=*/1);
  CampaignOptions parallel;
  parallel.executor = &pool;
  CampaignResult pool_result;
  const auto pool_lines = run_lines(spec, parallel, &pool_result);
  EXPECT_EQ(serial_lines, pool_lines);  // bit-identical stream
  EXPECT_EQ(pool_result.colored, serial_result.colored);
  EXPECT_EQ(pool_result.oracle_violations, 0u);

  // The summary is deterministic apart from wall-time quantiles.
  EXPECT_NE(serial_result.summary.dump().find("\"per_algorithm\""),
            std::string::npos);
}

TEST(Campaign, ShardsRecombineIntoTheFullStream) {
  const CampaignSpec spec = small_spec();
  const auto full = run_lines(spec, CampaignOptions{});

  ThreadPoolExecutor pool(4, /*grain=*/1);
  std::vector<std::pair<std::int64_t, std::string>> merged;
  std::size_t shard_jobs = 0;
  for (int i = 0; i < 3; ++i) {
    CampaignOptions options;
    options.executor = &pool;
    options.shard_index = i;
    options.shard_count = 3;
    CampaignResult result;
    const auto lines = run_lines(spec, options, &result);
    shard_jobs += result.jobs;
    for (const auto& line : lines) merged.emplace_back(job_of(line), line);
  }
  EXPECT_EQ(shard_jobs, full.size());
  std::sort(merged.begin(), merged.end());
  ASSERT_EQ(merged.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(merged[i].first, static_cast<std::int64_t>(i));
    EXPECT_EQ(merged[i].second, full[i]) << "job " << i;
  }
}

// Deliberately broken algorithms, registered once for this binary: the
// oracle must catch an improper coloring, a guarantee-bound overrun, and
// an infeasibility claim contradicted by a validated coloring.
void register_lying_algorithms() {
  static const bool once = [] {
    auto& r = AlgorithmRegistry::instance();
    AlgorithmInfo liar;
    liar.name = "test-liar";
    liar.summary = "returns an all-zero (improper) coloring";
    liar.run = [](const ColoringRequest& req, RunContext&) {
      return ColoringReport::colored(
          Coloring(static_cast<std::size_t>(req.graph->num_vertices()), 0));
    };
    r.add(std::move(liar));

    AlgorithmInfo overrun;
    overrun.name = "test-bound-overrun";
    overrun.summary = "proper coloring but a bound of 1";
    overrun.run = [](const ColoringRequest& req, RunContext&) {
      return ColoringReport::colored(degeneracy_coloring(*req.graph));
    };
    overrun.color_bound = [](const ColoringRequest&) {
      return std::int64_t{1};
    };
    r.add(std::move(overrun));

    AlgorithmInfo prover;
    prover.name = "test-false-prover";
    prover.summary = "claims every list assignment is infeasible";
    prover.caps.needs_lists = true;
    prover.caps.proves_infeasibility = true;
    prover.run = [](const ColoringRequest&, RunContext&) {
      return ColoringReport::infeasible({0}, "fake");
    };
    r.add(std::move(prover));
    return true;
  }();
  (void)once;
}

TEST(Campaign, OracleFlagsLyingAlgorithms) {
  register_lying_algorithms();
  CampaignSpec spec;
  spec.scenarios = {"grid:rows=5,cols=5"};
  spec.algorithms = {"greedy", "test-liar", "test-bound-overrun",
                     "test-false-prover"};
  CampaignResult result;
  const auto lines = run_lines(spec, CampaignOptions{}, &result);
  ASSERT_EQ(lines.size(), 4u);
  // Improper coloring, bound overrun, and the false proof contradicted
  // by greedy's validated 2-coloring: three violations minimum.
  EXPECT_GE(result.oracle_violations, 3u);
  EXPECT_NE(lines[1].find("not proper"), std::string::npos);
  EXPECT_NE(lines[2].find("exceed the registered guarantee"),
            std::string::npos);
  EXPECT_NE(lines[3].find("proved infeasibility"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
}

// --- Probe filtering (spec.probe; io/probe.h) ---------------------------

TEST(Campaign, ProbeFilterSkipsIneligibleCellsInsteadOfFailing) {
  // K9 is not planar (and its peel genuinely stalls at threshold 6), so
  // planar6's structural precondition fails; the probe filter answers
  // the cell with a skipped line and greedy still runs. Same grid with
  // the filter off: planar6 fails loudly at run time.
  CampaignSpec spec;
  spec.scenarios = {"complete:n=9"};
  spec.algorithms = {"greedy", "planar6"};
  spec.k = 6;
  CampaignResult result;
  const auto lines = run_lines(spec, CampaignOptions{}, &result);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(result.colored, 1u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.oracle_violations, 0u);
  EXPECT_NE(lines[1].find("\"status\":\"skipped\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"skip_reason\":\"not planar\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(result.summary.dump().find("\"skipped\":1"), std::string::npos)
      << result.summary.dump();

  spec.probe = false;
  CampaignResult raw;
  const auto raw_lines = run_lines(spec, CampaignOptions{}, &raw);
  ASSERT_EQ(raw_lines.size(), 2u);
  EXPECT_EQ(raw.skipped, 0u);
  EXPECT_EQ(raw.failed, 1u);
  EXPECT_NE(raw_lines[1].find("\"status\":\"failed\""), std::string::npos)
      << raw_lines[1];

  // A palette premise: linial's k must exceed the max degree, and the
  // Grötzsch graph has max degree 5, so `--k 5` skips it instead of
  // failing its run.
  CampaignSpec grotzsch;
  grotzsch.scenarios = {"file:path=" + std::string(SCOL_REPO_DIR) +
                        "/examples/graphs/grotzsch.col"};
  grotzsch.algorithms = {"greedy", "linial"};
  grotzsch.k = 5;
  CampaignResult palette;
  const auto palette_lines = run_lines(grotzsch, CampaignOptions{}, &palette);
  ASSERT_EQ(palette_lines.size(), 2u);
  EXPECT_EQ(palette.colored, 1u);
  EXPECT_EQ(palette.skipped, 1u);
  EXPECT_EQ(palette.failed, 0u);
  EXPECT_NE(palette_lines[1].find(
                "\"skip_reason\":\"needs k > max degree 5, got 5\""),
            std::string::npos)
      << palette_lines[1];
}

TEST(Campaign, AutoKRespectsAlgorithmMinimumListSize) {
  // planar6's guarantee is stated for 6-lists; on a planar grid of max
  // degree 4 the generic auto-k (max degree + 1 = 5) must rise to the
  // fixed size of the algorithm's list-size rule
  // (AlgorithmInfo::list_size), so the flagship planar corollary actually
  // runs in `--algo all` grids instead of skipping itself on every
  // low-degree planar instance.
  CampaignSpec spec;
  spec.scenarios = {"grid:rows=6,cols=6"};
  spec.algorithms = {"planar6"};
  CampaignResult result;
  const auto lines = run_lines(spec, CampaignOptions{}, &result);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(result.colored, 1u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_NE(lines[0].find("\"k\":6"), std::string::npos) << lines[0];
}

TEST(Campaign, ProbeFilterIsDeterministicAcrossJobExecutors) {
  CampaignSpec spec;
  spec.scenarios = {"petersen", "grid:rows=5,cols=5", "complete:n=5"};
  spec.algorithms = {"greedy", "planar6", "sdr", "exact"};
  spec.seeds = 2;
  spec.k = 6;
  const auto serial = run_lines(spec, CampaignOptions{});
  ThreadPoolExecutor pool(4, /*grain=*/1);
  CampaignOptions parallel;
  parallel.executor = &pool;
  EXPECT_EQ(serial, run_lines(spec, parallel));
}

TEST(Campaign, FileScenarioFlowsThroughTheGrid) {
  // A real file enters the campaign like any generator scenario; with
  // --algo all semantics the probe filter answers every cell (nothing
  // fails) and the oracle stays clean.
  const std::string path = std::string(SCOL_REPO_DIR) +
                           "/examples/graphs/grotzsch.col";
  CampaignSpec spec;
  spec.scenarios = {"file:path=" + path};
  spec.algorithms = AlgorithmRegistry::instance().names();
  // This binary registers lying test algorithms; keep the sweep honest.
  spec.algorithms.erase(
      std::remove_if(spec.algorithms.begin(), spec.algorithms.end(),
                     [](const std::string& name) {
                       return name.rfind("test-", 0) == 0;
                     }),
      spec.algorithms.end());
  spec.seeds = 2;
  CampaignResult result;
  const auto lines = run_lines(spec, CampaignOptions{}, &result);
  EXPECT_EQ(lines.size(), 2 * spec.algorithms.size());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.oracle_violations, 0u);
  EXPECT_GT(result.colored, 0u);
  EXPECT_GT(result.skipped, 0u);  // planar6, sdr, exact, genus, ...
  // The graph really is the file's: n=11, m=20 on every line.
  EXPECT_NE(lines[0].find("\"n\":11"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"m\":20"), std::string::npos) << lines[0];
}

// A campaign line is the one-shot report of the same job plus the grid's
// own fields: both front ends admit a job through admit(), so with
// timing off the remaining bytes must agree for every cell that ran.
TEST(Campaign, LineIsTheOneShotReport) {
  const std::vector<std::string> grid_fields = {"job",     "instance",
                                                "lists",   "palette",
                                                "oracle",  "shards"};
  struct Shape {
    Vertex k;
    std::string lists_mode;
    Color palette;
  };
  const std::vector<Shape> shapes = {
      {-1, "uniform", -1}, {5, "uniform", -1}, {-1, "random", -1},
      {6, "random", 9}};
  std::size_t compared = 0;
  for (const std::string& scenario :
       {"file:path=" + std::string(SCOL_REPO_DIR) +
            "/examples/graphs/petersen.mtx",
        std::string("planar:n=300"), std::string("regular:n=200,d=4")}) {
    for (const Shape& shape : shapes) {
      CampaignSpec spec;
      spec.scenarios = {scenario};
      for (const auto& name : AlgorithmRegistry::instance().names())
        if (name.rfind("test-", 0) != 0) spec.algorithms.push_back(name);
      spec.seeds = 2;
      spec.k = shape.k;
      spec.lists_mode = shape.lists_mode;
      spec.palette = shape.palette;
      for (const std::string& line : run_lines(spec, CampaignOptions{})) {
        const Json parsed = Json::parse(line);
        if (parsed.get("status")->as_str() == "skipped") continue;
        Json rest = Json::object();
        for (const auto& [key, value] : parsed.members())
          if (std::find(grid_fields.begin(), grid_fields.end(), key) ==
              grid_fields.end())
            rest.set(key, value);

        OneShotSpec one;
        one.scenario = scenario;
        one.algorithm = parsed.get("algorithm")->as_str();
        one.k = shape.k;
        one.lists_mode = shape.lists_mode;
        one.palette = shape.palette;
        one.seed = static_cast<std::uint64_t>(parsed.get("seed")->as_int());
        one.include_timing = false;
        Rng rng(one.seed);
        const Graph g = build_scenario(scenario, rng);
        EXPECT_EQ(rest.dump(), one_shot_report_on(g, one).dump()) << line;
        ++compared;
      }
    }
  }
  // 576 cells; the probe filter skips the rest (genus without its param,
  // planar6 off planar graphs, linial at k <= max degree, ...).
  EXPECT_GE(compared, 370u);
}

// Property-style sweep: every registered algorithm gets a small campaign
// on scenarios satisfying its preconditions, and the oracle must report
// zero guarantee violations. A registered algorithm without a fixture
// here fails the test, so new algorithms opt into campaign coverage.
struct SweepFixture {
  std::vector<std::string> scenarios;
  Vertex k = -1;
  ParamBag params;
  bool expect_no_failed = true;
};

SweepFixture make_fixture(std::vector<std::string> scenarios, Vertex k = -1) {
  SweepFixture fixture;
  fixture.scenarios = std::move(scenarios);
  fixture.k = k;
  return fixture;
}

std::map<std::string, SweepFixture> sweep_fixtures() {
  std::map<std::string, SweepFixture> f;
  const std::vector<std::string> planar = {"grid:rows=6,cols=6"};
  const std::vector<std::string> mixed = {"grid:rows=6,cols=6",
                                          "regular:n=40,d=4"};
  f["sparse"] = make_fixture(mixed);
  f["nice"] = make_fixture(mixed);
  f["planar6"] = make_fixture(planar, 6);
  f["planar4-trianglefree"] = make_fixture(planar, 4);
  f["planar3-girth6"] = make_fixture({"hex:rows=8,cols=8"}, 3);
  {
    SweepFixture arb = make_fixture({"forest:n=60,a=2"}, 4);
    arb.params.set_int("arboricity", 2);
    f["arboricity"] = arb;
    arb.k = -1;
    f["barenboim-elkin"] = arb;
  }
  {
    SweepFixture gen = make_fixture({"torus:rows=6,cols=6"}, 7);
    gen.params.set_int("genus", 2);
    f["genus"] = gen;
    gen.k = 6;
    f["genus-sharp"] = gen;
  }
  f["delta-list"] = make_fixture({"regular:n=40,d=4"}, 4);
  f["ert"] = make_fixture(planar);
  f["randomized"] = make_fixture(mixed);
  f["linial"] = make_fixture(mixed);
  f["gps"] = make_fixture(planar);
  f["greedy"] = make_fixture(mixed);
  f["degeneracy"] = make_fixture(mixed);
  f["dsatur"] = make_fixture(mixed);
  f["degeneracy-list"] = make_fixture(planar);
  f["dplus1-sparsified"] = make_fixture(mixed);
  f["deglist-sparsified"] = make_fixture(mixed);
  f["list-sparsified"] = make_fixture({"grid:rows=4,cols=4"}, 3);
  f["exact"] = make_fixture({"petersen"}, 3);
  f["exact-list"] = make_fixture({"grid:rows=4,cols=4"}, 2);
  f["sdr"] = make_fixture({"complete:n=5"}, 5);
  return f;
}

TEST(Campaign, SweepEveryAlgorithmZeroOracleViolations) {
  const auto fixtures = sweep_fixtures();
  for (const auto& name : AlgorithmRegistry::instance().names()) {
    if (name.rfind("test-", 0) == 0) continue;  // this file's liars
    SCOPED_TRACE(name);
    const auto it = fixtures.find(name);
    ASSERT_NE(it, fixtures.end()) << "no sweep fixture for '" << name << "'";
    const SweepFixture& fix = it->second;

    CampaignSpec spec;
    spec.scenarios = fix.scenarios;
    spec.algorithms = {name};
    spec.seeds = 2;
    spec.k = fix.k;
    spec.params = fix.params;
    CampaignResult result;
    const auto lines = run_lines(spec, CampaignOptions{}, &result);
    EXPECT_EQ(lines.size(), result.jobs);
    EXPECT_EQ(result.oracle_violations, 0u);
    // Fixtures must really exercise their algorithm: the probe filter
    // (on by default) may not skip a single cell here.
    EXPECT_EQ(result.skipped, 0u) << result.summary.dump(2);
    if (fix.expect_no_failed) {
      EXPECT_EQ(result.failed, 0u) << result.summary.dump(2);
    }
  }
}

TEST(Campaign, RandomListsShareAssignmentsAcrossJobs) {
  // Random-lists campaigns must give exact-list and delta-list the SAME
  // assignment on an instance — that is what makes their verdicts
  // comparable — and stay deterministic across job executors.
  CampaignSpec spec;
  spec.scenarios = {"regular:n=36,d=4"};
  spec.algorithms = {"exact-list", "degeneracy-list", "randomized"};
  spec.seeds = 2;
  spec.k = 5;
  spec.lists_mode = "random";
  spec.palette = 9;
  CampaignResult serial_result;
  const auto serial_lines =
      run_lines(spec, CampaignOptions{}, &serial_result);
  EXPECT_EQ(serial_result.oracle_violations, 0u);

  ThreadPoolExecutor pool(4, /*grain=*/1);
  CampaignOptions parallel;
  parallel.executor = &pool;
  EXPECT_EQ(run_lines(spec, parallel), serial_lines);
}

// --- Round-trips through tools/check_report.py (python3 stdlib). ---

bool python3_available() {
  return std::system("python3 -c pass >/dev/null 2>&1") == 0;
}

std::filesystem::path tools_dir() {
  return std::filesystem::path(__FILE__).parent_path().parent_path() /
         "tools";
}

TEST(Campaign, JsonlRoundTripsThroughChecker) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  const CampaignSpec spec = small_spec();
  const auto lines = run_lines(spec, CampaignOptions{});
  const auto path =
      std::filesystem::temp_directory_path() / "scol_test_campaign.jsonl";
  {
    std::ofstream out(path);
    for (const auto& line : lines) out << line << "\n";
  }
  const std::string cmd =
      "python3 " + (tools_dir() / "check_report.py").string() +
      " --jsonl --expect-oracle-clean --expect-jobs " +
      std::to_string(lines.size()) + " --expect-colored " +
      std::to_string(lines.size()) + " < " + path.string() +
      " >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::filesystem::remove(path);
}

TEST(Json, EdgeCasesRoundTripThroughPython) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  // Control characters, quotes, and backslashes must escape; non-finite
  // doubles must serialize as null; finite doubles must round-trip to
  // the exact same value (shortest-round-trip formatting).
  Json obj = Json::object();
  obj.set("ctrl", Json::str(std::string("a\x01" "b\nc\td\"e\\f")));
  obj.set("nan", Json::real(std::nan("")));
  obj.set("inf", Json::real(std::numeric_limits<double>::infinity()));
  obj.set("ninf", Json::real(-std::numeric_limits<double>::infinity()));
  obj.set("third", Json::real(1.0 / 3.0));
  obj.set("big", Json::real(1.2345678901234567e300));
  obj.set("tiny", Json::real(5e-324));  // smallest subnormal
  const auto path =
      std::filesystem::temp_directory_path() / "scol_test_json.json";
  {
    std::ofstream out(path);
    out << obj.dump() << "\n";
  }
  const std::string script =
      "import json,sys\n"
      "d = json.load(open(sys.argv[1]))\n"
      "assert d['ctrl'] == 'a\\x01b\\nc\\td\"e\\\\f', d['ctrl']\n"
      "assert d['nan'] is None and d['inf'] is None and d['ninf'] is None\n"
      "assert d['third'] == 1.0 / 3.0, d['third']\n"
      "assert d['big'] == 1.2345678901234567e300, d['big']\n"
      "assert d['tiny'] == 5e-324, d['tiny']\n";
  const auto script_path =
      std::filesystem::temp_directory_path() / "scol_test_json_check.py";
  {
    std::ofstream out(script_path);
    out << script;
  }
  const std::string cmd = "python3 " + script_path.string() + " " +
                          path.string() + " >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::filesystem::remove(path);
  std::filesystem::remove(script_path);
}

}  // namespace
}  // namespace scol
