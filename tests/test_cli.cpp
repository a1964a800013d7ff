// Process-level pinning of the three binaries' command-line contract:
// --version strings, --help exit codes and content (the documented exit
// conventions must actually be printed), and the usage-error exit code 2.
// These run the real executables out of the build tree via popen; if a
// binary has not been built (e.g. a library-only build), the test skips
// rather than fails.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "scol/api/json.h"
#include "scol/version.h"

namespace scol {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    result.output.append(buf.data(), n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string binary(const std::string& name) {
  return std::string(SCOL_BINARY_DIR) + "/" + name;
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

#define SKIP_WITHOUT(bin)                                       \
  if (!exists(bin)) GTEST_SKIP() << bin << " was not built"

TEST(Cli, VersionStringsMatchTheLibrary) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;  // per-binary: pin whatever was built
    const RunResult r = run(bin + " --version");
    EXPECT_EQ(r.exit_code, 0) << name;
    EXPECT_EQ(r.output, name + " " + kVersion + "\n");
  }
  SKIP_WITHOUT(binary("scol-cli"));  // at least the main CLI must exist
}

TEST(Cli, HelpDocumentsExitCodesAndExitsZero) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;
    const RunResult r = run(bin + " --help");
    EXPECT_EQ(r.exit_code, 0) << name;
    EXPECT_NE(r.output.find("exit codes:"), std::string::npos) << name;
    EXPECT_NE(r.output.find("--version"), std::string::npos) << name;
  }
  SKIP_WITHOUT(binary("scol-cli"));
}

TEST(Cli, UsageErrorsExitTwo) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;
    EXPECT_EQ(run(bin + " --no-such-flag").exit_code, 2) << name;
  }
  SKIP_WITHOUT(binary("scol-cli"));
}

// Expect exit 2 AND the offending flag named in the combined output, so a
// script author can tell WHICH flag was bad without reading the usage text.
void expect_flag_error(const std::string& command, const std::string& flag) {
  const RunResult r = run(command);
  EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
  EXPECT_NE(r.output.find(flag), std::string::npos)
      << command << " did not name " << flag << ":\n"
      << r.output;
}

TEST(Cli, BadNumericFlagsExitTwoAndNameTheFlag) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // Garbage, trailing junk, nonsensical negatives, overflow: the old
  // atoi-based parses turned all of these into silent zeros (or, for
  // `--seed -1`, into a huge unsigned seed).
  expect_flag_error(bin + " campaign --gen petersen --seeds foo", "--seeds");
  expect_flag_error(bin + " campaign --gen petersen --seeds 0", "--seeds");
  expect_flag_error(bin + " campaign --gen petersen --jobs 4x", "--jobs");
  expect_flag_error(bin + " campaign --gen petersen --seed -1", "--seed");
  expect_flag_error(
      bin + " campaign --gen petersen --round-budget 99999999999999999999",
      "--round-budget");
  expect_flag_error(bin + " --gen petersen --algo greedy --k 1.5", "--k");
  expect_flag_error(bin + " --gen petersen --algo greedy --threads -2",
                    "--threads");
  // Thread counts stop at kMaxThreads (1024), rejected before any start.
  expect_flag_error(bin + " --gen petersen --algo greedy --threads 1025",
                    "--threads");
  expect_flag_error(bin + " campaign --gen petersen --jobs 1025", "--jobs");
  expect_flag_error(bin + " --gen petersen --algo sparse --param =3",
                    "--param");
  expect_flag_error(
      bin + " --gen petersen --algo sparse --param radius=99999999999999999999",
      "--param");
  expect_flag_error(bin + " --gen petersen --algo greedy --deadline-ms abc",
                    "--deadline-ms");
  expect_flag_error(bin + " gen petersen --seed 0x10", "--seed");
  expect_flag_error(bin + " probe --gen petersen --mad-limit -3",
                    "--mad-limit");
}

TEST(Cli, BadShardSpecsExitTwoAndExplain) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string base = bin + " campaign --gen petersen --shard ";
  expect_flag_error(base + "2of4", "--shard");    // no slash at all
  expect_flag_error(base + "/4", "--shard");      // empty index part
  expect_flag_error(base + "1/", "--shard");      // empty count part
  expect_flag_error(base + "x/4", "--shard");     // non-numeric index
  expect_flag_error(base + "1/y", "--shard");     // non-numeric count
  expect_flag_error(base + "5/4", "--shard");     // index out of range
  expect_flag_error(base + "4/4", "--shard");     // index == count
  expect_flag_error(base + "-1/4", "--shard");    // negative index
  expect_flag_error(base + "0/0", "--shard");     // zero shards
  // A well-formed spec still works end to end.
  EXPECT_EQ(
      run(bin + " campaign --gen petersen --algo greedy --shard 0/2 "
                "--summary-only")
          .exit_code,
      0);
}

TEST(Cli, ShardsPriceTheRunAndCombineWithThreads) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // --shards only prices the exchange, so it composes with any executor.
  const RunResult r = run(bin + " --algo sparse --gen regular:n=64,d=4 --k 4 "
                                "--threads 2 --shards 4 --no-timing");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"shards\":4,\"exchange_messages\":"),
            std::string::npos)
      << r.output;
  // Pricing has no off switch: omitting --shards is the unpriced run.
  expect_flag_error(bin + " --algo greedy --gen petersen --shards 2 "
                          "--no-exchange-metrics",
                    "--no-exchange-metrics");
  expect_flag_error(bin + " campaign --gen petersen --algo greedy "
                          "--shards 2 --no-exchange-metrics",
                    "--no-exchange-metrics");
}

TEST(Cli, ServeAndBenchLoadRejectBadNumericFlags) {
  const std::string serve = binary("scol-serve");
  if (exists(serve)) {
    expect_flag_error(serve + " --port 99999", "--port");
    expect_flag_error(serve + " --port http", "--port");
    expect_flag_error(serve + " --jobs 0", "--jobs");
    expect_flag_error(serve + " --jobs 1025", "--jobs");
    expect_flag_error(serve + " --max-batch -1", "--max-batch");
    expect_flag_error(serve + " --graph-cache many", "--graph-cache");
  }
  const std::string bench = binary("scol-bench-load");
  if (exists(bench)) {
    expect_flag_error(bench + " --requests 10k", "--requests");
    expect_flag_error(bench + " --theta -0.5", "--theta");
    expect_flag_error(bench + " --seed 1e9", "--seed");
    expect_flag_error(bench + " --window 0", "--window");
    expect_flag_error(bench + " --jobs 1025", "--jobs");
  }
  SKIP_WITHOUT(serve);
}

TEST(Cli, OneShotAnswersAndFailuresMapToExitCodes) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // A colored answer and an infeasible answer are both exit 0.
  EXPECT_EQ(run(bin + " --algo greedy --gen petersen").exit_code, 0);
  EXPECT_EQ(
      run(bin + " --algo exact --gen petersen --k 2").exit_code, 0);
  // An unknown algorithm is a bad invocation: exit 2, like other usage
  // errors (the report-level exit 1 is pinned by one_shot_exit_code's
  // own tests against kFailed reports).
  EXPECT_EQ(run(bin + " --algo no-such-algo").exit_code, 2);
  // So is an input file that cannot be read.
  EXPECT_EQ(run(bin + " --algo greedy --gen file:path=no/such/file.col")
                .exit_code,
            2);
}

TEST(Cli, BadListsModeExitsTwoInEveryMode) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  for (const std::string mode : {"", "campaign "}) {
    const RunResult r =
        run(bin + " " + mode + "--algo greedy --gen petersen --lists fancy");
    EXPECT_EQ(r.exit_code, 2) << mode << r.output;
    EXPECT_NE(r.output.find("lists mode must be uniform or random"),
              std::string::npos)
        << mode << r.output;
  }
}

// `gen` resolves its output format before it builds the graph: a bad
// extension or --format is the error reported, not the generator's (the
// powerlaw spec below cannot be built), and no file is created.
TEST(Cli, GenRejectsABadFormatBeforeBuilding) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string path = ::testing::TempDir() + "/scol_cli_gen_format.bin";
  std::remove(path.c_str());
  const std::string gen = bin + " gen --gen powerlaw:n=10,m=1000 ";
  const struct {
    std::string flags;
    std::string error;
  } cases[] = {{"--out " + path, "cannot sniff the graph format"},
               {"--out " + path + " --format fancy",
                "unknown graph format 'fancy'"}};
  for (const auto& c : cases) {
    const RunResult r = run(gen + c.flags);
    EXPECT_EQ(r.exit_code, 2) << c.flags << "\n" << r.output;
    EXPECT_NE(r.output.find(c.error), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("exceeds the simple-graph maximum"),
              std::string::npos)
        << r.output;
    EXPECT_FALSE(exists(path)) << c.flags;
  }
}

// `gen` opens --out before it builds: a path in a missing directory fails
// at once with the writer's message, not after the graph (a rmat:scale=20
// build takes seconds) has been generated.
TEST(Cli, GenRejectsAnUnwritableOutBeforeBuilding) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string path =
      ::testing::TempDir() + "/scol_cli_no_such_dir/x.graph";
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = run(bin + " gen --gen rmat:scale=20 --out " + path);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(path + ": cannot open file for writing"),
            std::string::npos)
      << r.output;
  EXPECT_LT(seconds, 1.0);
}

// When the build fails after --out was opened, a file the run created is
// removed again and a file that was already there keeps its bytes.
TEST(Cli, GenBuildFailureLeavesOutAsItWas) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string gen = bin + " gen --gen powerlaw:n=10,m=1000 --out ";
  const std::string fresh = ::testing::TempDir() + "/scol_cli_gen_fresh.graph";
  std::remove(fresh.c_str());
  RunResult r = run(gen + fresh);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("exceeds the simple-graph maximum"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(exists(fresh));

  const std::string kept = ::testing::TempDir() + "/scol_cli_gen_kept.graph";
  const std::string bytes = "3 1\n2\n1\n\n";
  std::ofstream(kept, std::ios::binary) << bytes;
  r = run(gen + kept);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::ifstream in(kept, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, bytes);
  std::remove(kept.c_str());
}

// scol-serve's probe payload is the probe object of `scol-cli probe`,
// field for field and in order, after the serving envelope's graph
// identity (hash, graph_cache).
TEST(Cli, ServeProbePayloadIsTheCliProbeObject) {
  const std::string cli = binary("scol-cli");
  const std::string serve = binary("scol-serve");
  SKIP_WITHOUT(cli);
  SKIP_WITHOUT(serve);
  for (const std::string& gen :
       {"file:path=" + std::string(SCOL_REPO_DIR) +
            "/examples/graphs/petersen.mtx",
        std::string("planar:n=300")}) {
    const RunResult probed = run(cli + " probe --gen " + gen);
    ASSERT_EQ(probed.exit_code, 0) << probed.output;
    const RunResult served =
        run("printf '%s\\n' '{\"id\":1,\"op\":\"probe\",\"gen\":\"" + gen +
            "\"}' | " + serve);
    ASSERT_EQ(served.exit_code, 0) << served.output;

    const Json reply = Json::parse(served.output);
    const Json* payload = reply.get("probe");
    ASSERT_NE(payload, nullptr) << served.output;
    const auto& members = payload->members();
    ASSERT_GE(members.size(), 2u);
    EXPECT_EQ(members[0].first, "hash");
    EXPECT_EQ(members[1].first, "graph_cache");
    Json rest = Json::object();
    for (std::size_t i = 2; i < members.size(); ++i)
      rest.set(members[i].first, members[i].second);
    EXPECT_EQ(rest.dump(),
              Json::parse(probed.output).get("probe")->dump());
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCOL_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCOL_SANITIZED 1
#endif
#endif

TEST(Cli, RuntimeFailuresExitOne) {
#ifdef SCOL_SANITIZED
  GTEST_SKIP() << "ulimit -v does not work under ASan/TSan";
#endif
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // An rmat:26 graph (2^26 vertices, 2^30 edge draws) needs gigabytes:
  // under a 1 GB address space cap its generation dies with
  // std::bad_alloc. That is a runtime failure (1), not a usage error (2),
  // as --help says.
  const RunResult r = run("(ulimit -v 1000000; " + bin +
                          " --algo greedy --gen rmat:scale=26)");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("bad_alloc"), std::string::npos) << r.output;
}

TEST(Cli, ServePipeModeRoundTrips) {
  const std::string bin = binary("scol-serve");
  SKIP_WITHOUT(bin);
  const RunResult r = run(
      "printf '%s\\n' "
      "'{\"id\":1,\"algo\":\"greedy\",\"gen\":\"petersen\"}' "
      "'{\"id\":2,\"op\":\"shutdown\"}' | " +
      bin);
  EXPECT_EQ(r.exit_code, 0);  // clean shutdown
  EXPECT_NE(r.output.find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"stopping\":true"), std::string::npos);
  // EOF without a shutdown request is also a clean exit in pipe mode.
  EXPECT_EQ(run("printf '' | " + bin).exit_code, 0);
}

}  // namespace
}  // namespace scol
