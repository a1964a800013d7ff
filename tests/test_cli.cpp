// Process-level pinning of the three binaries' command-line contract:
// --version strings, --help exit codes and content (the documented exit
// conventions must actually be printed), and the usage-error exit code 2.
// These run the real executables out of the build tree via popen; if a
// binary has not been built (e.g. a library-only build), the test skips
// rather than fails.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

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
    expect_flag_error(serve + " --max-batch -1", "--max-batch");
    expect_flag_error(serve + " --graph-cache many", "--graph-cache");
  }
  const std::string bench = binary("scol-bench-load");
  if (exists(bench)) {
    expect_flag_error(bench + " --requests 10k", "--requests");
    expect_flag_error(bench + " --theta -0.5", "--theta");
    expect_flag_error(bench + " --seed 1e9", "--seed");
    expect_flag_error(bench + " --window 0", "--window");
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
  // Δ+1 uniform lists on rmat:16 need gigabytes: under a 1 GB address
  // space cap the run dies with std::bad_alloc. That is a runtime
  // failure (1), not a usage error (2), as --help says.
  const RunResult r = run("(ulimit -v 1000000; " + bin +
                          " --algo dplus1-sparsified --gen rmat:scale=16)");
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
