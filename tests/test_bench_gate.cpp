// tools/bench_compare.py — the parent-vs-change perf gate — exercised
// against synthetic pipebench record directories, the same way
// test_campaign.cpp round-trips JSONL through tools/check_report.py.
// Every behavior the gate relies on is pinned here: identical sides pass,
// each metric's BENCHMARK.json bound and direction is honoured, and a
// higher failed share, an incorrect record or a missing workload or
// metric fails.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

bool python3_available() {
  return std::system("python3 -c pass >/dev/null 2>&1") == 0;
}

// Exit code of `python3 tools/bench_compare.py <args>` (output discarded).
int run_compare(const std::string& args) {
  const fs::path tool =
      fs::path(SCOL_REPO_DIR) / "tools" / "bench_compare.py";
  const std::string cmd =
      "python3 " + tool.string() + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
#ifdef WEXITSTATUS
  return WEXITSTATUS(status);
#else
  return status;
#endif
}

struct Metric {
  double value;
  const char* unit;
};

// One side's records: the end_to_end metrics of BENCHMARK.json with
// plausible values, the same on every seed unless a test changes them.
struct Side {
  std::map<std::string, Metric> metrics = {
      {"setup_s", {1.5, "s"}},
      {"peak_rss_mb", {120.0, "MB"}},
      {"request_ms_p50", {300.0, "ms"}},
      {"request_ms_p90", {560.0, "ms"}},
      {"throughput_rps", {100.0, "1/s"}},
      {"colors_used_total", {2100.0, "count"}},
      {"local_rounds_total", {391000.0, "count"}},
  };
  std::vector<std::string> workloads = {"solve-serial", "campaign-ingest"};
  int attempted = 200;
  int failed = 0;
  bool correct = true;
};

std::string record_json(const Side& side, int seed) {
  std::ostringstream os;
  os << "{\"correct\": " << (side.correct ? "true" : "false")
     << ", \"attempted\": " << side.attempted
     << ", \"failed\": " << side.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : side.metrics) {
    // Seeds differ a little, so the gate really takes a median.
    os << sep << "\"" << name << "\": {\"value\": "
       << m.value * (1.0 + 0.01 * (seed - 2)) << ", \"unit\": \"" << m.unit
       << "\"}";
    sep = ", ";
  }
  os << "}}";
  return os.str();
}

class BenchGate : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
    // A unique directory per test: fixed names race under `ctest -j`.
    std::string tmpl =
        (fs::temp_directory_path() / "bench_gate_XXXXXX").string();
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    if (!root_.empty()) fs::remove_all(root_);
  }

  // Writes seeds 1-3 of every workload of `side` into root_/name.
  fs::path write(const std::string& name, const Side& side) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    for (const auto& workload : side.workloads)
      for (int seed = 1; seed <= 3; ++seed)
        std::ofstream(dir / (workload + "-seed" + std::to_string(seed) +
                             "-trace0.json"))
            << record_json(side, seed);
    return dir;
  }

  int gate(const Side& change) {
    return run_compare(write("parent", Side{}).string() + " " +
                       write("change", change).string());
  }

  fs::path root_;
};

TEST_F(BenchGate, IdenticalSidesPass) { EXPECT_EQ(gate(Side{}), 0); }

TEST_F(BenchGate, ThirtyPercentSlowerP90Fails) {
  Side change;
  change.metrics["request_ms_p90"].value *= 1.3;
  EXPECT_EQ(gate(change), 1);
}

TEST_F(BenchGate, TwentyPercentSlowerP90IsWithinTheBound) {
  Side change;
  change.metrics["request_ms_p90"].value *= 1.2;
  EXPECT_EQ(gate(change), 0);
}

TEST_F(BenchGate, ThirtyPercentLowerThroughputFails) {
  // better: higher — a drop is the regression, a rise never is.
  Side change;
  change.metrics["throughput_rps"].value *= 0.7;
  EXPECT_EQ(gate(change), 1);
  change.metrics["throughput_rps"].value = 200.0;
  EXPECT_EQ(gate(change), 0);
}

TEST_F(BenchGate, ElevenPercentMoreLocalRoundsFails) {
  // Counts carry the tighter 10% bound.
  Side change;
  change.metrics["local_rounds_total"].value *= 1.11;
  EXPECT_EQ(gate(change), 1);
}

TEST_F(BenchGate, HigherFailedShareFails) {
  Side change;
  change.failed = 1;
  EXPECT_EQ(gate(change), 1);
}

TEST_F(BenchGate, IncorrectRecordFails) {
  Side change;
  change.correct = false;
  EXPECT_EQ(gate(change), 1);
}

TEST_F(BenchGate, MissingWorkloadFailsOnEitherSide) {
  Side partial;
  partial.workloads = {"solve-serial"};
  EXPECT_EQ(gate(partial), 1);
  EXPECT_EQ(run_compare(write("parent2", partial).string() + " " +
                        write("change2", Side{}).string()),
            1);
}

TEST_F(BenchGate, MissingMetricFails) {
  Side change;
  change.metrics.erase("colors_used_total");
  EXPECT_EQ(gate(change), 1);
}

TEST_F(BenchGate, TakesNoOptions) {
  // Bounds come only from BENCHMARK.json: a threshold flag is a usage
  // error, and so is a third directory.
  const std::string dirs = write("parent", Side{}).string() + " " +
                           write("change", Side{}).string();
  EXPECT_EQ(run_compare("--threshold 0.5 " + dirs), 2);
  EXPECT_EQ(run_compare(dirs + " " + dirs), 2);
}

}  // namespace
