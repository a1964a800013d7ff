// scol-cli — run any registered algorithm over any generator or
// file-backed scenario and emit a machine-readable JSON ColoringReport;
// `scol-cli campaign` runs a whole scenario x algorithm x seed grid with
// the consistency oracle; `scol-cli probe` reports a graph's certified
// structure and which algorithms' preconditions it satisfies.
//
//   $ scol-cli --algo sparse --gen regular:n=512,d=4 --k 4
//   $ scol-cli --algo gps --gen planar:n=800 --pretty
//   $ scol-cli --algo greedy --gen file:path=examples/graphs/grotzsch.col
//   $ scol-cli probe --gen file:path=my.mtx       # structure + eligibility
//   $ scol-cli gen --gen rmat:scale=20 --out big.edges   # materialize
//   $ scol-cli --list-algos        # registry contents
//   $ scol-cli --list-gens         # scenario vocabulary
//   $ scol-cli campaign --gen grid --gen regular:n=64,d=4 --algo greedy
//       --algo sparse --seeds 5 --jobs 4 --out runs.jsonl
//   $ scol-cli campaign --gen file:path=g.col --algo all --seeds 3
//
// Flags:
//   --algo NAME        algorithm (required unless listing)
//   --gen SPEC         scenario spec "name:key=val,..." (default grid)
//   --k K              palette-ish parameter / uniform list size
//                      (default max degree + 1 when lists are needed)
//   --lists MODE       uniform | random (palette subsets; default uniform)
//   --palette P        palette size for --lists random (default 4k)
//   --param key=val    per-algorithm parameter (repeatable)
//   --seed S           scenario + algorithm seed (default 1)
//   --threads T        run under a ThreadPoolExecutor with T threads
//   --shards P         price the run's LOCAL exchange on a P-shard CSR
//                      partition: the report gains shards /
//                      boundary_vertices / cut_edges and exchange_messages
//                      = ledger rounds x boundary pairs; everything else
//                      is the unpriced report (combines with --threads)
//   --round-budget R   RunContext round budget
//   --deadline-ms D    RunContext wall-clock budget
//   --no-validate      skip the independent output validation
//   --with-coloring    include the full coloring in the JSON
//   --no-timing        zero wall_ms in the report (byte-stable output —
//                      what scol-serve caches and scol-bench-load checks)
//   --pretty           indent the JSON
//   --version          print version and exit
//   --help             usage and exit-code summary
//
// Campaign mode (`scol-cli campaign`):
//   --gen SPEC         scenario axis (repeatable; default grid)
//   --algo NAME        algorithm axis (repeatable; "all" = whole registry)
//   --seed S           first seed (default 1)
//   --seeds N          seeds per scenario (default 1)
//   --k / --lists / --palette / --param / --round-budget as above
//   --algo-param NAME:key=val   per-algorithm param override (repeatable)
//   --jobs N           thread pool over instances — one instance is all
//                      algorithms on one generated graph (default 1)
//   --shards P         price every job's exchange on a P-shard partition:
//                      each line gains a "shards" field + the exchange
//                      metrics above (default 1 = unpriced)
//   --shard i/m        run shard i of m (instances round-robin)
//   --out FILE         JSONL to FILE, summary to stdout (default: JSONL to
//                      stdout, summary to stderr)
//   --summary-only     no JSONL at all: per-job serialization is skipped
//                      (the fast path for pure throughput / summary runs);
//                      summary to stdout. Mutually exclusive with --out
//   --with-timing      real per-line wall_ms (breaks stream bit-identity)
//   --no-probe         disable the probe filter: ineligible cells fail
//                      with a PreconditionError message instead of
//                      becoming status:"skipped" lines
//   --planarity-limit N / --girth-limit L / --mad-limit N
//                      probe cost bounds (same flags as `scol-cli probe`,
//                      so a probe dry run predicts the campaign's skips)
//   --probe-budget B   sampled probes on instances with n + m > B
//                      (certified-but-weaker facts; see io/probe.h)
//
// Probe mode (`scol-cli probe`):
//   --gen SPEC         scenario to probe (generator or file:path=...)
//   --k K              effective k for eligibility (default: per-algorithm
//                      auto, max(3, max_degree + 1) for list algorithms)
//   --param key=val    params visible to precondition checks (repeatable)
//   --seed S           scenario seed (default 1)
//   --planarity-limit N / --girth-limit L / --mad-limit N  probe bounds
//   --probe-budget B   sampled mode above n + m > B (0 = always exact)
//   Prints {scenario, probe, algorithms:[{name, eligible, reason?, k}]}.
//
// Gen mode (`scol-cli gen`):
//   --gen SPEC         scenario to materialize (default grid)
//   --seed S           scenario seed (default 1)
//   --out FILE         output path (required; extension picks the format)
//   --format F         override the format (dimacs|metis|mtx|edges)
//   Writes the graph with scol's own writers and prints one JSON line
//   {spec, seed, path, format, n, m} — the big-graph pipeline's first
//   stage (gen -> parallel read -> probe -> solve).
//
// Exit code: 0 for a kColored/kInfeasible report (both are answers),
// 1 for kFailed, for any oracle violation in campaign mode, and for a
// runtime failure (std::bad_alloc, an internal error, a failed write),
// 2 for usage errors: bad flags, specs or input files (PreconditionError).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "parse_num.h"
#include "scol/api/api.h"
#include "scol/api/oneshot.h"
#include "scol/io/io.h"
#include "scol/util/executor.h"
#include "scol/version.h"

namespace {

using namespace scol;

const char* kUsage =
    "usage: scol-cli --algo NAME [--gen SPEC] [--k K] "
    "[--lists uniform|random] [--palette P]\n"
    "                [--param key=val]... [--seed S] "
    "[--threads T] [--shards P] [--round-budget R]\n"
    "                [--deadline-ms D] [--no-validate] "
    "[--with-coloring] [--no-timing] [--pretty]\n"
    "       scol-cli campaign ... | scol-cli probe ... | scol-cli gen ...\n"
    "       scol-cli --list-algos | --list-gens | --version | --help\n"
    "exit codes: 0 colored or infeasible (both are answers; campaign: "
    "no oracle violation),\n"
    "            1 failed report / oracle violation / runtime failure, "
    "2 usage error\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scol-cli: " << message << "\n" << kUsage;
  std::exit(2);
}

// The exit code of an exception that ends a run: a PreconditionError is
// a bad flag, spec or input file (2); anything else is a runtime
// failure (1).
int exception_exit_code(const std::string& who, const std::exception& e) {
  std::cerr << who << ": " << e.what() << "\n";
  return dynamic_cast<const PreconditionError*>(&e) != nullptr ? 2 : 1;
}

void list_algorithms() {
  Json arr = Json::array();
  for (const auto& name : AlgorithmRegistry::instance().names()) {
    const AlgorithmInfo& info = AlgorithmRegistry::instance().at(name);
    Json obj = Json::object();
    obj.set("name", Json::str(info.name));
    obj.set("summary", Json::str(info.summary));
    obj.set("needs_lists", Json::boolean(info.caps.needs_lists));
    obj.set("uses_k", Json::boolean(info.caps.uses_k));
    obj.set("randomized", Json::boolean(info.caps.randomized));
    obj.set("distributed", Json::boolean(info.caps.distributed));
    obj.set("proves_infeasibility",
            Json::boolean(info.caps.proves_infeasibility));
    Json kinds = Json::array();
    for (const auto& k : info.caps.certificate_kinds)
      kinds.push(Json::str(k));
    obj.set("certificate_kinds", std::move(kinds));
    arr.push(std::move(obj));
  }
  std::cout << arr.dump(2) << "\n";
}

void list_scenarios() {
  Json arr = Json::array();
  for (const auto& name : ScenarioRegistry::instance().names()) {
    const ScenarioInfo& info = ScenarioRegistry::instance().at(name);
    Json obj = Json::object();
    obj.set("name", Json::str(info.name));
    obj.set("summary", Json::str(info.summary));
    arr.push(std::move(obj));
  }
  std::cout << arr.dump(2) << "\n";
}

// The probe cost flags `scol-cli probe` and `scol-cli campaign` share,
// with the same ranges: when argv[i] is one, reads its value into
// `options`, moves i onto that value and returns true.
template <typename Fail>
bool parse_probe_flag(int argc, char** argv, int& i, ProbeOptions& options,
                      Fail&& fail) {
  const std::string arg = argv[i];
  const auto value = [&](std::int64_t max_value) {
    if (i + 1 >= argc) fail(arg + " needs a value");
    return scol_cli_parse::checked_int(argv[++i], arg.c_str(), 0, max_value,
                                       fail);
  };
  constexpr std::int64_t kMaxVertex = std::numeric_limits<Vertex>::max();
  if (arg == "--planarity-limit") {
    options.planarity_limit = static_cast<Vertex>(value(kMaxVertex));
  } else if (arg == "--girth-limit") {
    options.girth_limit = static_cast<Vertex>(value(kMaxVertex));
  } else if (arg == "--mad-limit") {
    options.exact_mad_limit = static_cast<Vertex>(value(kMaxVertex));
  } else if (arg == "--probe-budget") {
    options.budget = value(std::numeric_limits<std::int64_t>::max());
  } else {
    return false;
  }
  return true;
}

[[noreturn]] void probe_usage_error(const std::string& message) {
  std::cerr << "scol-cli probe: " << message << "\n"
            << "usage: scol-cli probe [--gen SPEC] [--k K] [--seed S] "
               "[--param key=val]...\n"
               "                [--planarity-limit N] [--girth-limit L] "
               "[--mad-limit N]\n"
               "                [--probe-budget B] [--pretty]\n";
  std::exit(2);
}

[[noreturn]] void gen_usage_error(const std::string& message) {
  std::cerr << "scol-cli gen: " << message << "\n"
            << "usage: scol-cli gen [--gen SPEC] [--seed S] --out FILE "
               "[--format dimacs|metis|mtx|edges]\n";
  std::exit(2);
}

// `scol-cli gen ...`: materialize one scenario to a graph file — the
// first stage of the big-graph pipeline (gen -> parallel read -> sampled
// probe -> solve) and the generator half of the reader differential
// tests.
int gen_main(int argc, char** argv) {
  std::string gen = "grid";
  std::string out_path;
  std::string format_arg = "auto";
  std::uint64_t seed = 1;

  const auto need_value = [&](int i, const char* flag) -> std::string {
    if (i + 1 >= argc) gen_usage_error(std::string(flag) + " needs a value");
    return argv[i + 1];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gen") {
      gen = need_value(i, "--gen");
      ++i;
    } else if (arg == "--seed") {
      seed = scol_cli_parse::checked_seed(need_value(i, "--seed"), "--seed",
                                          gen_usage_error);
      ++i;
    } else if (arg == "--out") {
      out_path = need_value(i, "--out");
      ++i;
    } else if (arg == "--format") {
      format_arg = need_value(i, "--format");
      ++i;
    } else {
      gen_usage_error("unknown flag '" + arg + "'");
    }
  }
  if (out_path.empty()) gen_usage_error("--out is required");

  try {
    // Resolve the format first: a bad --format or --out extension must
    // not wait for a large graph to be built.
    GraphFormat format = parse_format(format_arg);
    if (format == GraphFormat::kAuto) format = sniff_format(out_path, "");
    // Likewise an unwritable --out. Opening in append mode truncates
    // nothing, so a failed build leaves an existing file as it was; a
    // file this probe created is removed again.
    std::error_code ec;
    const bool existed = std::filesystem::exists(out_path, ec);
    if (!std::ofstream(out_path, std::ios::binary | std::ios::app))
      throw PreconditionError(out_path + ": cannot open file for writing");
    Rng rng(seed);
    Graph g;
    try {
      g = build_scenario(gen, rng);
    } catch (...) {
      if (!existed) std::remove(out_path.c_str());
      throw;
    }
    write_graph_file(out_path, g, format);

    Json out = Json::object();
    out.set("spec", Json::str(gen));
    out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
    out.set("path", Json::str(out_path));
    out.set("format", Json::str(format_name(format)));
    out.set("n", Json::integer(g.num_vertices()));
    out.set("m", Json::integer(g.num_edges()));
    std::cout << out.dump(-1) << "\n";
    return 0;
  } catch (const std::exception& e) {
    return exception_exit_code("scol-cli gen", e);
  }
}

// `scol-cli probe ...`: certified structure of one scenario's graph plus
// the per-algorithm eligibility verdicts — the dry-run companion of
// `campaign --algo all` over arbitrary files.
int probe_main(int argc, char** argv) {
  std::string gen = "grid";
  Vertex k = -1;
  std::uint64_t seed = 1;
  bool pretty = false;
  ParamBag params;
  ProbeOptions probe_options;

  const auto need_value = [&](int i, const char* flag) -> std::string {
    if (i + 1 >= argc) probe_usage_error(std::string(flag) +
                                         " needs a value");
    return argv[i + 1];
  };
  for (int i = 2; i < argc; ++i) {
    if (parse_probe_flag(argc, argv, i, probe_options, probe_usage_error))
      continue;
    const std::string arg = argv[i];
    if (arg == "--gen") {
      gen = need_value(i, "--gen");
      ++i;
    } else if (arg == "--k") {
      k = static_cast<Vertex>(scol_cli_parse::checked_int(
          need_value(i, "--k"), "--k", -1,
          std::numeric_limits<Vertex>::max(), probe_usage_error));
      ++i;
    } else if (arg == "--seed") {
      seed = scol_cli_parse::checked_seed(need_value(i, "--seed"), "--seed",
                                          probe_usage_error);
      ++i;
    } else if (arg == "--param") {
      parse_param(params, need_value(i, "--param"));
      ++i;
    } else if (arg == "--pretty") {
      pretty = true;
    } else {
      probe_usage_error("unknown flag '" + arg + "'");
    }
  }

  try {
    Rng rng(seed);
    const Graph g = build_scenario(gen, rng);
    const GraphProbe probe = probe_graph(g, probe_options);

    Json out = Json::object();
    out.set("scenario", scenario_json(gen, g));
    out.set("probe", to_json(probe));
    out.set("k", Json::integer(k));
    out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));

    // The campaign's per-job admission (admit()), so the verdicts here
    // predict exactly what `campaign --algo all` would skip, given the
    // same --k/--param/probe-limit values.
    Json algorithms = Json::array();
    for (const auto& name : AlgorithmRegistry::instance().names()) {
      const Admission admission = admit(AlgorithmRegistry::instance().at(name),
                                        g, k, "uniform", -1, params, &probe);
      const std::string& reason = admission.skip_reason;
      Json entry = Json::object();
      entry.set("name", Json::str(name));
      entry.set("eligible", Json::boolean(reason.empty()));
      if (!reason.empty()) entry.set("reason", Json::str(reason));
      entry.set("k", Json::integer(admission.k));
      algorithms.push(std::move(entry));
    }
    out.set("algorithms", std::move(algorithms));
    std::cout << out.dump(pretty ? 2 : -1) << "\n";
    return 0;
  } catch (const std::exception& e) {
    return exception_exit_code("scol-cli probe", e);
  }
}

[[noreturn]] void campaign_usage_error(const std::string& message) {
  std::cerr << "scol-cli campaign: " << message << "\n"
            << "usage: scol-cli campaign [--gen SPEC]... --algo NAME|all "
               "[--algo NAME]...\n"
               "                [--seed S] [--seeds N] [--k K] "
               "[--lists uniform|random] [--palette P]\n"
               "                [--param key=val]... "
               "[--algo-param NAME:key=val]... [--round-budget R]\n"
               "                [--jobs N] [--shards P] [--shard i/m]\n"
               "                [--out FILE | "
               "--summary-only] [--with-timing] [--no-probe]\n"
               "                [--planarity-limit N] [--girth-limit L] "
               "[--mad-limit N]\n"
               "                [--probe-budget B] [--pretty]\n";
  std::exit(2);
}

// `scol-cli campaign ...`: the grid runner. JSONL goes to --out (or
// stdout), the aggregate summary to stdout (or stderr when the lines own
// stdout), and the exit code surfaces oracle violations.
int campaign_main(int argc, char** argv) {
  CampaignSpec spec;
  CampaignOptions options;
  int jobs = 1;
  bool pretty = false;
  bool summary_only = false;
  std::string out_path;

  const auto need_value = [&](int i, const char* flag) -> std::string {
    if (i + 1 >= argc) campaign_usage_error(std::string(flag) +
                                            " needs a value");
    return argv[i + 1];
  };
  for (int i = 2; i < argc; ++i) {
    if (parse_probe_flag(argc, argv, i, spec.probe_options,
                         campaign_usage_error))
      continue;
    const std::string arg = argv[i];
    if (arg == "--gen") {
      spec.scenarios.push_back(need_value(i, "--gen"));
      ++i;
    } else if (arg == "--algo") {
      const std::string name = need_value(i, "--algo");
      if (name == "all") {
        for (const auto& n : AlgorithmRegistry::instance().names())
          spec.algorithms.push_back(n);
      } else {
        spec.algorithms.push_back(name);
      }
      ++i;
    } else if (arg == "--seed") {
      spec.seed = scol_cli_parse::checked_seed(need_value(i, "--seed"),
                                               "--seed",
                                               campaign_usage_error);
      ++i;
    } else if (arg == "--seeds") {
      spec.seeds = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--seeds"), "--seeds", 1,
          std::numeric_limits<int>::max(), campaign_usage_error));
      ++i;
    } else if (arg == "--k") {
      spec.k = static_cast<Vertex>(scol_cli_parse::checked_int(
          need_value(i, "--k"), "--k", -1,
          std::numeric_limits<Vertex>::max(), campaign_usage_error));
      ++i;
    } else if (arg == "--lists") {
      spec.lists_mode = need_value(i, "--lists");
      ++i;
    } else if (arg == "--palette") {
      spec.palette = static_cast<Vertex>(scol_cli_parse::checked_int(
          need_value(i, "--palette"), "--palette", -1,
          std::numeric_limits<Vertex>::max(), campaign_usage_error));
      ++i;
    } else if (arg == "--param") {
      parse_param(spec.params, need_value(i, "--param"));
      ++i;
    } else if (arg == "--algo-param") {
      const std::string v = need_value(i, "--algo-param");
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == v.size())
        campaign_usage_error("--algo-param wants NAME:key=val, got '" + v +
                             "'");
      ParamBag bag;
      parse_param(bag, v.substr(colon + 1));
      spec.algo_params.emplace_back(v.substr(0, colon), std::move(bag));
      ++i;
    } else if (arg == "--round-budget") {
      spec.round_budget = scol_cli_parse::checked_int(
          need_value(i, "--round-budget"), "--round-budget", -1,
          std::numeric_limits<std::int64_t>::max(), campaign_usage_error);
      ++i;
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--jobs"), "--jobs", 1,
          std::numeric_limits<int>::max(), campaign_usage_error));
      ++i;
    } else if (arg == "--shards") {
      spec.exec_shards = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--shards"), "--shards", 1,
          std::numeric_limits<int>::max(), campaign_usage_error));
      ++i;
    } else if (arg == "--shard") {
      std::int64_t shard_index = 0;
      std::int64_t shard_count = 0;
      scol_cli_parse::checked_shard_spec(need_value(i, "--shard"),
                                         &shard_index, &shard_count,
                                         campaign_usage_error);
      options.shard_index = static_cast<int>(shard_index);
      options.shard_count = static_cast<int>(shard_count);
      ++i;
    } else if (arg == "--out") {
      out_path = need_value(i, "--out");
      ++i;
    } else if (arg == "--with-timing") {
      options.include_timing = true;
    } else if (arg == "--summary-only") {
      summary_only = true;
    } else if (arg == "--no-probe") {
      spec.probe = false;
    } else if (arg == "--pretty") {
      pretty = true;
    } else {
      campaign_usage_error("unknown flag '" + arg + "'");
    }
  }
  if (spec.scenarios.empty()) spec.scenarios.push_back("grid");
  if (spec.algorithms.empty())
    campaign_usage_error("--algo is required (name or 'all')");
  if (summary_only && !out_path.empty())
    campaign_usage_error("--summary-only and --out are mutually exclusive");

  try {
    std::ofstream out_file;
    if (!out_path.empty()) {
      out_file.open(out_path);
      if (!out_file) campaign_usage_error("cannot open --out '" + out_path +
                                          "'");
    }
    std::ostream& lines = out_path.empty() ? std::cout : out_file;
    std::ostream& summary =
        (out_path.empty() && !summary_only) ? std::cerr : std::cout;

    // grain=1: the unit of job-level work is one instance, not 256.
    std::unique_ptr<ThreadPoolExecutor> pool;
    if (jobs > 1) {
      pool = std::make_unique<ThreadPoolExecutor>(jobs, /*grain=*/1);
      options.executor = pool.get();
    }

    // --summary-only passes an empty sink: run_campaign's fast path then
    // skips per-job JSONL serialization entirely.
    CampaignSink sink;
    if (!summary_only)
      sink = [&](const std::string& line) { lines << line << "\n"; };
    const CampaignResult result = run_campaign(spec, options, sink);
    lines.flush();
    if (!lines) {
      // Runtime failure (disk full, closed pipe), not a usage error: the
      // JSONL stream is truncated, so don't pretend the run succeeded.
      std::cerr << "scol-cli campaign: write to "
                << (out_path.empty() ? "stdout" : "--out '" + out_path + "'")
                << " failed; JSONL stream is incomplete\n";
      return 1;
    }
    summary << result.summary.dump(pretty ? 2 : -1) << "\n";
    return result.oracle_violations > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    return exception_exit_code("scol-cli campaign", e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "campaign")
    return campaign_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "probe")
    return probe_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "gen")
    return gen_main(argc, argv);
  // The run itself is delegated to one_shot_report() — the same code
  // path scol-serve answers requests with, which is what makes served
  // responses byte-identical to this binary's output by construction.
  OneShotSpec spec;
  bool pretty = false;

  const auto need_value = [&](int i, const char* flag) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-algos") {
      list_algorithms();
      return 0;
    } else if (arg == "--list-gens") {
      list_scenarios();
      return 0;
    } else if (arg == "--version") {
      std::cout << "scol-cli " << kVersion << "\n";
      return 0;
    } else if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--algo") {
      spec.algorithm = need_value(i, "--algo");
      ++i;
    } else if (arg == "--gen") {
      spec.scenario = need_value(i, "--gen");
      ++i;
    } else if (arg == "--lists") {
      spec.lists_mode = need_value(i, "--lists");
      ++i;
    } else if (arg == "--k") {
      spec.k = static_cast<Vertex>(scol_cli_parse::checked_int(
          need_value(i, "--k"), "--k", -1,
          std::numeric_limits<Vertex>::max(), usage_error));
      ++i;
    } else if (arg == "--palette") {
      spec.palette = static_cast<Vertex>(scol_cli_parse::checked_int(
          need_value(i, "--palette"), "--palette", -1,
          std::numeric_limits<Vertex>::max(), usage_error));
      ++i;
    } else if (arg == "--param") {
      parse_param(spec.params, need_value(i, "--param"));
      ++i;
    } else if (arg == "--seed") {
      spec.seed = scol_cli_parse::checked_seed(need_value(i, "--seed"),
                                               "--seed", usage_error);
      ++i;
    } else if (arg == "--threads") {
      spec.threads = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--threads"), "--threads", 0,
          std::numeric_limits<int>::max(), usage_error));
      ++i;
    } else if (arg == "--shards") {
      spec.shards = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--shards"), "--shards", 1,
          std::numeric_limits<int>::max(), usage_error));
      ++i;
    } else if (arg == "--round-budget") {
      spec.round_budget = scol_cli_parse::checked_int(
          need_value(i, "--round-budget"), "--round-budget", -1,
          std::numeric_limits<std::int64_t>::max(), usage_error);
      ++i;
    } else if (arg == "--deadline-ms") {
      spec.deadline_ms = scol_cli_parse::checked_real(
          need_value(i, "--deadline-ms"), "--deadline-ms", -1.0,
          usage_error);
      ++i;
    } else if (arg == "--no-validate") {
      spec.validate = false;
    } else if (arg == "--with-coloring") {
      spec.with_coloring = true;
    } else if (arg == "--no-timing") {
      spec.include_timing = false;
    } else if (arg == "--pretty") {
      pretty = true;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (spec.algorithm.empty()) usage_error("--algo is required");

  try {
    const Json out = one_shot_report(spec);
    std::cout << out.dump(pretty ? 2 : -1) << "\n";
    return one_shot_exit_code(out);
  } catch (const std::exception& e) {
    return exception_exit_code("scol-cli", e);
  }
}
