#include "scol/api/scenario.h"

#include <algorithm>
#include <limits>

#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/gen/special.h"
#include "scol/io/io.h"
#include "scol/util/thread_pool.h"

namespace scol {
namespace {

// An edge-count key m: at least 0, and at most n(n-1)/2, the simple-graph
// maximum (its default too: gnm:n=3 has no room for 1.4n edges).
std::int64_t edges_key(const ParamBag& p, Vertex n, std::int64_t def) {
  const std::int64_t m = p.get<std::int64_t>("m", def, 0);
  const std::int64_t max_m = std::int64_t{n} * (n - 1) / 2;
  if (m > max_m)
    throw ParamError("param 'm' = " + std::to_string(m) +
                     " exceeds the simple-graph maximum n*(n-1)/2 = " +
                     std::to_string(max_m));
  return m;
}

void register_builtin_scenarios(ScenarioRegistry& r) {
  // --- Lattices (planar and surface workloads). ---
  r.add({"grid", "planar grid; rows=20, cols=20", {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return grid(p.get<Vertex>("rows", 20, 1),
                       p.get<Vertex>("cols", 20, 1));
         }});
  r.add({"cylinder", "planar cylinder; rows=16, cols=16", {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return cylinder(p.get<Vertex>("rows", 16, 3),
                           p.get<Vertex>("cols", 16, 1));
         }});
  r.add({"torus", "torus quadrangulation (genus 1); rows=12, cols=12",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return torus_grid(p.get<Vertex>("rows", 12, 3),
                             p.get<Vertex>("cols", 12, 3));
         }});
  r.add({"torus-tri", "triangulated torus grid; rows=8, cols=8",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return torus_triangulation(p.get<Vertex>("rows", 8, 5),
                                      p.get<Vertex>("cols", 8, 5));
         }});
  r.add({"klein", "Klein-bottle quadrangulation (Figure 2); k=9, l=9",
         {"k", "l"},
         [](const ParamBag& p, Rng&) {
           return klein_grid(p.get<Vertex>("k", 9, 3),
                             p.get<Vertex>("l", 9, 3));
         }});
  r.add({"hex", "hexagonal girth-6 patch; rows=16, cols=16",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return hex_patch(p.get<Vertex>("rows", 16, 2),
                            p.get<Vertex>("cols", 16, 2));
         }});

  // --- Random planar families (Corollary 2.3 workloads). ---
  r.add({"planar", "random stacked (Apollonian) triangulation; n=400", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_stacked_triangulation(p.get<Vertex>("n", 400, 3),
                                               rng);
         }});
  r.add({"grid-diag", "grid with random diagonals; rows=16, cols=16",
         {"rows", "cols"},
         [](const ParamBag& p, Rng& rng) {
           return grid_random_diagonals(p.get<Vertex>("rows", 16, 2),
                                        p.get<Vertex>("cols", 16, 2), rng);
         }});
  r.add({"subhex", "vertex-deleted hex patch (girth >= 6); rows=20, "
                   "cols=20, p=0.1",
         {"rows", "cols", "p"},
         [](const ParamBag& p, Rng& rng) {
           return random_subhex(p.get<Vertex>("rows", 20, 2),
                                p.get<Vertex>("cols", 20, 2),
                                p.get_real("p", 0.1), rng);
         }});

  // --- Random sparse families (Theorem 1.3 / Corollary 1.4 workloads). ---
  r.add({"gnm", "random simple graph with m edges; n=512, m=717", {"n", "m"},
         [](const ParamBag& p, Rng& rng) {
           const Vertex n = p.get<Vertex>("n", 512, 0);
           return gnm(n, edges_key(p, n, static_cast<std::int64_t>(1.4 * n)),
                      rng);
         }});
  r.add({"tree", "uniform random labelled tree; n=512", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_tree(p.get<Vertex>("n", 512, 1), rng);
         }});
  r.add({"forest", "union of a random spanning trees (arboricity <= a); "
                   "n=512, a=2",
         {"n", "a"},
         [](const ParamBag& p, Rng& rng) {
           return random_forest_union(p.get<Vertex>("n", 512, 2),
                                      p.get<Vertex>("a", 2, 1), rng);
         }});
  r.add({"regular", "random d-regular graph; n=512, d=4", {"n", "d"},
         [](const ParamBag& p, Rng& rng) {
           return random_regular(p.get<Vertex>("n", 512, 2),
                                 p.get<Vertex>("d", 4, 1), rng);
         }});
  r.add({"gallai", "random Gallai tree; blocks=40, max_clique=5",
         {"blocks", "max_clique"},
         [](const ParamBag& p, Rng& rng) {
           return random_gallai_tree(p.get<Vertex>("blocks", 40, 1),
                                     p.get<Vertex>("max_clique", 5, 2), rng);
         }});
  r.add({"non-gallai", "random connected non-Gallai graph; n=64", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_non_gallai(p.get<Vertex>("n", 64, 4), rng);
         }});

  // --- Circulants and powers (lower-bound gadgets). ---
  r.add({"cycle-power", "k-th power of the cycle C_n; n=48, k=3",
         {"n", "k"},
         [](const ParamBag& p, Rng&) {
           return cycle_power(p.get<Vertex>("n", 48, 3),
                              p.get<Vertex>("k", 3, 1));
         }});
  r.add({"path-power", "k-th power of the path P_n; n=48, k=3",
         {"n", "k"},
         [](const ParamBag& p, Rng&) {
           return path_power(p.get<Vertex>("n", 48, 1),
                             p.get<Vertex>("k", 3, 1));
         }});

  // --- Named classics. ---
  r.add({"complete", "complete graph K_n; n=8", {"n"},
         [](const ParamBag& p, Rng&) {
           return complete(p.get<Vertex>("n", 8, 1));
         }});
  r.add({"bipartite", "complete bipartite K_{a,b}; a=4, b=4", {"a", "b"},
         [](const ParamBag& p, Rng&) {
           return complete_bipartite(p.get<Vertex>("a", 4, 1),
                                     p.get<Vertex>("b", 4, 1));
         }});
  r.add({"cycle", "cycle C_n; n=32", {"n"},
         [](const ParamBag& p, Rng&) {
           return cycle(p.get<Vertex>("n", 32, 3));
         }});
  r.add({"path", "path P_n; n=32", {"n"},
         [](const ParamBag& p, Rng&) {
           return path(p.get<Vertex>("n", 32, 1));
         }});
  r.add({"star", "star with l leaves; leaves=16", {"leaves"},
         [](const ParamBag& p, Rng&) {
           return star(p.get<Vertex>("leaves", 16, 1));
         }});
  r.add({"petersen", "Petersen graph ((3,5)-cage)", {},
         [](const ParamBag&, Rng&) { return petersen(); }});
  r.add({"heawood", "Heawood graph ((3,6)-cage)", {},
         [](const ParamBag&, Rng&) { return heawood(); }});
  r.add({"mcgee", "McGee graph ((3,7)-cage)", {},
         [](const ParamBag&, Rng&) { return mcgee(); }});
  r.add({"grotzsch", "Grötzsch graph (triangle-free, chi = 4)", {},
         [](const ParamBag&, Rng&) { return grotzsch(); }});

  // --- Web-scale synthetic families (gen/scale.h). ---
  r.add({"rmat", "Graph500-style RMAT; scale=16 (n = 2^scale), "
                 "edgefactor=16, a=0.57, b=0.19, c=0.19",
         {"scale", "edgefactor", "a", "b", "c"},
         [](const ParamBag& p, Rng& rng) {
           const Vertex scale = p.get<Vertex>("scale", 16, 0, 30);
           // edgefactor * 2^scale edge draws must fit 64 bits.
           const std::int64_t max_edgefactor =
               std::numeric_limits<std::int64_t>::max() >> scale;
           return rmat(scale,
                       p.get<std::int64_t>("edgefactor", 16, 0,
                                           max_edgefactor),
                       p.get_real("a", 0.57), p.get_real("b", 0.19),
                       p.get_real("c", 0.19), rng);
         }});
  r.add({"powerlaw", "power-law (Chung–Lu) graph with exactly m edges; "
                     "n=65536, m=4n, alpha=2.5",
         {"n", "m", "alpha"},
         [](const ParamBag& p, Rng& rng) {
           const Vertex n = p.get<Vertex>("n", 65536, 0);
           return powerlaw(n, edges_key(p, n, 4 * std::int64_t{n}),
                           p.get_real("alpha", 2.5), rng);
         }});
  r.add({"pref-attach", "preferential attachment (Barabási–Albert); "
                        "n=65536, k=4 edges per new vertex",
         {"n", "k"},
         [](const ParamBag& p, Rng& rng) {
           return pref_attach(p.get<Vertex>("n", 65536, 0),
                              p.get<Vertex>("k", 4, 1), rng);
         }});

  // --- Real-world files (io/). ---
  r.add({"file", "file-backed graph; path=... (required), format=auto "
                 "(auto|dimacs|metis|mtx|edges), threads=1 (parallel "
                 "mmap reader; 0 = all cores); see docs/FORMATS.md",
         {"path", "format", "threads"},
         [](const ParamBag& p, Rng&) {
           const std::string path = p.get_str("path", "");
           SCOL_REQUIRE(!path.empty(),
                        + "scenario 'file' needs a path=... param");
           ReadOptions options;
           options.threads = p.get<int>("threads", 1, 0, kMaxThreads);
           return read_graph_file(path,
                                  parse_format(p.get_str("format", "auto")),
                                  options)
               .graph;
         }});
}

[[noreturn]] void spec_error(const std::string& spec, std::size_t offset,
                             const std::string& what) {
  throw PreconditionError("scenario spec '" + spec + "': " + what +
                          " at offset " + std::to_string(offset));
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    register_builtin_scenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(ScenarioInfo info) {
  SCOL_REQUIRE(!info.name.empty(), + "scenario name must be non-empty");
  SCOL_REQUIRE(static_cast<bool>(info.build),
               + "scenario must have a build function");
  SCOL_REQUIRE(find(info.name) == nullptr,
               + ("duplicate scenario name '" + info.name + "'"));
  scenarios_.push_back(std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

const ScenarioInfo& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioInfo* s = find(name);
  if (s == nullptr) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw PreconditionError("unknown scenario '" + name + "'" +
                            did_you_mean(name, names()) +
                            "; known: " + known);
  }
  return *s;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<std::string, ParamBag> parse_scenario_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  std::pair<std::string, ParamBag> out;
  out.first = spec.substr(0, colon);
  if (out.first.empty()) spec_error(spec, 0, "empty scenario name");
  if (colon == std::string::npos) return out;
  // Each comma-separated segment must be "key=value" or a bare "key"
  // (true flag). Empty segments, keys, and values are malformed — they
  // are always a typo ("rows=,cols=8", "grid:,"), never intent.
  std::size_t pos = colon + 1;
  while (true) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma == pos) spec_error(spec, pos, "empty key=value segment");
    const std::string segment = spec.substr(pos, comma - pos);
    const std::size_t eq = segment.find('=');
    if (eq == 0) spec_error(spec, pos, "empty key");
    if (eq != std::string::npos && eq + 1 == segment.size())
      spec_error(spec, pos + eq + 1,
                 "empty value for key '" + segment.substr(0, eq) + "'");
    try {
      parse_param(out.second, segment);
    } catch (const ParamError& e) {
      spec_error(spec, pos + eq + 1, e.what());
    }
    if (comma == spec.size()) break;
    pos = comma + 1;
    if (pos == spec.size()) spec_error(spec, pos, "trailing comma");
  }
  return out;
}

std::pair<std::string, ParamBag> validate_scenario_spec(
    const std::string& spec) {
  auto parsed = parse_scenario_spec(spec);
  require_known_keys(parsed.second,
                     ScenarioRegistry::instance().at(parsed.first).keys,
                     "scenario spec '" + spec + "'", spec);
  return parsed;
}

Graph build_scenario(const std::string& spec, Rng& rng) {
  const auto [name, params] = validate_scenario_spec(spec);
  try {
    return ScenarioRegistry::instance().at(name).build(params, rng);
  } catch (const ParamError& e) {
    throw PreconditionError("scenario spec '" + spec + "': " + e.what());
  }
}

}  // namespace scol
