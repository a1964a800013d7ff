// Property-based testing harness for the solver registry.
//
// The generators below draw small random instances from a seeded Rng —
// every failure reproduces from its (family, seed) pair, printed in the
// sample description. test_properties.cpp drives three property families
// over them:
//
//   validity:    every eligible registered algorithm, run through
//                scol::solve() with independent validation on, must
//                produce a proper, list-respecting coloring;
//   guarantees:  colored reports never exceed the registered color_bound
//                (the campaign oracle's invariant, exercised here on
//                adversarially varied inputs);
//   metamorphic: relabeling the vertices by a random permutation permutes
//                the instance but cannot change a report's status, break
//                validity, or break the color bound — and for the exact
//                solver, cannot change k-colorability at all.
//
// Eligibility reuses the campaign's own admission (admit(): auto-k plus
// the probe's verdict), so the harness runs exactly the cells a campaign
// over the same instance would run.
#pragma once

#include <string>
#include <vector>

#include "scol/api/registry.h"
#include "scol/api/request.h"
#include "scol/api/solve.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/io/probe.h"
#include "scol/util/rng.h"

namespace scol {
namespace proptest {

struct Sample {
  std::string description;  // family + parameters, enough to reproduce
  Graph graph;
};

/// One random small instance from a mixed family pool. Sizes stay modest
/// (n <= ~80) so a full registry sweep over dozens of samples stays in
/// tier-1 time.
inline Sample random_graph(Rng& rng) {
  const int family = static_cast<int>(rng.below(7));
  switch (family) {
    case 0: {
      const Vertex n = 20 + static_cast<Vertex>(rng.below(50));
      const std::int64_t m = n + static_cast<std::int64_t>(rng.below(
                                     static_cast<std::uint64_t>(n)));
      return {"gnm n=" + std::to_string(n) + " m=" + std::to_string(m),
              gnm(n, m, rng)};
    }
    case 1: {
      const Vertex n = 2 * (12 + static_cast<Vertex>(rng.below(25)));
      const Vertex d = 3 + static_cast<Vertex>(rng.below(3));
      return {"regular n=" + std::to_string(n) + " d=" + std::to_string(d),
              random_regular(n, d, rng)};
    }
    case 2: {
      const Vertex n = 20 + static_cast<Vertex>(rng.below(40));
      return {"planar-triangulation n=" + std::to_string(n),
              random_stacked_triangulation(n, rng)};
    }
    case 3: {
      const Vertex r = 3 + static_cast<Vertex>(rng.below(5));
      const Vertex c = 3 + static_cast<Vertex>(rng.below(5));
      return {"grid " + std::to_string(r) + "x" + std::to_string(c),
              grid(r, c)};
    }
    case 4: {
      const Vertex n = 30 + static_cast<Vertex>(rng.below(40));
      const Vertex a = 2 + static_cast<Vertex>(rng.below(2));
      return {"forest-union n=" + std::to_string(n) +
                  " a=" + std::to_string(a),
              random_forest_union(n, a, rng)};
    }
    case 5: {
      const Vertex n = 4 + static_cast<Vertex>(rng.below(4));
      return {"complete n=" + std::to_string(n), complete(n)};
    }
    default: {
      const Vertex n = 20 + static_cast<Vertex>(rng.below(40));
      return {"tree n=" + std::to_string(n), random_tree(n, rng)};
    }
  }
}

/// A uniformly random permutation of 0..n-1.
inline std::vector<Vertex> random_permutation(Vertex n, Rng& rng) {
  std::vector<Vertex> perm(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  return perm;
}

/// Lists for the relabeled graph: new vertex perm[v] gets v's list, so
/// (permute(g, perm), permuted_lists(lists, perm)) is the isomorphic
/// instance of (g, lists).
inline ListAssignment permuted_lists(const ListAssignment& lists,
                                     const std::vector<Vertex>& perm) {
  std::vector<Vertex> inverse(perm.size());
  for (std::size_t v = 0; v < perm.size(); ++v)
    inverse[static_cast<std::size_t>(perm[v])] = static_cast<Vertex>(v);
  return lists.select(inverse);
}

/// One eligible registry cell for an instance: the ready-to-solve request
/// plus the registered bound, mirroring what the campaign would run.
struct EligibleCell {
  const AlgorithmInfo* info = nullptr;
  Vertex k_eff = -1;
  ListAssignment lists;  // built iff info->caps.needs_lists
};

/// Probes the graph once and returns every registered algorithm whose
/// precondition passes, with auto-k lists built exactly like the
/// campaign's uniform mode. `params` seeds per-algorithm parameters
/// (e.g. arboricity for barenboim-elkin); cells whose required params
/// are absent simply fail their precondition and drop out.
inline std::vector<EligibleCell> eligible_cells(const Graph& g,
                                                const ParamBag& params,
                                                const GraphProbe& probe) {
  std::vector<EligibleCell> cells;
  for (const AlgorithmInfo& info : AlgorithmRegistry::instance().all()) {
    const Admission admission =
        admit(info, g, -1, "uniform", -1, params, &probe);
    if (!admission.skip_reason.empty()) continue;
    EligibleCell cell;
    cell.info = &info;
    cell.k_eff = admission.k;
    if (admission.lists != "none")
      cell.lists = admission.build_lists(g.num_vertices(), /*seed=*/0);
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// Builds the request for a cell (lists live in the cell, which must
/// outlive the request).
inline ColoringRequest cell_request(const EligibleCell& cell, const Graph& g) {
  ColoringRequest req;
  req.graph = &g;
  req.algorithm = cell.info->name;
  req.k = cell.k_eff;
  if (cell.info->caps.needs_lists) req.lists = &cell.lists;
  return req;
}

}  // namespace proptest
}  // namespace scol
