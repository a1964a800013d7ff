// Rich / poor / happy vertex classification (paper §3).
//
// For an n-vertex graph G and integer d: a vertex is *rich* if deg_G(v) <=
// d, else *poor*. For rich v, the rich ball B_R(v) is the radius-rho ball
// around v in G[R] (rho = ceil(c ln n), c = 12/ln(6/5)). v is *happy* iff
// B_R(v) contains a vertex of degree <= d-1 in G, or does not induce a
// Gallai tree. A = happy vertices; S = rich but sad.
//
// Lemma 3.1: |A| >= n/(3d)^3, and |A| >= n/(12d+1) when no vertex is poor.
//
// The computation here is exact; three fast paths accelerate it:
//  (1) condition 1 is a multi-source BFS from the low-degree witnesses;
//  (2) if a component of G[R] is a Gallai tree, no ball in it is
//      non-Gallai (connected induced subgraphs of Gallai trees are Gallai
//      trees), so condition 2 is false throughout;
//  (3) if a component has radius <= rho from every vertex (checked via
//      2*ecc bound), every ball equals the component — one check decides
//      all; otherwise escalate witness radii r = 1,2,4,...,rho using the
//      monotonicity lemma: if B_r(w) is non-Gallai and dist(v,w) + r <=
//      rho then B_rho(v) is non-Gallai (a bad block of an induced subgraph
//      embeds as an induced 2-connected non-clique non-odd-cycle subgraph,
//      which cannot sit inside a clique or odd-cycle block of the larger
//      ball).
#pragma once

#include <cmath>
#include <limits>

#include "scol/graph/graph.h"
#include "scol/util/executor.h"

namespace scol {

/// The paper's ball-radius constant c = 12/ln(6/5).
inline constexpr double kPaperBallConstant = 65.8211832733887;

/// rho = ceil(c * ln n), at least 1; requires it to fit a Vertex.
inline Vertex paper_ball_radius(Vertex n, double c = kPaperBallConstant) {
  if (n <= 1) return 1;
  const double rho =
      std::max(1.0, std::ceil(c * std::log(static_cast<double>(n))));
  SCOL_REQUIRE(rho <= std::numeric_limits<Vertex>::max(),
               + "ball radius exceeds the vertex-id range");
  return static_cast<Vertex>(rho);
}

struct HappyAnalysis {
  Vertex d = 0;
  Vertex radius = 0;
  std::vector<char> rich;   // deg_G(v) <= d
  std::vector<char> happy;  // the set A (subset of rich)
  Vertex num_rich = 0;
  Vertex num_poor = 0;
  Vertex num_happy = 0;
  Vertex num_sad = 0;  // |S| = rich and not happy

  std::vector<char> sad_mask() const {
    std::vector<char> s(rich.size(), 0);
    for (std::size_t v = 0; v < rich.size(); ++v) s[v] = rich[v] && !happy[v];
    return s;
  }
};

/// Exact happy-set computation for radius `rho`. The rich/witness degree
/// classification pass runs under the executor (`nullptr` = serial; the
/// result is bit-identical either way, per DESIGN.md).
HappyAnalysis compute_happy_set(const Graph& g, Vertex d, Vertex rho,
                                const Executor* executor = nullptr);

/// Generalized form (used by Theorem 6.1's nice-list variant, where every
/// vertex is rich and the condition-1 witnesses are the surplus vertices
/// |L(v)| > deg(v)): rich_mask selects R, witness_mask selects the
/// condition-1 witness set W (must be a subset of R); a rich vertex is
/// happy iff its radius-rho ball in G[R] meets W or is not a Gallai tree.
HappyAnalysis compute_happy_set_general(const Graph& g,
                                        const std::vector<char>& rich_mask,
                                        const std::vector<char>& witness_mask,
                                        Vertex rho,
                                        const Executor* executor = nullptr);

}  // namespace scol
