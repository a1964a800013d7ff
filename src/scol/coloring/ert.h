// Constructive Theorem 1.1 (Borodin; Erdős–Rubin–Taylor): a connected graph
// that is not a Gallai tree is L-colorable whenever |L(v)| >= deg(v) for
// every v. This module implements the classical constructive proof, which
// Lemma 3.2 applies to the uncolored root balls B_R(r_i).
//
// Cases (each returns a valid coloring):
//   1. Some vertex w has |L(w)| > deg(w): color greedily by decreasing
//      BFS distance from w — every other vertex still has an uncolored
//      neighbor closer to w at its turn, and w has spare capacity.
//   2. All lists tight (|L(v)| == deg(v)). Peel the block tree toward a
//      block B* that is neither a clique nor an odd cycle (exists since G
//      is not a Gallai tree): leaf blocks B with anchor cut vertex x are
//      colored greedily toward x, shrinking x's list but preserving the
//      invariant |L'(v)| >= deg_remaining(v). Then inside 2-connected B*:
//      a. a surplus vertex appeared -> case 1 locally;
//      b. adjacent u,v with L(u) != L(v): color u with c in L(u)\L(v) and
//         finish greedily toward v (B*-u is connected by 2-connectedness);
//      c. all lists equal (so B* is r-regular): an even cycle is 2-colored
//         directly; otherwise (r >= 3, non-complete) Lovász's split: find
//         u with non-adjacent neighbors a, b with B*-{a,b} connected,
//         color a and b with the same color, finish greedily toward u.
//
// `BallColorer` runs the construction on one connected piece of a bigger
// host graph at a time (Lemma 3.2's root balls inside G_i[R]). Singleton
// pieces and Case 1 run in place, at a cost proportional to the piece;
// only an all-tight piece of >= 2 vertices is induced and takes the
// block-tree path. `degree_choosable_coloring` is the same kernel with
// the whole graph as its one piece.
#pragma once

#include <span>
#include <vector>

#include "scol/coloring/small_color_set.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/util/executor.h"

namespace scol {

/// Per-vertex available colors (sorted, unique); semantics of L(v) after
/// removing the colors of already-colored outside neighbors.
using AvailableLists = std::vector<std::vector<Color>>;

/// Colors every vertex of connected `g` with c[v] in avail[v].
/// Preconditions (throws PreconditionError otherwise): g connected,
/// every avail[v] sorted, |avail[v]| >= deg(v) for all v, and (some
/// vertex has surplus |avail[w]| > deg(w)) OR (g is not a Gallai tree).
/// The construction is sequential, so the result is identical under
/// every executor; `executor` is accepted for call-site uniformity.
Coloring degree_choosable_coloring(const Graph& g, const AvailableLists& avail,
                                   const Executor* executor = nullptr);

/// Theorem 1.1 on pieces of one host graph, one piece at a time. Scratch
/// (one relabel array over the host, the rest sized by the largest piece)
/// is allocated once and reset over each piece's members, so a piece
/// costs O(its vertices + their host degrees + their lists) unless it is
/// all tight.
///
/// Use: begin(members); then, for each member i in order, push_color()
/// its list and end_list(); then color(). Member i's color equals vertex
/// i's color in degree_choosable_coloring(induce(host, members), lists),
/// preconditions and exceptions included.
class BallColorer {
 public:
  explicit BallColorer(const Graph& host);

  /// Starts a piece: strictly ascending host ids. Local id i is members[i].
  void begin(std::span<const Vertex> members);

  /// Number of host neighbors of member i inside the piece.
  Vertex degree(std::size_t i) const { return degree_[i]; }

  /// Appends c to the list of the next member without a closed list.
  void push_color(Color c) { list_colors_.push_back(c); }

  /// Closes that member's list; lists must be sorted.
  void end_list();

  /// Colors the piece. Element i is member i's color; the span is valid
  /// until the next begin().
  std::span<const Color> color();

 private:
  std::span<const Color> list(std::size_t i) const;
  void bfs_from(Vertex root);
  void color_from_surplus(Vertex w);
  void color_tight();

  const Graph& host_;
  std::vector<Vertex> local_;  // host id -> local id, -1 outside the piece
  std::vector<Vertex> members_;
  std::vector<Vertex> degree_;
  std::vector<std::size_t> list_off_;
  std::vector<Color> list_colors_;
  std::vector<Vertex> dist_;   // BFS distance by local id
  std::vector<Vertex> queue_;  // BFS order, then the greedy order
  std::vector<std::size_t> bucket_start_;
  std::vector<Color> colors_;
  SmallColorSet forbidden_;
};

}  // namespace scol
