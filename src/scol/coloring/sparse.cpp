#include "scol/coloring/sparse.h"

#include <algorithm>

#include "scol/coloring/ert.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/ruling.h"
#include "scol/coloring/small_color_set.h"
#include "scol/graph/cliques.h"
#include "scol/util/prefetch.h"

namespace scol {

// Extends the coloring of G_i - A_i to all of G_i (Lemma 3.2). May recolor
// some vertices of G_i - A_i (as the paper allows). `aux_dmax` plays the
// role of d: it bounds degrees inside G_i[R_i] and sizes the auxiliary
// (aux_dmax+1)-coloring of H.
void extend_level_lemma32(const Graph& g, const LevelMasks& level,
                          const ListAssignment& lists, Vertex aux_dmax,
                          Vertex rho, Coloring& colors, Rounds& rounds,
                          Arena* arena) {
  const Vertex n = g.num_vertices();
  const Vertex d = aux_dmax;
  const Executor& exec = rounds.exec();
  Arena local_arena;
  Arena& ar = arena != nullptr ? *arena : local_arena;

  // Entry invariant: alive non-happy vertices are colored; A_i uncolored.
  for (Vertex v = 0; v < n; ++v) {
    if (!level.alive[static_cast<std::size_t>(v)]) continue;
    SCOL_DCHECK((colors[static_cast<std::size_t>(v)] != kUncolored) !=
                    static_cast<bool>(level.happy[static_cast<std::size_t>(v)]),
                + "extension entry invariant");
  }

  // --- G_i[R] and the ruling forest with respect to A_i. ---
  std::span<char> rich_alive = ar.alloc<char>(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v)
    rich_alive[static_cast<std::size_t>(v)] =
        level.alive[static_cast<std::size_t>(v)] &&
        level.rich[static_cast<std::size_t>(v)];
  const InducedSubgraph gr = induce(g, rich_alive);
  const Vertex nr = gr.graph.num_vertices();

  std::vector<char> in_u(static_cast<std::size_t>(nr), 0);
  for (Vertex x = 0; x < nr; ++x)
    in_u[static_cast<std::size_t>(x)] =
        level.happy[static_cast<std::size_t>(
            gr.to_original[static_cast<std::size_t>(x)])];

  const Vertex alpha = 2 * rho + 2;
  const RulingForest rf = ruling_forest(gr.graph, in_u, alpha, rounds);

  // --- T: the forest vertices. Uncolor them (T ∩ S was colored). ---
  std::vector<Vertex> t_members;  // gr ids
  for (Vertex x = 0; x < nr; ++x)
    if (rf.in_forest(x)) t_members.push_back(x);
  std::span<char> in_t = ar.alloc_zero<char>(static_cast<std::size_t>(nr));
  for (Vertex x : t_members) in_t[static_cast<std::size_t>(x)] = 1;
  for (Vertex x : t_members)
    colors[static_cast<std::size_t>(
        gr.to_original[static_cast<std::size_t>(x)])] = kUncolored;

  // --- L_H: lists minus colors of colored G_i-neighbors outside T. ---
  // Only a prefix of L_H is written: when the sweep reaches x, its parent
  // is still uncolored, so at most deg_H(x) - 1 <= deg_{G_i[R]}(x) - 1
  // colors are forbidden, and the first deg_{G_i[R]}(x) free colors decide
  // its pick. Flat arena layout: slot x keeps capacity |L(v)| (a shrink
  // never grows a list), so the per-vertex writes are disjoint, the sweep
  // runs under the executor (bit-identical across executors), and the
  // arena footprint does not depend on the prefix rule.
  std::span<std::int64_t> lh_off =
      ar.alloc<std::int64_t>(static_cast<std::size_t>(nr) + 1);
  lh_off[0] = 0;
  {
    std::vector<std::int64_t> cap(static_cast<std::size_t>(nr), 0);
    for (Vertex x : t_members)
      cap[static_cast<std::size_t>(x)] = static_cast<std::int64_t>(
          lists.of(gr.to_original[static_cast<std::size_t>(x)]).size());
    for (Vertex x = 0; x < nr; ++x)
      lh_off[static_cast<std::size_t>(x) + 1] =
          lh_off[static_cast<std::size_t>(x)] + cap[static_cast<std::size_t>(x)];
  }
  std::span<Color> lh_colors = ar.alloc<Color>(
      static_cast<std::size_t>(lh_off[static_cast<std::size_t>(nr)]));
  std::span<std::int32_t> lh_len =
      ar.alloc_zero<std::int32_t>(static_cast<std::size_t>(nr));
  const auto lh = [&](Vertex x) {
    return std::span<const Color>(
        lh_colors.data() + lh_off[static_cast<std::size_t>(x)],
        static_cast<std::size_t>(lh_len[static_cast<std::size_t>(x)]));
  };
  // One forbidden-set per chunk (cleared per vertex) so the hot loop pays
  // no per-vertex heap allocation.
  exec.parallel_ranges(t_members.size(), [&](std::size_t begin,
                                             std::size_t end) {
    SmallColorSet forbidden;
    for (std::size_t ti = begin; ti < end; ++ti) {
      const Vertex x = t_members[ti];
      const Vertex v = gr.to_original[static_cast<std::size_t>(x)];
      const auto lv = lists.of(v);
      forbidden.clear();
      Vertex deg_gi = 0, deg_h = 0, blocked = 0;
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        // The gather chain adj[i] -> colors[adj[i]] misses on big rows;
        // hint the color a few neighbors ahead while this one is scanned.
        if (i + kPrefetchAhead < nb.size())
          SCOL_PREFETCH_RO(
              &colors[static_cast<std::size_t>(nb[i + kPrefetchAhead])]);
        const Vertex w = nb[i];
        if (!level.alive[static_cast<std::size_t>(w)]) continue;
        ++deg_gi;
        const Vertex wx = gr.to_induced[static_cast<std::size_t>(w)];
        if (wx >= 0 && in_t[static_cast<std::size_t>(wx)]) {
          ++deg_h;
          continue;
        }
        const Color cw = colors[static_cast<std::size_t>(w)];
        SCOL_DCHECK(cw != kUncolored,
                    + "outside-T alive neighbors are colored");
        if (forbidden.contains(cw)) continue;
        forbidden.insert(cw);
        if (list_contains(lv, cw)) ++blocked;
      }
      const std::int32_t keep = gr.graph.degree(x);
      Color* out = lh_colors.data() + lh_off[static_cast<std::size_t>(x)];
      std::int32_t len = 0;
      for (std::size_t i = 0; i < lv.size() && len < keep; ++i)
        if (!forbidden.contains(lv[i])) out[len++] = lv[i];
      lh_len[static_cast<std::size_t>(x)] = len;
      // Observation 5.1 on the full |L_H(v)| = |L(v)| minus the distinct
      // blocked colors: |L_H(v)| >= |L(v)| - deg_{G_i}(v) + deg_H(v), and
      // the sweep needs the weaker |L_H(v)| >= deg_H(v).
      const Vertex lh_size = static_cast<Vertex>(lv.size()) - blocked;
      SCOL_CHECK(lh_size >= static_cast<Vertex>(lv.size()) - deg_gi + deg_h,
                 + "Observation 5.1 violated");
      SCOL_CHECK(lh_size >= deg_h, + "sweep capacity |L_H| >= deg_H violated");
    }
  });

  // --- (d+1)-coloring of H = G_i[T]. ---
  const InducedSubgraph h = induce(gr.graph, t_members);
  const DegreeColoringResult aux =
      distributed_degree_coloring(h.graph, d, rounds, "h-coloring");

  // --- Sweep: depth from max down to 1, aux class 0..d. ---
  // Bucket vertices by (depth, class); the LOCAL schedule runs over the a
  // priori bound depth_bound x (d+1) rounds.
  std::vector<std::vector<std::vector<Vertex>>> buckets(
      static_cast<std::size_t>(rf.max_depth) + 1,
      std::vector<std::vector<Vertex>>(static_cast<std::size_t>(d) + 1));
  for (Vertex hx = 0; hx < h.graph.num_vertices(); ++hx) {
    const Vertex x = h.to_original[static_cast<std::size_t>(hx)];  // gr id
    const Vertex dep = rf.depth[static_cast<std::size_t>(x)];
    if (dep >= 1)
      buckets[static_cast<std::size_t>(dep)]
             [static_cast<std::size_t>(aux.coloring[static_cast<std::size_t>(hx)])]
                 .push_back(x);
  }
  SmallColorSet forbidden;
  for (Vertex dep = rf.max_depth; dep >= 1; --dep) {
    for (Color cls = 0; cls <= static_cast<Color>(d); ++cls) {
      for (Vertex x :
           buckets[static_cast<std::size_t>(dep)][static_cast<std::size_t>(cls)]) {
        const Vertex v = gr.to_original[static_cast<std::size_t>(x)];
        forbidden.clear();
        bool parent_uncolored = false;
        const auto nbx = gr.graph.neighbors(x);
        for (std::size_t i = 0; i < nbx.size(); ++i) {
          // Two-level gather (adj -> to_original -> colors): hint the
          // relabeling entry ahead; the color load follows next trip.
          if (i + kPrefetchAhead < nbx.size())
            SCOL_PREFETCH_RO(&gr.to_original[static_cast<std::size_t>(
                nbx[i + kPrefetchAhead])]);
          const Vertex y = nbx[i];
          if (!in_t[static_cast<std::size_t>(y)]) continue;
          const Color cy = colors[static_cast<std::size_t>(
              gr.to_original[static_cast<std::size_t>(y)])];
          if (cy == kUncolored) {
            if (y == rf.parent[static_cast<std::size_t>(x)])
              parent_uncolored = true;
          } else {
            forbidden.insert(cy);
          }
        }
        SCOL_CHECK(parent_uncolored, + "sweep: parent must still be uncolored");
        Color pick = kUncolored;
        for (Color c : lh(x)) {
          if (!forbidden.contains(c)) {
            pick = c;
            break;
          }
        }
        SCOL_CHECK(pick != kUncolored, + "sweep: free list color must exist");
        colors[static_cast<std::size_t>(v)] = pick;
      }
    }
  }
  rounds.charge("sweep", static_cast<std::int64_t>(rf.depth_bound) * (d + 1));

  // --- Root balls: uncolor and finish with constructive Theorem 1.1. ---
  // One pass over G_i[R]. Each ball grows layer by layer with its own id
  // in ball_of as the visited mark, so meeting another ball's id is an
  // overlap. One counting pass then lays the balls out flat, each in
  // ascending gr id (the local id order of the induced ball), and one
  // BallColorer colors them in turn at O(ball) cost each.
  const std::size_t num_balls = rf.roots.size();
  std::vector<Vertex> ball_of(static_cast<std::size_t>(nr), -1);
  std::vector<Vertex> queue;
  for (std::size_t ri = 0; ri < num_balls; ++ri) {
    const Vertex id = static_cast<Vertex>(ri);
    const Vertex root = rf.roots[ri];
    SCOL_CHECK(ball_of[static_cast<std::size_t>(root)] < 0,
               + "root balls must be disjoint");
    ball_of[static_cast<std::size_t>(root)] = id;
    queue.assign(1, root);
    std::size_t head = 0;
    for (Vertex dist = 0; dist < rho && head < queue.size(); ++dist) {
      const std::size_t layer_end = queue.size();
      for (; head < layer_end; ++head) {
        for (Vertex y : gr.graph.neighbors(queue[head])) {
          if (ball_of[static_cast<std::size_t>(y)] == id) continue;
          SCOL_CHECK(ball_of[static_cast<std::size_t>(y)] < 0,
                     + "root balls must be disjoint");
          ball_of[static_cast<std::size_t>(y)] = id;
          queue.push_back(y);
        }
      }
    }
  }
  // Ball b will span [ball_off[b], ball_off[b + 1]) of `members`.
  std::vector<std::size_t> ball_off(num_balls + 2, 0);
  for (Vertex x = 0; x < nr; ++x) {
    const Vertex b = ball_of[static_cast<std::size_t>(x)];
    if (b < 0) continue;
    for (Vertex y : gr.graph.neighbors(x)) {
      SCOL_CHECK(ball_of[static_cast<std::size_t>(y)] < 0 ||
                     ball_of[static_cast<std::size_t>(y)] == b,
                 + "root balls must be pairwise non-adjacent");
    }
    ++ball_off[static_cast<std::size_t>(b) + 2];
    colors[static_cast<std::size_t>(
        gr.to_original[static_cast<std::size_t>(x)])] = kUncolored;
  }
  for (std::size_t b = 2; b < ball_off.size(); ++b)
    ball_off[b] += ball_off[b - 1];
  std::vector<Vertex> members(ball_off.back());
  for (Vertex x = 0; x < nr; ++x) {
    const Vertex b = ball_of[static_cast<std::size_t>(x)];
    if (b >= 0) members[ball_off[static_cast<std::size_t>(b) + 1]++] = x;
  }

  BallColorer balls(gr.graph);
  for (std::size_t bi = 0; bi < num_balls; ++bi) {
    const std::span<const Vertex> b(members.data() + ball_off[bi],
                                    ball_off[bi + 1] - ball_off[bi]);
    balls.begin(b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      const Vertex v = gr.to_original[static_cast<std::size_t>(b[i])];
      forbidden.clear();
      const auto nbv = g.neighbors(v);
      for (std::size_t j = 0; j < nbv.size(); ++j) {
        if (j + kPrefetchAhead < nbv.size())
          SCOL_PREFETCH_RO(
              &colors[static_cast<std::size_t>(nbv[j + kPrefetchAhead])]);
        const Vertex w = nbv[j];
        if (!level.alive[static_cast<std::size_t>(w)]) continue;
        const Color cw = colors[static_cast<std::size_t>(w)];
        if (cw != kUncolored) forbidden.insert(cw);
      }
      // Only the first deg_ball(x) + 1 free colors are kept. A tight list
      // (|avail| == deg) is never cut, a surplus list stays a surplus list,
      // and every greedy pick of Theorem 1.1 sees at most deg_ball(x)
      // colored neighbors, so the coloring is unchanged.
      const auto lv = lists.of(v);
      const Vertex keep = balls.degree(i) + 1;
      Vertex len = 0;
      for (std::size_t j = 0; j < lv.size() && len < keep; ++j) {
        if (forbidden.contains(lv[j])) continue;
        balls.push_color(lv[j]);
        ++len;
      }
      balls.end_list();
      SCOL_CHECK(len >= balls.degree(i),
                 + "ball lists must cover ball degrees (Obs. 5.1)");
    }
    const std::span<const Color> bc = balls.color();
    for (std::size_t i = 0; i < b.size(); ++i)
      colors[static_cast<std::size_t>(
          gr.to_original[static_cast<std::size_t>(b[i])])] = bc[i];
  }
  rounds.charge("ert-balls", 2 * static_cast<std::int64_t>(rho) + 2);

  // Exit invariant: all alive vertices colored.
  for (Vertex v = 0; v < n; ++v) {
    SCOL_CHECK(!level.alive[static_cast<std::size_t>(v)] ||
                   colors[static_cast<std::size_t>(v)] != kUncolored,
               + "extension must color all of G_i");
  }
}

SparseResult list_color_sparse(const Graph& g, Vertex d,
                               const ListAssignment& lists,
                               const SparseOptions& opts) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(d >= 3, + "Theorem 1.3 needs d >= 3");
  SCOL_REQUIRE(lists.size() == n, + "one list per vertex");
  SCOL_REQUIRE(lists.canonical(), + "lists must be sorted unique");
  for (Vertex v = 0; v < n; ++v)
    SCOL_REQUIRE(static_cast<Vertex>(lists.of(v).size()) >= d,
                 + "need a d-list-assignment");

  Arena local_arena;
  Arena& arena = opts.arena != nullptr ? *opts.arena : local_arena;

  SparseResult out;
  if (n == 0) {
    out.coloring = Coloring{};
    return out;
  }
  Rounds rounds(out.ledger, opts.executor);
  out.radius = opts.radius_override > 0 ? opts.radius_override
                                        : paper_ball_radius(n, opts.ball_constant);

  // --- (d+1)-clique detection: 2 rounds (the clique lies in B_1). ---
  rounds.charge("clique-detect", 2);
  if (auto clique = find_clique(g, d + 1)) {
    out.clique = std::move(*clique);
    return out;
  }

  // --- Peel A_1, ..., A_k. ---
  // Level masks are carved from the arena (they must survive until the
  // extension walk below; the arena is monotonic, so earlier levels stay
  // valid as later ones are allocated).
  std::vector<LevelMasks> levels;
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  Vertex alive_count = n;
  const Vertex max_peels =
      opts.max_peels > 0 ? opts.max_peels : 4 * n + 16;
  while (alive_count > 0) {
    SCOL_REQUIRE(static_cast<Vertex>(levels.size()) < max_peels,
                 + "peel cap exceeded");
    const InducedSubgraph gi = induce(g, alive);
    const HappyAnalysis ha =
        compute_happy_set(gi.graph, d, out.radius, opts.executor);
    rounds.charge("peel-balls", out.radius + 2);

    PeelRecord rec;
    rec.graph_size = gi.graph.num_vertices();
    rec.num_rich = ha.num_rich;
    rec.num_poor = ha.num_poor;
    rec.num_happy = ha.num_happy;
    rec.num_sad = ha.num_sad;
    out.peels.push_back(rec);

    if (ha.num_happy == 0) {
      throw PreconditionError(
          "list_color_sparse: peeling stalled (no happy vertices); the "
          "promise d >= max(3, mad(G)) must be violated");
    }

    std::span<char> lvl_alive = arena.alloc<char>(static_cast<std::size_t>(n));
    std::copy(alive.begin(), alive.end(), lvl_alive.begin());
    std::span<char> lvl_rich = arena.alloc_zero<char>(static_cast<std::size_t>(n));
    std::span<char> lvl_happy =
        arena.alloc_zero<char>(static_cast<std::size_t>(n));
    for (Vertex x = 0; x < gi.graph.num_vertices(); ++x) {
      const Vertex v = gi.to_original[static_cast<std::size_t>(x)];
      lvl_rich[static_cast<std::size_t>(v)] =
          ha.rich[static_cast<std::size_t>(x)];
      lvl_happy[static_cast<std::size_t>(v)] =
          ha.happy[static_cast<std::size_t>(x)];
    }
    levels.push_back(LevelMasks{lvl_alive, lvl_rich, lvl_happy});
    for (Vertex v = 0; v < n; ++v) {
      if (lvl_happy[static_cast<std::size_t>(v)]) {
        alive[static_cast<std::size_t>(v)] = 0;
        --alive_count;
      }
    }
  }

  // --- Extend back: i = k..1. ---
  Coloring colors = empty_coloring(n);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it)
    extend_level_lemma32(g, *it, lists, d, out.radius, colors, rounds,
                         &arena);

  out.coloring = std::move(colors);
  return out;
}

}  // namespace scol
