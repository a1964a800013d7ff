#include "scol/coloring/ert.h"

#include <algorithm>
#include <numeric>

#include "scol/graph/bfs.h"
#include "scol/graph/blocks.h"
#include "scol/graph/components.h"
#include "scol/util/prefetch.h"

namespace scol {
namespace {

bool has_color(const std::vector<Color>& list, Color c) {
  return std::binary_search(list.begin(), list.end(), c);
}

// Colors `targets` (must be currently uncolored) sequentially in decreasing
// `dist` order, ties by ascending id; each picks the first avail color
// unused by colored g-neighbors. Throws InternalError if some vertex has no
// free color — the callers' orderings guarantee one.
void greedy_by_decreasing_key(const Graph& g, const std::vector<Vertex>& dist,
                              const std::vector<Vertex>& targets,
                              const AvailableLists& avail, Coloring& colors) {
  // Every caller passes targets in ascending id, each reachable (dist >=
  // 0), so one stable counting pass over distance yields the (distance
  // desc, id asc) order.
  Vertex max_dist = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Vertex v = targets[i];
    SCOL_DCHECK(i == 0 || targets[i - 1] < v, + "targets must ascend");
    SCOL_DCHECK(dist[static_cast<std::size_t>(v)] >= 0,
                + "targets must be reachable");
    max_dist = std::max(max_dist, dist[static_cast<std::size_t>(v)]);
  }
  // Bucket max_dist - dist[v] holds v; start[k] is bucket k's first slot.
  const auto bucket = [&](Vertex v) {
    return static_cast<std::size_t>(max_dist - dist[static_cast<std::size_t>(v)]);
  };
  std::vector<std::size_t> start(static_cast<std::size_t>(max_dist) + 2, 0);
  for (Vertex v : targets) ++start[bucket(v) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  std::vector<Vertex> order(targets.size());
  for (Vertex v : targets) order[start[bucket(v)]++] = v;
  SmallColorSet forbidden;
  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    const Vertex v = order[oi];
    // Pull the next target's adjacency row in while this one colors.
    if (oi + 1 < order.size())
      SCOL_PREFETCH_RO(g.neighbors(order[oi + 1]).data());
    SCOL_DCHECK(colors[static_cast<std::size_t>(v)] == kUncolored);
    forbidden.clear();
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (i + kPrefetchAhead < nb.size())
        SCOL_PREFETCH_RO(
            &colors[static_cast<std::size_t>(nb[i + kPrefetchAhead])]);
      const Color cw = colors[static_cast<std::size_t>(nb[i])];
      if (cw != kUncolored) forbidden.insert(cw);
    }
    Color pick = kUncolored;
    for (Color c : avail[static_cast<std::size_t>(v)]) {
      if (!forbidden.contains(c)) {
        pick = c;
        break;
      }
    }
    SCOL_CHECK(pick != kUncolored, + "greedy order must leave a free color");
    colors[static_cast<std::size_t>(v)] = pick;
  }
}

// Shrinks avail[x] by the colors of x's colored neighbors (call after
// coloring a region adjacent to x).
void shrink_avail(const Graph& g, Vertex x, AvailableLists& avail,
                  const Coloring& colors) {
  auto& list = avail[static_cast<std::size_t>(x)];
  std::vector<Color> keep;
  SmallColorSet used;
  for (Vertex w : g.neighbors(x)) {
    const Color cw = colors[static_cast<std::size_t>(w)];
    if (cw != kUncolored) used.insert(cw);
  }
  for (Color c : list)
    if (!used.contains(c)) keep.push_back(c);
  list = std::move(keep);
}

// 2-connected case on the induced block graph `b` (ids local to b) with
// avail lists `av` (sizes >= degrees). Preconditions: b is 2-connected,
// not a clique, not an odd cycle, OR some vertex has surplus.
void color_two_connected(const Graph& b, AvailableLists av, Coloring& out) {
  const Vertex n = b.num_vertices();
  SCOL_CHECK(n >= 3, + "2-connected block should have >= 3 vertices");
  Coloring colors = empty_coloring(n);

  // (a) surplus vertex: Case 1 on b.
  for (Vertex v = 0; v < n; ++v) {
    if (static_cast<Vertex>(av[static_cast<std::size_t>(v)].size()) > b.degree(v)) {
      out = degree_choosable_coloring(b, av);
      return;
    }
  }

  // (b) adjacent vertices with different lists.
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v : b.neighbors(u)) {
      if (av[static_cast<std::size_t>(u)] == av[static_cast<std::size_t>(v)]) continue;
      // Some color on one side only; orient so u holds it.
      Vertex uu = u, vv = v;
      Color c = kUncolored;
      for (Color x : av[static_cast<std::size_t>(uu)]) {
        if (!has_color(av[static_cast<std::size_t>(vv)], x)) {
          c = x;
          break;
        }
      }
      if (c == kUncolored) {
        std::swap(uu, vv);
        for (Color x : av[static_cast<std::size_t>(uu)]) {
          if (!has_color(av[static_cast<std::size_t>(vv)], x)) {
            c = x;
            break;
          }
        }
      }
      SCOL_CHECK(c != kUncolored, + "unequal same-size lists differ somewhere");
      colors[static_cast<std::size_t>(uu)] = c;
      // Greedy toward vv through b - uu (connected: b is 2-connected).
      std::vector<char> removed(static_cast<std::size_t>(n), 0);
      removed[static_cast<std::size_t>(uu)] = 1;
      const InducedSubgraph rest = induce(
          b, [&] {
            std::vector<char> keep(static_cast<std::size_t>(n), 1);
            keep[static_cast<std::size_t>(uu)] = 0;
            return keep;
          }());
      const auto dist_rest =
          bfs_distances(rest.graph, rest.to_induced[static_cast<std::size_t>(vv)]);
      std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
      for (Vertex r = 0; r < rest.graph.num_vertices(); ++r)
        dist[static_cast<std::size_t>(rest.to_original[static_cast<std::size_t>(r)])] =
            dist_rest[static_cast<std::size_t>(r)];
      std::vector<Vertex> targets;
      for (Vertex x = 0; x < n; ++x)
        if (x != uu) targets.push_back(x);
      // vv (distance 0) goes last. Every other vertex has its BFS-parent
      // (closer to vv, colored later) uncolored at its turn; vv itself sees
      // uu's color c, which is outside av[vv], so at most deg-1 of its
      // colors are blocked.
      greedy_by_decreasing_key(b, dist, targets, av, colors);
      out = std::move(colors);
      return;
    }
  }

  // (c) all lists equal => b is r-regular with r = |list|.
  const Vertex r = static_cast<Vertex>(av[0].size());
  for (Vertex v = 0; v < n; ++v)
    SCOL_CHECK(b.degree(v) == r, + "tight equal lists force regularity");
  if (r == 2) {
    // b is a cycle; an odd cycle is excluded by the precondition, so 2-color
    // it alternately.
    SCOL_CHECK(n % 2 == 0, + "odd cycle is not degree-choosable");
    std::vector<Vertex> cyc{0};
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    seen[0] = 1;
    while (static_cast<Vertex>(cyc.size()) < n) {
      bool advanced = false;
      for (Vertex w : b.neighbors(cyc.back())) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          cyc.push_back(w);
          advanced = true;
          break;
        }
      }
      SCOL_CHECK(advanced, + "cycle traversal stuck");
    }
    const Color c0 = av[0][0], c1 = av[0][1];
    for (std::size_t i = 0; i < cyc.size(); ++i)
      colors[static_cast<std::size_t>(cyc[i])] = (i % 2 == 0) ? c0 : c1;
    out = std::move(colors);
    return;
  }

  // Lovász split: u with non-adjacent neighbors a, b2 such that
  // b - {a, b2} is connected. Exists for 2-connected, regular (r >= 3),
  // non-complete graphs.
  for (Vertex u = 0; u < n; ++u) {
    const auto nb = b.neighbors(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const Vertex a = nb[i], b2 = nb[j];
        if (b.has_edge(a, b2)) continue;
        std::vector<char> removed(static_cast<std::size_t>(n), 0);
        removed[static_cast<std::size_t>(a)] = 1;
        removed[static_cast<std::size_t>(b2)] = 1;
        if (!is_connected_without(b, removed)) continue;
        // Color a and b2 with the same color (lists are all equal).
        const Color c = av[0][0];
        colors[static_cast<std::size_t>(a)] = c;
        colors[static_cast<std::size_t>(b2)] = c;
        // Greedy toward u in b - {a, b2}; u last sees at most r-1 distinct
        // neighbor colors (a and b2 coincide).
        std::vector<char> keep(static_cast<std::size_t>(n), 1);
        keep[static_cast<std::size_t>(a)] = 0;
        keep[static_cast<std::size_t>(b2)] = 0;
        const InducedSubgraph rest = induce(b, keep);
        const auto dist_rest =
            bfs_distances(rest.graph, rest.to_induced[static_cast<std::size_t>(u)]);
        std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
        for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
          dist[static_cast<std::size_t>(rest.to_original[static_cast<std::size_t>(x)])] =
              dist_rest[static_cast<std::size_t>(x)];
        std::vector<Vertex> targets;
        for (Vertex x = 0; x < n; ++x)
          if (x != a && x != b2) targets.push_back(x);
        greedy_by_decreasing_key(b, dist, targets, av, colors);
        out = std::move(colors);
        return;
      }
    }
  }
  throw PreconditionError(
      "degree_choosable_coloring: block is a clique or odd cycle "
      "(graph is a Gallai tree with tight lists)");
}

// Case 2 on connected g with n >= 2, every list tight: peel the block tree
// toward a non-Gallai block B*, then color B* as a 2-connected graph.
Coloring tight_coloring(const Graph& g, AvailableLists av) {
  const Vertex n = g.num_vertices();
  Coloring colors = empty_coloring(n);
  const BlockDecomposition dec = block_decomposition(g);
  Vertex target_block = -1;
  for (std::size_t i = 0; i < dec.blocks.size(); ++i) {
    if (!block_is_clique(dec.blocks[i]) && !block_is_odd_cycle(dec.blocks[i])) {
      target_block = static_cast<Vertex>(i);
      break;
    }
  }
  if (target_block < 0)
    throw PreconditionError(
        "degree_choosable_coloring: Gallai tree with tight lists is not "
        "degree-choosable");

  // Order blocks by decreasing distance from B* in the block tree. Build
  // the block tree over (block, cut-vertex) incidences.
  const Vertex nb = static_cast<Vertex>(dec.blocks.size());
  std::vector<std::vector<Vertex>> block_adj(static_cast<std::size_t>(nb));
  for (Vertex v = 0; v < n; ++v) {
    const auto& in_blocks = dec.blocks_of_vertex[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i + 1 < in_blocks.size(); ++i)
      for (std::size_t j = i + 1; j < in_blocks.size(); ++j) {
        block_adj[static_cast<std::size_t>(in_blocks[i])].push_back(in_blocks[j]);
        block_adj[static_cast<std::size_t>(in_blocks[j])].push_back(in_blocks[i]);
      }
  }
  std::vector<Vertex> bdist(static_cast<std::size_t>(nb), -1);
  std::vector<Vertex> bqueue{target_block};
  bdist[static_cast<std::size_t>(target_block)] = 0;
  for (std::size_t head = 0; head < bqueue.size(); ++head) {
    const Vertex bb = bqueue[head];
    for (Vertex cc : block_adj[static_cast<std::size_t>(bb)]) {
      if (bdist[static_cast<std::size_t>(cc)] < 0) {
        bdist[static_cast<std::size_t>(cc)] = bdist[static_cast<std::size_t>(bb)] + 1;
        bqueue.push_back(cc);
      }
    }
  }
  std::vector<Vertex> block_order(static_cast<std::size_t>(nb));
  std::iota(block_order.begin(), block_order.end(), 0);
  std::sort(block_order.begin(), block_order.end(), [&](Vertex x, Vertex y) {
    return bdist[static_cast<std::size_t>(x)] > bdist[static_cast<std::size_t>(y)];
  });

  for (Vertex bi : block_order) {
    if (bi == target_block) continue;
    const Block& blk = dec.blocks[static_cast<std::size_t>(bi)];
    // Anchor: the unique cut vertex of blk on the path toward B*; it is the
    // vertex of blk whose (block-tree) distance is realized through a block
    // closer to B*. Equivalently: the cut vertex of blk contained in a
    // block with strictly smaller bdist.
    Vertex anchor = -1;
    for (Vertex v : blk.vertices) {
      for (Vertex ob : dec.blocks_of_vertex[static_cast<std::size_t>(v)]) {
        if (ob != bi && bdist[static_cast<std::size_t>(ob)] <
                            bdist[static_cast<std::size_t>(bi)]) {
          anchor = v;
          break;
        }
      }
      if (anchor >= 0) break;
    }
    SCOL_CHECK(anchor >= 0, + "non-target block must have an anchor");

    // Color blk - anchor greedily toward the anchor, within the block.
    const InducedSubgraph sub = induce(g, blk.vertices);
    const auto dist_sub =
        bfs_distances(sub.graph, sub.to_induced[static_cast<std::size_t>(anchor)]);
    std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
    for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
      dist[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])] =
          dist_sub[static_cast<std::size_t>(x)];
    std::vector<Vertex> targets;
    for (Vertex v : blk.vertices)
      if (v != anchor) targets.push_back(v);
    greedy_by_decreasing_key(g, dist, targets, av, colors);
    shrink_avail(g, anchor, av, colors);
  }

  // Finally color B* as a 2-connected graph with the shrunken lists.
  const Block& bstar = dec.blocks[static_cast<std::size_t>(target_block)];
  const InducedSubgraph sub = induce(g, bstar.vertices);
  AvailableLists sub_av(static_cast<std::size_t>(sub.graph.num_vertices()));
  for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
    sub_av[static_cast<std::size_t>(x)] =
        av[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])];
  Coloring sub_colors;
  color_two_connected(sub.graph, std::move(sub_av), sub_colors);
  for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
    colors[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])] =
        sub_colors[static_cast<std::size_t>(x)];

  return colors;
}

}  // namespace

BallColorer::BallColorer(const Graph& host)
    : host_(host), local_(static_cast<std::size_t>(host.num_vertices()), -1) {}

void BallColorer::begin(std::span<const Vertex> members) {
  for (std::size_t i = 0; i < members.size(); ++i)
    SCOL_REQUIRE(host_.valid(members[i]) &&
                     (i == 0 || members[i - 1] < members[i]),
                 + "piece members must be strictly ascending host ids");
  for (Vertex x : members_) local_[static_cast<std::size_t>(x)] = -1;
  members_.assign(members.begin(), members.end());
  for (std::size_t i = 0; i < members_.size(); ++i)
    local_[static_cast<std::size_t>(members_[i])] = static_cast<Vertex>(i);
  degree_.assign(members_.size(), 0);
  for (std::size_t i = 0; i < members_.size(); ++i)
    for (Vertex y : host_.neighbors(members_[i]))
      if (local_[static_cast<std::size_t>(y)] >= 0) ++degree_[i];
  list_off_.assign(1, 0);
  list_colors_.clear();
}

void BallColorer::end_list() {
  SCOL_REQUIRE(list_off_.size() <= members_.size(), + "one list per member");
  SCOL_REQUIRE(std::is_sorted(list_colors_.begin() +
                                  static_cast<std::ptrdiff_t>(list_off_.back()),
                              list_colors_.end()),
               + "avail lists must be sorted");
  list_off_.push_back(list_colors_.size());
}

std::span<const Color> BallColorer::list(std::size_t i) const {
  return {list_colors_.data() + list_off_[i], list_off_[i + 1] - list_off_[i]};
}

// BFS over the piece from local id `root`: dist_ and queue_ (BFS order).
void BallColorer::bfs_from(Vertex root) {
  dist_.assign(members_.size(), -1);
  queue_.assign(1, root);
  dist_[static_cast<std::size_t>(root)] = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Vertex x = queue_[head];
    for (Vertex y : host_.neighbors(members_[static_cast<std::size_t>(x)])) {
      const Vertex ly = local_[static_cast<std::size_t>(y)];
      if (ly >= 0 && dist_[static_cast<std::size_t>(ly)] < 0) {
        dist_[static_cast<std::size_t>(ly)] =
            dist_[static_cast<std::size_t>(x)] + 1;
        queue_.push_back(ly);
      }
    }
  }
  SCOL_REQUIRE(queue_.size() == members_.size(), + "input must be connected");
}

// Case 1: colors the piece greedily by (distance from surplus vertex w
// desc, local id asc). Every vertex but w still has its uncolored BFS
// parent at its turn, and w has spare capacity, so each finds a free color.
void BallColorer::color_from_surplus(Vertex w) {
  bfs_from(w);
  const std::size_t k = members_.size();
  const Vertex max_dist = dist_[static_cast<std::size_t>(queue_.back())];
  // Bucket max_dist - dist[x] holds x; filling buckets in ascending x
  // turns queue_ into the greedy order.
  const auto bucket = [&](std::size_t x) {
    return static_cast<std::size_t>(max_dist - dist_[x]);
  };
  bucket_start_.assign(static_cast<std::size_t>(max_dist) + 2, 0);
  for (std::size_t x = 0; x < k; ++x) ++bucket_start_[bucket(x) + 1];
  for (std::size_t b = 1; b < bucket_start_.size(); ++b)
    bucket_start_[b] += bucket_start_[b - 1];
  for (std::size_t x = 0; x < k; ++x)
    queue_[bucket_start_[bucket(x)]++] = static_cast<Vertex>(x);
  for (Vertex x : queue_) {
    forbidden_.clear();
    for (Vertex y : host_.neighbors(members_[static_cast<std::size_t>(x)])) {
      const Vertex ly = local_[static_cast<std::size_t>(y)];
      if (ly >= 0 && colors_[static_cast<std::size_t>(ly)] != kUncolored)
        forbidden_.insert(colors_[static_cast<std::size_t>(ly)]);
    }
    Color pick = kUncolored;
    for (Color c : list(static_cast<std::size_t>(x))) {
      if (!forbidden_.contains(c)) {
        pick = c;
        break;
      }
    }
    SCOL_CHECK(pick != kUncolored, + "greedy order must leave a free color");
    colors_[static_cast<std::size_t>(x)] = pick;
  }
}

// Case 2: the only path that builds a graph for the piece (none when the
// piece is the whole host).
void BallColorer::color_tight() {
  const std::size_t k = members_.size();
  AvailableLists avail(k);
  for (std::size_t i = 0; i < k; ++i)
    avail[i].assign(list(i).begin(), list(i).end());
  const Coloring c =
      k == static_cast<std::size_t>(host_.num_vertices())
          ? tight_coloring(host_, std::move(avail))
          : tight_coloring(induce(host_, members_).graph, std::move(avail));
  std::copy(c.begin(), c.end(), colors_.begin());
}

std::span<const Color> BallColorer::color() {
  const std::size_t k = members_.size();
  SCOL_REQUIRE(list_off_.size() == k + 1, + "one list per member");
  std::size_t surplus = k;  // the SMALLEST surplus vertex
  for (std::size_t i = 0; i < k; ++i) {
    const auto size = static_cast<Vertex>(list_off_[i + 1] - list_off_[i]);
    SCOL_REQUIRE(size >= degree_[i], + "need |avail(v)| >= deg(v)");
    if (surplus == k && size > degree_[i]) surplus = i;
  }
  colors_.assign(k, kUncolored);
  if (k == 1) {
    SCOL_REQUIRE(!list(0).empty(), + "need at least one color");
    colors_[0] = list(0)[0];
  } else if (surplus < k) {
    color_from_surplus(static_cast<Vertex>(surplus));
  } else if (k > 1) {  // all tight
    bfs_from(0);  // block decomposition needs a connected piece
    color_tight();
  }
  return colors_;
}

Coloring degree_choosable_coloring(const Graph& g, const AvailableLists& avail,
                                   const Executor* /*executor*/) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(static_cast<Vertex>(avail.size()) == n);
  SCOL_REQUIRE(n >= 1);
  std::vector<Vertex> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  BallColorer kernel(g);
  kernel.begin(all);
  for (const auto& list : avail) {
    for (Color c : list) kernel.push_color(c);
    kernel.end_list();
  }
  const std::span<const Color> c = kernel.color();
  return Coloring(c.begin(), c.end());
}

}  // namespace scol
