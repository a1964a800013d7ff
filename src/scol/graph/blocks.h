// Biconnected components (blocks) and cut vertices, via iterative
// Hopcroft–Tarjan DFS.
//
// A block of G is a maximal 2-connected subgraph; bridges yield blocks that
// are single edges, and an isolated vertex belongs to no block. Blocks are
// the backbone of the paper's Gallai-tree machinery (§1.4): a Gallai tree is
// a connected graph whose every block is a clique or an odd cycle.
#pragma once

#include <vector>

#include "scol/graph/graph.h"

namespace scol {

struct Block {
  std::vector<Vertex> vertices;  // sorted
  std::int64_t num_edges = 0;    // edges of G inside the block
};

struct BlockDecomposition {
  std::vector<Block> blocks;
  std::vector<char> is_cut_vertex;  // size n
  /// block ids containing each vertex (a cut vertex lies in >= 2 blocks).
  std::vector<std::vector<Vertex>> blocks_of_vertex;
};

BlockDecomposition block_decomposition(const Graph& g);

/// True iff the block is a clique (includes single edges, K_2).
bool block_is_clique(const Block& b);

/// True iff the block is an odd cycle of length >= 3 (K_3 counts as both a
/// clique and an odd cycle).
bool block_is_odd_cycle(const Block& b);

/// The same two tests on a block's vertex and edge counts alone, for
/// callers that count blocks without listing them.
bool block_is_clique(std::int64_t vertices, std::int64_t edges);
bool block_is_odd_cycle(std::int64_t vertices, std::int64_t edges);

}  // namespace scol
