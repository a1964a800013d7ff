// Exact solvers (small graphs): k-colorability, chromatic number, and exact
// list-colorability. These certify the lower-bound gadgets (chi of Klein
// grids = 4, chi of C_n(1,2,3) = 5) and cross-check the constructive
// Theorem 1.1 on random instances.
//
// One search serves all three: explicit-stack backtracking, so its depth
// costs heap, not call stack. It branches on the uncoloured vertex with the
// fewest free list colours, then the highest degree, then the lowest id,
// and tries free colours in list order. When every list is identical (as
// find_k_coloring's {0..k-1}), it tries at most one colour no placed vertex
// uses, since such colours are interchangeable; so find_list_coloring on
// uniform_lists(n, k) returns exactly find_k_coloring(g, k). `node_budget`
// counts search-tree nodes, the root included; exceeding it throws
// InternalError("<function>: budget exceeded").
#pragma once

#include <cstdint>
#include <optional>

#include "scol/coloring/types.h"
#include "scol/graph/graph.h"

namespace scol {

/// A k-coloring of g if one exists: the search over uniform_lists(n, k).
std::optional<Coloring> find_k_coloring(const Graph& g, Vertex k,
                                        std::int64_t node_budget = 50'000'000);

/// Exact chromatic number (tries k ascending from the clique bound).
Vertex chromatic_number(const Graph& g,
                        std::int64_t node_budget = 50'000'000);

/// An L-list-coloring if one exists; `lists` must be canonical.
std::optional<Coloring> find_list_coloring(
    const Graph& g, const ListAssignment& lists,
    std::int64_t node_budget = 50'000'000);

}  // namespace scol
