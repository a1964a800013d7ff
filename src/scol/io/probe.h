// Structure probe: the cheap structural facts that decide which
// registered algorithms can run on an arbitrary (file-backed) graph.
//
// The paper's guarantees are stated for graph *classes* — planar,
// bounded genus, bounded maximum average degree — but a file gives a
// single instance with no class promise attached. probe_graph() measures
// what can be certified cheaply: degeneracy (and the mad upper bound it
// implies) and connectivity in O(n + m); a girth scan that visits only a
// radius-ceil(girth_limit/2) ball per root and stops at the first
// triangle; exact planarity and mad only on small graphs.
// AlgorithmInfo::precondition (api/registry.h) consumes the result:
// campaign grids over files skip algorithm/instance cells whose
// structural preconditions fail instead of producing a wall of kFailed
// reports.
//
// Everything here is deterministic — probes feed the campaign's
// bit-identical JSONL contract.
#pragma once

#include <string>

#include "scol/graph/graph.h"

namespace scol {

/// Three-valued answer for properties the probe may decline to compute
/// (exact planarity is O(n·m²) worst case and is skipped above
/// ProbeOptions::planarity_limit).
enum class ProbeVerdict { kNo = 0, kYes = 1, kUnknown = 2 };

const char* to_string(ProbeVerdict verdict);

/// Cost knobs for the two non-linear probe components.
struct ProbeOptions {
  /// Run the exact planarity test only when n <= this (kUnknown above).
  Vertex planarity_limit = 1024;
  /// Certify girth up to this length via truncated BFS: each root visits
  /// its radius-ceil(limit/2) ball and pays only for what it visits, and
  /// the scan ends at the first triangle (graph/girth.h). 8 covers every
  /// registered girth precondition. Clamped to >= 3 so the triangle-free
  /// verdict is always certified.
  Vertex girth_limit = 8;
  /// Compute the exact mad and arboricity (flow-based, flow/density.h)
  /// when n <= this; above it, fall back to the peeling bounds
  /// mad <= 2 * degeneracy and arboricity <= degeneracy.
  Vertex exact_mad_limit = 1024;
  /// Sampled-probe budget: 0 (default) always probes exactly. When
  /// positive and n + m exceeds it, probe_graph switches to the SAMPLED
  /// mode, which never walks the full edge set: degeneracy falls back to
  /// the certified max_degree upper bound (degeneracy_exact = false)
  /// while a deterministic sampled peel reports degeneracy_lower, the
  /// girth scan and connectivity are skipped (girth_floor drops to the
  /// trivially certified 3; components/connected/forest report the
  /// conservative unknowns below), and planarity is kUnknown. Every
  /// reported field is still a certified fact — just a weaker one — so
  /// campaign eligibility stays sound: sampling can only skip more
  /// cells, never run an ineligible one.
  std::int64_t budget = 0;
};

/// What probe_graph() certified about one graph. Every field is a fact,
/// not a promise: `degeneracy <= d` certifies `arboricity <= d` and
/// `mad <= 2d`; `girth_floor` is a proven lower bound, never a guess.
struct GraphProbe {
  Vertex n = 0;
  std::int64_t m = 0;
  Vertex max_degree = 0;
  /// Exact degeneracy (bucket-queue peel, O(n + m)) when
  /// degeneracy_exact; in sampled mode the certified fallback upper
  /// bound max_degree.
  Vertex degeneracy = 0;
  bool degeneracy_exact = true;  ///< degeneracy is the exact value
  /// Certified LOWER bound on the degeneracy: equal to `degeneracy` in
  /// exact mode; in sampled mode the exact degeneracy of a
  /// deterministically sampled induced subgraph (an induced subgraph
  /// never has higher degeneracy than its host).
  Vertex degeneracy_lower = 0;
  /// True when ProbeOptions::budget forced the sampled mode: the fields
  /// below hold certified-but-weaker facts as documented per field, and
  /// components / connected / forest / girth are reported at their
  /// conservative unknowns (0 / false / false / -1 meaning "not
  /// scanned", with girth_floor = 3 the only certified girth fact).
  bool sampled = false;
  /// Certified upper bound on the maximum average degree: exact (flow)
  /// up to ProbeOptions::exact_mad_limit, else 2 * degeneracy.
  double mad_upper = 0.0;
  bool mad_exact = false;  ///< mad_upper is the exact mad
  /// Certified upper bound on the Nash–Williams arboricity: exact
  /// (flow) up to ProbeOptions::exact_mad_limit, else the degeneracy
  /// (every d-degenerate graph has arboricity <= d).
  Vertex arboricity_upper = 0;
  bool arboricity_exact = false;  ///< arboricity_upper is exact
  Vertex components = 0;
  bool connected = false;  ///< components <= 1 (empty graph counts)
  bool forest = false;     ///< acyclic (m == n - components)
  bool complete = false;   ///< m == n*(n-1)/2
  /// Exact girth when it is <= ProbeOptions::girth_limit; -1 when no
  /// cycle that short exists (including forests).
  Vertex girth = -1;
  /// Certified lower bound: girth >= girth_floor (girth_limit + 1 when
  /// the scan found no cycle). Forests certify the same bound.
  Vertex girth_floor = 1;
  bool triangle_free = false;  ///< girth_floor >= 4 or no cycle found
  /// Exact planarity verdict up to ProbeOptions::planarity_limit
  /// vertices, kUnknown above it.
  ProbeVerdict planar = ProbeVerdict::kUnknown;
};

/// Probes `g`. Deterministic; O(n + m) plus the girth scan (bounded
/// balls per root, see ProbeOptions::girth_limit) and the size-gated
/// planarity / exact-mad components.
GraphProbe probe_graph(const Graph& g, const ProbeOptions& options = {});

/// One-line human-readable summary ("n=.. m=.. degeneracy=.. ...").
std::string describe(const GraphProbe& probe);

}  // namespace scol
