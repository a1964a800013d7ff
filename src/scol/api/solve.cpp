#include "scol/api/solve.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "scol/coloring/barenboim_elkin.h"
#include "scol/coloring/derived.h"
#include "scol/coloring/ert.h"
#include "scol/coloring/exact.h"
#include "scol/coloring/gps.h"
#include "scol/coloring/greedy.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/nice.h"
#include "scol/coloring/randomized.h"
#include "scol/coloring/sdr.h"
#include "scol/coloring/sparse.h"
#include "scol/coloring/sparsify.h"
#include "scol/graph/cliques.h"

namespace scol {
namespace {

// --- Shared request decoding helpers. ---

SparseOptions sparse_options(const ColoringRequest& req, RunContext& ctx) {
  SparseOptions opts;
  opts.ball_constant = req.params.get_real("ball_constant", opts.ball_constant);
  opts.radius_override =
      static_cast<Vertex>(req.params.get_int("radius", opts.radius_override));
  opts.max_peels =
      static_cast<Vertex>(req.params.get_int("max_peels", opts.max_peels));
  opts.executor = ctx.executor;
  opts.arena = &ctx.arena_ref();
  return opts;
}

// d for the Theorem 1.3 family: explicit param, then request.k, then the
// min list size.
Vertex sparse_d(const ColoringRequest& req) {
  const std::int64_t from_param = req.params.get_int("d", -1);
  if (from_param > 0) return static_cast<Vertex>(from_param);
  if (req.k > 0) return req.k;
  return static_cast<Vertex>(req.lists->min_list_size());
}

std::vector<Vertex> identity_order(Vertex n) {
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  return order;
}

ColoringReport from_optional(std::optional<Coloring> c, const char* stuck) {
  if (c.has_value()) return ColoringReport::colored(std::move(*c));
  return ColoringReport::failed(stuck);
}

ColoringReport from_exact(std::optional<Coloring> c) {
  if (c.has_value()) return ColoringReport::colored(std::move(*c));
  // Exhaustive search: nullopt is a proof of infeasibility.
  ColoringReport out;
  out.status = SolveStatus::kInfeasible;
  return out;
}

Vertex required_int(const ColoringRequest& req, const char* key) {
  const std::int64_t v = req.params.get_int(key, -1);
  SCOL_REQUIRE(v > 0, + (std::string("algorithm '") + req.algorithm +
                         "' needs param '" + key + "'"));
  return static_cast<Vertex>(v);
}

AlgorithmCaps caps(bool needs_lists, bool uses_k, bool randomized,
                   bool distributed,
                   std::vector<std::string> certificate_kinds = {}) {
  AlgorithmCaps c;
  c.needs_lists = needs_lists;
  c.uses_k = uses_k;
  c.randomized = randomized;
  c.distributed = distributed;
  c.proves_infeasibility = !certificate_kinds.empty();
  c.certificate_kinds = std::move(certificate_kinds);
  return c;
}

// Exhaustive search proves infeasibility without a witness object.
AlgorithmCaps exact_caps(bool needs_lists, bool uses_k) {
  AlgorithmCaps c = caps(needs_lists, uses_k, false, false);
  c.proves_infeasibility = true;
  return c;
}

// --- Guarantee bounds for palette/degree algorithms (list algorithms get
// the distinct-list-colors default from AlgorithmRegistry::add). ---

std::int64_t max_degree_plus_one(const ColoringRequest& req) {
  return req.graph == nullptr ? -1 : req.graph->max_degree() + 1;
}

// --- Structural preconditions (AlgorithmInfo::precondition). ---
//
// Each returns "" when the probed graph (plus the effective k and the
// job's params) satisfies the algorithm's documented requirements, else
// the reason it cannot run. These are what lets a campaign over an
// arbitrary file auto-select eligible algorithms; solve() itself never
// consults them, so explicit runs still fail loudly.

std::string why_not_planar(const GraphProbe& probe) {
  switch (probe.planar) {
    case ProbeVerdict::kYes: return "";
    case ProbeVerdict::kNo: return "not planar";
    case ProbeVerdict::kUnknown:
      return "planarity unknown (n exceeds the probe's planarity limit)";
  }
  return "";
}

std::string why_not_k(const EligibilityQuery& q, Vertex needed,
                      const char* what) {
  if (q.k >= needed) return "";
  return std::string("needs ") + what + " >= " + std::to_string(needed) +
         ", got " + std::to_string(q.k);
}

// Degeneracy <= d certifies that peeling at threshold d cannot stall
// (and that arboricity <= d, mad <= 2d).
std::string why_not_degenerate(const GraphProbe& probe, Vertex d,
                               const char* what) {
  if (probe.degeneracy <= d) return "";
  return std::string("degeneracy ") + std::to_string(probe.degeneracy) +
         " > " + what + " " + std::to_string(d);
}

// --- Palette sparsification wrappers (coloring/sparsify.h). ---
//
// Each `*-sparsified` algorithm retries its base solver on a few
// independently sampled c·log n sub-palettes and falls back to the full
// lists when every attempt fails, so the wrapper keeps the base solver's
// guarantee while usually touching a fraction of the palette. All
// sampling and solving randomness derives from one value of the
// context's seed through per-(vertex, attempt) / per-(vertex, round)
// streams — reports are bit-identical across executors.

struct SparsifySetup {
  double c = 4.0;             // param sparsify_c
  std::int64_t attempts = 3;  // param sparsify_attempts
  Vertex target = 0;          // sparsify_target(n, c)
  std::uint64_t root = 0;     // all sparsify randomness derives from this
};

SparsifySetup sparsify_setup(const ColoringRequest& req, RunContext& ctx) {
  SparsifySetup s;
  s.c = req.params.get_real("sparsify_c", s.c);
  s.attempts = std::max<std::int64_t>(
      1, req.params.get_int("sparsify_attempts", s.attempts));
  s.target = sparsify_target(req.graph->num_vertices(), s.c);
  Rng rng = ctx.make_rng();
  s.root = rng.next();
  return s;
}

// The shared retry loop: run `attempt` on up to `attempts` sampled
// sub-assignments, else `fallback` on the full lists. The metrics bag
// records the attempt count, whether the fallback ran, and the sampled
// vs full flat palette sizes (all scheduling-independent). Attempts charge
// a private ledger whose total follows the fallback's phases as
// "sparsified-attempts", so rounds == ledger.total() survives the wrapping.
ColoringReport run_sparsified(
    const ColoringRequest& req, RunContext& ctx,
    const std::function<std::optional<Coloring>(
        const ListAssignment& sampled, std::uint64_t attempt_seed,
        Rounds& rounds)>& attempt,
    const std::function<ColoringReport()>& fallback) {
  const SparsifySetup s = sparsify_setup(req, ctx);
  RoundLedger attempt_ledger;
  Rounds attempt_rounds(attempt_ledger, ctx.executor);
  std::int64_t attempts_run = 0;
  std::size_t sampled_colors = 0;
  std::optional<Coloring> found;
  for (std::int64_t a = 0; a < s.attempts && !found.has_value(); ++a) {
    const ListAssignment sampled = sparsify_palette(
        *req.lists, s.target, s.root, static_cast<std::uint64_t>(a));
    sampled_colors = sampled.flat().size();
    // Decorrelated from the sampling streams (different base seed).
    const std::uint64_t attempt_seed =
        Rng::stream(~s.root, static_cast<std::uint64_t>(a)).next();
    found = attempt(sampled, attempt_seed, attempt_rounds);
    ++attempts_run;
  }
  ColoringReport out;
  const bool fell_back = !found.has_value();
  if (found.has_value()) {
    out = ColoringReport::colored(std::move(*found));
  } else {
    out = fallback();
  }
  if (attempt_ledger.total() > 0)
    out.ledger.charge("sparsified-attempts", attempt_ledger.total());
  out.metrics.set_int("sparsify_target", s.target);
  out.metrics.set_int("sparsify_attempts", attempts_run);
  out.metrics.set_int("sparsify_fallback", fell_back ? 1 : 0);
  out.metrics.set_int("sparsify_sampled_colors",
                      static_cast<std::int64_t>(sampled_colors));
  out.metrics.set_int("sparsify_full_colors",
                      static_cast<std::int64_t>(req.lists->flat().size()));
  out.sync_derived_fields();
  return out;
}

// Iteration cap shared by the sparsified attempts: generous for the
// O(log n) w.h.p. regime, small enough that a pathological sample costs
// bounded work before the next sample (or the fallback) takes over.
int sparsify_attempt_cap(const RunContext& ctx) {
  if (ctx.round_budget > 0)
    return static_cast<int>(
        std::max<std::int64_t>(1, ctx.round_budget / 2));
  return 1000;
}

AlgorithmCaps sparsified_exact_caps() {
  AlgorithmCaps c = exact_caps(true, false);
  c.randomized = true;  // the seed drives the palette sampling
  return c;
}

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& r) {
  // --- The paper's pipeline (Theorem 1.3 and friends). ---
  r.add({"sparse",
         "Theorem 1.3: d-list-coloring for d >= max(3, mad); params: d "
         "(default k or min list size), ball_constant, radius, max_peels",
         caps(true, true, false, true, {"clique"}),
         [](const ColoringRequest& req, RunContext& ctx) {
           return report_from_sparse(
               list_color_sparse(*req.graph, sparse_d(req), *req.lists,
                                 sparse_options(req, ctx)),
               "");
         },
         {},
         [](const EligibilityQuery& q) {
           const Vertex d = static_cast<Vertex>(
               q.params->get_int("d", q.k));
           if (d < 3)
             return std::string("needs d >= 3 (param d, or k), got ") +
                    std::to_string(d);
           return why_not_degenerate(*q.probe, d, "d");
         }});
  r.add({"nice",
         "Theorem 6.1: list-coloring for nice assignments (|L(v)| >= "
         "deg(v), +1 on small-degree/clique-neighborhood vertices)",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return nice_list_coloring(*req.graph, *req.lists,
                                     sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           // Uniform (max degree + 1)-lists are nice on every graph.
           return why_not_k(q, q.probe->max_degree + 1, "k");
         }});
  r.add({"planar6",
         "Corollary 2.3(1): 6-list-coloring of planar graphs",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return planar_six_list_coloring(*req.graph, *req.lists,
                                           sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const std::string planar = why_not_planar(*q.probe);
           return planar.empty() ? why_not_k(q, 6, "k") : planar;
         },
         [](const ParamBag&) { return Vertex{6}; }});
  r.add({"planar4-trianglefree",
         "Corollary 2.3(2): 4-list-coloring of triangle-free planar graphs",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return triangle_free_planar_four_list_coloring(
               *req.graph, *req.lists, sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const std::string planar = why_not_planar(*q.probe);
           if (!planar.empty()) return planar;
           if (!q.probe->triangle_free) return std::string("has a triangle");
           return why_not_k(q, 4, "k");
         },
         [](const ParamBag&) { return Vertex{4}; }});
  r.add({"planar3-girth6",
         "Corollary 2.3(3): 3-list-coloring of girth >= 6 planar graphs",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return girth_six_planar_three_list_coloring(
               *req.graph, *req.lists, sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const std::string planar = why_not_planar(*q.probe);
           if (!planar.empty()) return planar;
           if (q.probe->girth_floor < 6)
             return "girth " + std::to_string(q.probe->girth_floor) +
                    " < 6";
           return why_not_k(q, 3, "k");
         },
         [](const ParamBag&) { return Vertex{3}; }});
  r.add({"arboricity",
         "Corollary 1.4: 2a-list-coloring; params: arboricity (or k = 2a)",
         caps(true, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex a = static_cast<Vertex>(req.params.get_int(
               "arboricity", req.k > 0 ? req.k / 2 : -1));
           return arboricity_list_coloring(*req.graph, a, *req.lists,
                                           sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const Vertex a = static_cast<Vertex>(q.params->get_int(
               "arboricity", q.k > 0 ? q.k / 2 : -1));
           if (a < 2)
             return std::string(
                 "needs arboricity >= 2 (param arboricity, or k = 2a)");
           if (q.probe->arboricity_upper > a)
             return "certified arboricity bound " +
                    std::to_string(q.probe->arboricity_upper) +
                    " > promised arboricity " + std::to_string(a);
           return why_not_k(q, 2 * a, "k");
         },
         [](const ParamBag& p) {
           const std::int64_t a = p.get_int("arboricity", -1);
           return a > 0 ? static_cast<Vertex>(2 * a) : Vertex{-1};
         }});
  r.add({"genus",
         "Corollary 2.11: H(gamma)-list-coloring; params: genus",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return genus_list_coloring(*req.graph,
                                      required_int(req, "genus"), *req.lists,
                                      sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const std::int64_t genus = q.params->get_int("genus", -1);
           if (genus < 1)
             return std::string("needs param genus=... (>= 1); the probe "
                                "cannot certify a genus promise");
           return why_not_k(
               q, heawood_list_bound(static_cast<Vertex>(genus)), "k");
         },
         [](const ParamBag& p) {
           const std::int64_t genus = p.get_int("genus", -1);
           return genus >= 1
                      ? heawood_list_bound(static_cast<Vertex>(genus))
                      : Vertex{-1};
         }});
  r.add({"genus-sharp",
         "Corollary 2.11 (sharp): (H(gamma)-1)-list-coloring or a K_H "
         "certificate; params: genus (with 24*genus+1 a perfect square)",
         caps(true, false, false, true, {"clique"}),
         [](const ColoringRequest& req, RunContext& ctx) {
           return genus_list_coloring_sharp(*req.graph,
                                            required_int(req, "genus"),
                                            *req.lists,
                                            sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const std::int64_t genus = q.params->get_int("genus", -1);
           if (genus < 1)
             return std::string("needs param genus=... (>= 1); the probe "
                                "cannot certify a genus promise");
           if (!heawood_bound_is_tight(static_cast<Vertex>(genus)))
             return "genus " + std::to_string(genus) +
                    " is not sharp (24*genus+1 must be a perfect square)";
           return why_not_k(
               q, heawood_list_bound(static_cast<Vertex>(genus)) - 1, "k");
         },
         [](const ParamBag& p) {
           const std::int64_t genus = p.get_int("genus", -1);
           if (genus < 1 ||
               !heawood_bound_is_tight(static_cast<Vertex>(genus)))
             return Vertex{-1};
           return static_cast<Vertex>(
               heawood_list_bound(static_cast<Vertex>(genus)) - 1);
         }});
  r.add({"delta-list",
         "Corollary 2.1: Delta-list-coloring or a no-SDR K_{Delta+1} "
         "certificate (max degree >= 3)",
         caps(true, false, false, true, {"no-sdr-clique"}),
         [](const ColoringRequest& req, RunContext& ctx) {
           return delta_list_coloring(*req.graph, *req.lists,
                                      sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           if (q.probe->max_degree < 3)
             return "max degree " + std::to_string(q.probe->max_degree) +
                    " < 3";
           return why_not_k(q, q.probe->max_degree, "k");
         }});
  r.add({"ert",
         "Constructive Theorem 1.1 (Borodin; ERT): degree-choosable "
         "coloring of a connected non-Gallai (or surplus) graph",
         caps(true, false, false, false),
         [](const ColoringRequest& req, RunContext& ctx) {
           AvailableLists avail = to_lists(*req.lists);
           return ColoringReport::colored(
               degree_choosable_coloring(*req.graph, avail, ctx.executor));
         },
         {},
         [](const EligibilityQuery& q) {
           if (!q.probe->connected) return std::string("not connected");
           // k >= max degree + 1 gives every vertex surplus, which is
           // case 1 of the construction regardless of Gallai structure.
           return why_not_k(q, q.probe->max_degree + 1, "k");
         }});

  // --- Baselines. ---
  r.add({"randomized",
         "Randomized (deg+1)-list-coloring (paper §6): O(log n) rounds "
         "w.h.p.; seed from RunContext, iteration cap from round_budget",
         caps(true, false, true, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           Rng rng = ctx.make_rng();
           const int max_rounds =
               ctx.round_budget > 0
                   ? static_cast<int>(std::max<std::int64_t>(
                         1, ctx.round_budget / 2))
                   : 40'000;
           return randomized_list_coloring(*req.graph, *req.lists, rng,
                                           ctx.executor, max_rounds);
         },
         {},
         [](const EligibilityQuery& q) {
           // (deg + 1)-lists: uniform k-lists qualify iff k > max degree.
           return why_not_k(q, q.probe->max_degree + 1, "k");
         }});
  r.add({"linial",
         "Linial color reduction to a (dmax+1)-coloring (k = palette, "
         "default max degree + 1)",
         caps(false, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex dmax =
               req.k > 0 ? req.k - 1 : req.graph->max_degree();
           ColoringReport out;
           Rounds rounds(out.ledger, ctx.executor);
           DegreeColoringResult dc =
               distributed_degree_coloring(*req.graph, dmax, rounds);
           out.status = SolveStatus::kColored;
           out.coloring = std::move(dc.coloring);
           out.metrics.set_int("palette", dc.palette);
           out.sync_derived_fields();
           return out;
         },
         [](const ColoringRequest& req) {
           return req.k > 0 ? req.k : max_degree_plus_one(req);
         }});
  r.add({"gps",
         "Goldberg-Plotkin-Shannon peel-and-recolor; params: threshold "
         "(default k-1, else 6 = planar)",
         caps(false, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex threshold = static_cast<Vertex>(req.params.get_int(
               "threshold", req.k > 0 ? req.k - 1 : 6));
           return peel_threshold_coloring(*req.graph, threshold,
                                          ctx.executor);
         },
         [](const ColoringRequest& req) {
           return req.params.get_int("threshold",
                                     req.k > 0 ? req.k - 1 : 6) +
                  1;
         },
         [](const EligibilityQuery& q) {
           const Vertex threshold = static_cast<Vertex>(q.params->get_int(
               "threshold", q.k > 0 ? q.k - 1 : 6));
           return why_not_degenerate(*q.probe, threshold, "peel threshold");
         }});
  r.add({"barenboim-elkin",
         "Barenboim-Elkin H-partition coloring: floor((2+eps)a)+1 colors; "
         "params: arboricity, eps (default 1.0)",
         caps(false, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex a = required_int(req, "arboricity");
           const double eps = req.params.get_real("eps", 1.0);
           ColoringReport out =
               barenboim_elkin_coloring(*req.graph, a, eps, ctx.executor);
           out.metrics.set_int("palette", barenboim_elkin_palette(a, eps));
           return out;
         },
         [](const ColoringRequest& req) {
           const std::int64_t a = req.params.get_int("arboricity", -1);
           if (a <= 0) return std::int64_t{-1};
           return static_cast<std::int64_t>(barenboim_elkin_palette(
               static_cast<Vertex>(a), req.params.get_real("eps", 1.0)));
         },
         [](const EligibilityQuery& q) {
           const std::int64_t a = q.params->get_int("arboricity", -1);
           if (a <= 0) return std::string("needs param arboricity=...");
           // The H-partition peels at degree (2 + eps) * a; degeneracy
           // at or below that threshold certifies termination.
           const Vertex threshold = static_cast<Vertex>(
               (2.0 + q.params->get_real("eps", 1.0)) *
               static_cast<double>(a));
           return why_not_degenerate(*q.probe, threshold,
                                     "H-partition threshold");
         }});
  r.add({"greedy",
         "Sequential greedy in vertex-id order",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(greedy_coloring(
               *req.graph, identity_order(req.graph->num_vertices())));
         },
         max_degree_plus_one});
  r.add({"degeneracy",
         "Greedy in reverse degeneracy order: <= floor(mad)+1 colors",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(degeneracy_coloring(*req.graph));
         },
         [](const ColoringRequest& req) {
           // Deliberately recomputed (O(n + m)) rather than read off the
           // run's own order: the oracle bound must not trust the
           // algorithm it is checking.
           return static_cast<std::int64_t>(
               degeneracy_order(*req.graph).degeneracy + 1);
         }});
  r.add({"dsatur",
         "DSATUR saturation-degree heuristic",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(dsatur_coloring(*req.graph));
         },
         max_degree_plus_one});
  r.add({"degeneracy-list",
         "Greedy list-coloring in reverse degeneracy order (succeeds when "
         "every list exceeds the degeneracy)",
         caps(true, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return from_optional(
               degeneracy_list_coloring(*req.graph, *req.lists),
               "degeneracy greedy found a vertex with no free list color");
         },
         {},
         [](const EligibilityQuery& q) {
           return why_not_k(q, q.probe->degeneracy + 1, "k");
         }});

  // --- Palette-sparsified family (arXiv:2301.06457, arXiv:2408.08256):
  // the base solvers on sampled c·log n sub-palettes, full-palette
  // fallback. Shared params: sparsify_c (default 4.0), sparsify_attempts
  // (default 3). ---
  r.add({"dplus1-sparsified",
         "Randomized (deg+1)-list-coloring on sampled c*log n "
         "sub-palettes, full-palette randomized fallback; params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3)",
         caps(true, false, true, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const int cap = sparsify_attempt_cap(ctx);
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t seed,
                   Rounds& rounds) {
                 return propose_resolve_coloring(*req.graph, sampled, seed,
                                                 rounds, cap,
                                                 OnExhausted::kAbandon);
               },
               [&]() {
                 Rng frng = Rng::stream(ctx.seed, 0xFA11BACC);
                 return randomized_list_coloring(*req.graph, *req.lists,
                                                 frng, ctx.executor,
                                                 std::max(cap, 40'000));
               });
         },
         {},
         [](const EligibilityQuery& q) {
           // The fallback needs (deg+1)-lists, same as `randomized`.
           return why_not_k(q, q.probe->max_degree + 1, "k");
         }});
  r.add({"deglist-sparsified",
         "Degeneracy-order greedy list-coloring on sampled c*log n "
         "sub-palettes, full-list degeneracy greedy fallback; params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3)",
         caps(true, false, true, false),
         [](const ColoringRequest& req, RunContext& ctx) {
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t, Rounds&) {
                 return degeneracy_list_coloring(*req.graph, sampled);
               },
               [&]() {
                 return from_optional(
                     degeneracy_list_coloring(*req.graph, *req.lists),
                     "degeneracy greedy found a vertex with no free list "
                     "color (sparsified attempts also failed)");
               });
         },
         {},
         [](const EligibilityQuery& q) {
           // The fallback succeeds when every list beats the degeneracy,
           // same as `degeneracy-list`.
           return why_not_k(q, q.probe->degeneracy + 1, "k");
         }});
  r.add({"list-sparsified",
         "Exact MRV list-coloring on sampled c*log n sub-palettes, exact "
         "full-list fallback (which proves infeasibility); params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3), "
         "sparsify_node_budget (default 2e6), node_budget",
         sparsified_exact_caps(),
         [](const ColoringRequest& req, RunContext& ctx) {
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t,
                   Rounds&) -> std::optional<Coloring> {
                 // On a sampled sub-assignment nullopt is NOT an
                 // infeasibility proof (the discarded colors could
                 // work) and a blown node budget just means the sample
                 // was hard: both fall through to the next attempt.
                 try {
                   return find_list_coloring(
                       *req.graph, sampled,
                       req.params.get_int("sparsify_node_budget",
                                          2'000'000));
                 } catch (const InternalError&) {
                   return std::nullopt;
                 }
               },
               [&]() {
                 return from_exact(find_list_coloring(
                     *req.graph, *req.lists,
                     req.params.get_int("node_budget", 50'000'000)));
               });
         },
         {}});

  // --- Exact solvers and special substrates. ---
  r.add({"exact",
         "Exact k-coloring by backtracking (k required; params: "
         "node_budget)",
         exact_caps(false, true),
         [](const ColoringRequest& req, RunContext&) {
           SCOL_REQUIRE(req.k > 0, + "algorithm 'exact' needs request.k");
           return from_exact(find_k_coloring(
               *req.graph, req.k,
               req.params.get_int("node_budget", 50'000'000)));
         },
         [](const ColoringRequest& req) {
           return static_cast<std::int64_t>(req.k);
         },
         [](const EligibilityQuery& q) {
           return q.k > 0 ? std::string()
                          : std::string("needs request.k (the palette to "
                                        "search)");
         }});
  r.add({"exact-list",
         "Exact list-coloring by MRV backtracking (params: node_budget)",
         exact_caps(true, false),
         [](const ColoringRequest& req, RunContext&) {
           return from_exact(find_list_coloring(
               *req.graph, *req.lists,
               req.params.get_int("node_budget", 50'000'000)));
         },
         {}});
  r.add({"sdr",
         "SDR clique coloring (Corollary 2.1 substrate): the graph must "
         "be one clique; colors by bipartite matching or certifies no SDR",
         caps(true, false, false, false, {"no-sdr-clique"}),
         [](const ColoringRequest& req, RunContext&) {
           const Vertex n = req.graph->num_vertices();
           std::vector<Vertex> all(static_cast<std::size_t>(n));
           for (Vertex v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
           SCOL_REQUIRE(is_clique(*req.graph, all),
                        + "algorithm 'sdr' needs a complete graph");
           auto c = color_clique_by_sdr(*req.graph, all, *req.lists);
           if (!c.has_value())
             return ColoringReport::infeasible(all, "no-sdr-clique");
           return ColoringReport::colored(std::move(*c));
         },
         {},
         [](const EligibilityQuery& q) {
           return q.probe->complete ? std::string()
                                    : std::string("not a complete graph");
         }});
}

ColoringReport solve(const ColoringRequest& request, RunContext& ctx) {
  SCOL_REQUIRE(request.graph != nullptr, + "request needs a graph");
  const AlgorithmInfo& info =
      AlgorithmRegistry::instance().at(request.algorithm);
  if (info.caps.needs_lists) {
    SCOL_REQUIRE(request.lists != nullptr,
                 + ("algorithm '" + info.name + "' needs lists"));
    SCOL_REQUIRE(request.lists->size() == request.graph->num_vertices(),
                 + "one list per vertex");
  }

  if (ctx.telemetry) {
    TelemetryEvent ev;
    ev.kind = TelemetryEvent::Kind::kSolveStart;
    ev.algorithm = info.name;
    ctx.telemetry(ev);
  }

  // Per-run scratch lives in the context's arena: reset (not freed) at
  // the start of every run, so a reused context recycles its chunks and
  // the deltas below are this run's exact allocation profile.
  Arena& arena = ctx.arena_ref();
  arena.reset();
  const ArenaStats before = arena.stats();

  const auto start = std::chrono::steady_clock::now();
  ColoringReport report;
  try {
    report = info.run(request, ctx);
  } catch (const PreconditionError& e) {
    report = ColoringReport::failed(e.what());
  } catch (const InternalError& e) {
    report = ColoringReport::failed(e.what());
  }
  report.algorithm = info.name;
  // Only the scheduling-independent counters go in the metrics bag: the
  // campaign JSONL stream must stay bit-identical across --jobs and
  // shards, and chunk growth depends on which worker's arena a job lands
  // on (first job cold, later jobs warm).
  const ArenaStats after = arena.stats();
  report.metrics.set_int("arena_allocs", after.alloc_calls - before.alloc_calls);
  report.metrics.set_int("arena_bytes",
                         after.bytes_requested - before.bytes_requested);
  report.sync_derived_fields();
  report.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Budget verdicts (post-hoc: solve() cannot interrupt a kernel).
  report.round_budget_exceeded =
      ctx.round_budget >= 0 && report.rounds > ctx.round_budget;
  report.deadline_exceeded =
      ctx.deadline_ms >= 0 && report.wall_ms > ctx.deadline_ms;

  // Independent validation, never trusting the algorithm's own checks.
  // Failures demote the report in place so the ledger, rounds, wall time,
  // and budget verdicts of the offending run survive for debugging.
  if (ctx.validate && report.coloring.has_value()) {
    const char* why = nullptr;
    if (!is_proper(*request.graph, *report.coloring)) {
      why = "validation: coloring is not proper";
    } else if (request.lists != nullptr &&
               !respects_lists(*report.coloring, *request.lists)) {
      why = "validation: coloring ignores lists";
    }
    if (why != nullptr) {
      report.status = SolveStatus::kFailed;
      report.failure_reason = why;
      report.coloring.reset();
      report.colors_used = 0;
    }
  }

  if (ctx.telemetry) {
    for (const auto& [phase, rounds] : report.ledger.breakdown()) {
      TelemetryEvent ev;
      ev.kind = TelemetryEvent::Kind::kPhase;
      ev.algorithm = info.name;
      ev.phase = phase;
      ev.rounds = rounds;
      ctx.telemetry(ev);
    }
    TelemetryEvent ev;
    ev.kind = TelemetryEvent::Kind::kSolveEnd;
    ev.algorithm = info.name;
    ev.rounds = report.rounds;
    ev.wall_ms = report.wall_ms;
    ctx.telemetry(ev);
  }
  return report;
}

ColoringReport solve(const ColoringRequest& request) {
  RunContext ctx;
  return solve(request, ctx);
}

}  // namespace scol
