#include "scol/api/solve.h"

#include <algorithm>
#include <chrono>
#include <limits>
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

constexpr Vertex kMaxVertex = std::numeric_limits<Vertex>::max();

// The keys sparse_options reads, after an entry's own `keys`.
std::vector<std::string> ball_keys(std::vector<std::string> keys = {}) {
  keys.insert(keys.end(), {"ball_constant", "radius", "max_peels"});
  return keys;
}

SparseOptions sparse_options(const ColoringRequest& req, RunContext& ctx) {
  SparseOptions opts;
  opts.ball_constant = req.params.get_real("ball_constant", opts.ball_constant);
  opts.radius_override = req.params.get<Vertex>("radius", opts.radius_override);
  opts.max_peels = req.params.get<Vertex>("max_peels", opts.max_peels);
  opts.executor = ctx.executor;
  opts.arena = &ctx.arena_ref();
  return opts;
}

// d for the Theorem 1.3 family: explicit param, then request.k, then the
// min list size.
Vertex sparse_d(const ColoringRequest& req) {
  const Vertex from_param = req.params.get<Vertex>("d", -1, 3);
  if (from_param > 0) return from_param;
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

// --- Guarantee params, each decoded by one helper for its entry. ---

// Each guarantee param reads as a count >= 0 where eligibility reads it,
// so a promise too weak for the premise is a skip reason (`--param
// arboricity=1` still runs barenboim-elkin in a campaign); a run reads it
// at the kernel's own lower bound.

// Corollary 1.4's promised arboricity: param arboricity (at most half
// the vertex range, so 2a fits), else k = 2a, else -1.
Vertex promised_arboricity(const ParamBag& p, Vertex k, Vertex lo = 0) {
  return p.get<Vertex>("arboricity", k > 0 ? k / 2 : -1, lo, kMaxVertex / 2);
}

// Corollary 2.11's promised genus (param genus; -1 when absent).
Vertex promised_genus(const ParamBag& p) {
  return p.get<Vertex>("genus", -1, 0);
}

// The genus premise: a promised genus, and for the sharp form (the
// H(gamma) - 1 lists) one with 24*genus+1 a perfect square.
std::string why_not_genus(const ParamBag& p, bool sharp) {
  const Vertex genus = promised_genus(p);
  if (genus < 1)
    return "needs param genus=... (>= 1); the probe cannot certify a genus "
           "promise";
  if (sharp && !heawood_bound_is_tight(genus))
    return "genus " + std::to_string(genus) +
           " is not sharp (24*genus+1 must be a perfect square)";
  return "";
}

// Its list size: H(gamma), H(gamma) - 1 when sharp; -1 without the premise.
Vertex heawood_lists(const ParamBag& p, bool sharp) {
  if (!why_not_genus(p, sharp).empty()) return -1;
  return heawood_list_bound(promised_genus(p)) - (sharp ? 1 : 0);
}

// GPS peels at degree <= threshold: param threshold, else k - 1, else 6.
Vertex peel_threshold(const ParamBag& p, Vertex k, Vertex lo = 0) {
  return p.get<Vertex>("threshold", k > 0 ? k - 1 : 6, lo);
}

// Barenboim-Elkin's promised arboricity (-1 when absent) and eps.
struct HPartitionParams {
  Vertex arboricity;
  double eps;
};
HPartitionParams h_partition_params(const ParamBag& p) {
  return {p.get<Vertex>("arboricity", -1, 0), p.get_real("eps", 1.0)};
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
AlgorithmCaps exact_caps(bool needs_lists, bool uses_k,
                         bool randomized = false) {
  AlgorithmCaps c = caps(needs_lists, uses_k, randomized, false);
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
// job's params) satisfies the algorithm's structural premise, else the
// reason it cannot run; AlgorithmInfo::list_size states the list size.
// solve() itself never consults them, so explicit runs still fail loudly.

std::string why_not_planar(const GraphProbe& probe) {
  switch (probe.planar) {
    case ProbeVerdict::kYes: return "";
    case ProbeVerdict::kNo: return "not planar";
    case ProbeVerdict::kUnknown:
      return "planarity unknown (n exceeds the probe's planarity limit)";
  }
  return "";
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
  const Vertex target = sparsify_target(
      req.graph->num_vertices(), req.params.get_real("sparsify_c", 4.0));
  const std::int64_t attempts = std::max<std::int64_t>(
      1, req.params.get_int("sparsify_attempts", 3));
  const std::uint64_t root = ctx.make_rng().next();  // all sparsify seeds
  RoundLedger attempt_ledger;
  Rounds attempt_rounds(attempt_ledger, ctx.executor);
  std::int64_t attempts_run = 0;
  std::size_t sampled_colors = 0;
  std::optional<Coloring> found;
  for (std::int64_t a = 0; a < attempts && !found.has_value(); ++a) {
    const ListAssignment sampled = sparsify_palette(
        *req.lists, target, root, static_cast<std::uint64_t>(a));
    sampled_colors = sampled.flat().size();
    // Decorrelated from the sampling streams (different base seed).
    const std::uint64_t attempt_seed =
        Rng::stream(~root, static_cast<std::uint64_t>(a)).next();
    found = attempt(sampled, attempt_seed, attempt_rounds);
    ++attempts_run;
  }
  const bool fell_back = !found.has_value();
  ColoringReport out =
      fell_back ? fallback() : ColoringReport::colored(std::move(*found));
  if (attempt_ledger.total() > 0)
    out.ledger.charge("sparsified-attempts", attempt_ledger.total());
  out.metrics.set_int("sparsify_target", target);
  out.metrics.set_int("sparsify_attempts", attempts_run);
  out.metrics.set_int("sparsify_fallback", fell_back ? 1 : 0);
  out.metrics.set_int("sparsify_sampled_colors",
                      static_cast<std::int64_t>(sampled_colors));
  out.metrics.set_int("sparsify_full_colors",
                      static_cast<std::int64_t>(req.lists->flat().size()));
  out.sync_derived_fields();
  return out;
}

// Iteration cap of a propose/resolve run: half the round budget, else
// `otherwise`. The sparsified attempts pass 1000: generous for the
// O(log n) w.h.p. regime, small enough that a pathological sample costs
// bounded work before the next sample (or the fallback) takes over.
int iteration_cap(const RunContext& ctx, int otherwise) {
  if (ctx.round_budget > 0)
    return static_cast<int>(
        std::max<std::int64_t>(1, ctx.round_budget / 2));
  return otherwise;
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
           const Vertex d = q.params->get<Vertex>("d", q.k, 0);
           if (d < 3)
             return std::string("needs d >= 3 (param d, or k), got ") +
                    std::to_string(d);
           return why_not_degenerate(*q.probe, d, "d");
         },
         {},
         ball_keys({"d"})});
  r.add({"nice",
         "Theorem 6.1: list-coloring for nice assignments (|L(v)| >= "
         "deg(v), +1 on small-degree/clique-neighborhood vertices)",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return nice_list_coloring(*req.graph, *req.lists,
                                     sparse_options(req, ctx));
         },
         {},
         {},
         // Uniform (max degree + 1)-lists are nice on every graph.
         {.probed = [](const GraphProbe& p) { return p.max_degree + 1; }},
         ball_keys()});
  r.add({"planar6",
         "Corollary 2.3(1): 6-list-coloring of planar graphs",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return planar_six_list_coloring(*req.graph, *req.lists,
                                           sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) { return why_not_planar(*q.probe); },
         {.fixed = [](const ParamBag&) { return Vertex{6}; }},
         ball_keys()});
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
           return std::string();
         },
         {.fixed = [](const ParamBag&) { return Vertex{4}; }},
         ball_keys()});
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
           return std::string();
         },
         {.fixed = [](const ParamBag&) { return Vertex{3}; }},
         ball_keys()});
  r.add({"arboricity",
         "Corollary 1.4: 2a-list-coloring; params: arboricity (or k = 2a)",
         caps(true, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex a = promised_arboricity(req.params, req.k, 2);
           return arboricity_list_coloring(*req.graph, a, *req.lists,
                                           sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           const Vertex a = promised_arboricity(*q.params, q.k);
           if (a < 2)
             return std::string(
                 "needs arboricity >= 2 (param arboricity, or k = 2a)");
           if (q.probe->arboricity_upper > a)
             return "certified arboricity bound " +
                    std::to_string(q.probe->arboricity_upper) +
                    " > promised arboricity " + std::to_string(a);
           return std::string();
         },
         // 2a for a promised a; k = 2a promises a = k / 2, so k passes.
         {.fixed = [](const ParamBag& p) {
           const Vertex a = promised_arboricity(p, -1);
           return a > 0 ? 2 * a : Vertex{-1};
         }},
         ball_keys({"arboricity"})});
  r.add({"genus",
         "Corollary 2.11: H(gamma)-list-coloring; params: genus",
         caps(true, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return genus_list_coloring(
               *req.graph,
               req.params.require<Vertex>("genus", 1),
               *req.lists, sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           return why_not_genus(*q.params, false);
         },
         {.fixed = [](const ParamBag& p) { return heawood_lists(p, false); }},
         ball_keys({"genus"})});
  r.add({"genus-sharp",
         "Corollary 2.11 (sharp): (H(gamma)-1)-list-coloring or a K_H "
         "certificate; params: genus (with 24*genus+1 a perfect square)",
         caps(true, false, false, true, {"clique"}),
         [](const ColoringRequest& req, RunContext& ctx) {
           return genus_list_coloring_sharp(
               *req.graph,
               req.params.require<Vertex>("genus", 1),
               *req.lists, sparse_options(req, ctx));
         },
         {},
         [](const EligibilityQuery& q) {
           return why_not_genus(*q.params, true);
         },
         {.fixed = [](const ParamBag& p) { return heawood_lists(p, true); }},
         ball_keys({"genus"})});
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
           return std::string();
         },
         {.probed = [](const GraphProbe& p) { return p.max_degree; }},
         ball_keys()});
  r.add({"ert",
         "Constructive Theorem 1.1 (Borodin; ERT): degree-choosable "
         "coloring of a connected non-Gallai (or surplus) graph",
         caps(true, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(
               degree_choosable_coloring(*req.graph, *req.lists));
         },
         {},
         [](const EligibilityQuery& q) {
           return q.probe->connected ? std::string() : "not connected";
         },
         // k >= max degree + 1 gives every vertex surplus, which is case 1
         // of the construction regardless of Gallai structure.
         {.probed = [](const GraphProbe& p) { return p.max_degree + 1; }}});

  // --- Baselines. ---
  r.add({"randomized",
         "Randomized (deg+1)-list-coloring (paper §6): O(log n) rounds "
         "w.h.p.; seed from RunContext, iteration cap from round_budget",
         caps(true, false, true, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           Rng rng = ctx.make_rng();
           return randomized_list_coloring(*req.graph, *req.lists, rng,
                                           ctx.executor,
                                           iteration_cap(ctx, 40'000));
         },
         {},
         {},
         // (deg + 1)-lists: uniform k-lists qualify iff k > max degree.
         {.probed = [](const GraphProbe& p) { return p.max_degree + 1; }}});
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
         },
         // The palette k must exceed the max degree; auto-k (k <= 0) does.
         [](const EligibilityQuery& q) {
           const Vertex dmax = q.probe->max_degree;
           if (q.k <= 0 || q.k > dmax) return std::string();
           return "needs k > max degree " + std::to_string(dmax) + ", got " +
                  std::to_string(q.k);
         }});
  r.add({"gps",
         "Goldberg-Plotkin-Shannon peel-and-recolor; params: threshold "
         "(default k-1, else 6 = planar)",
         caps(false, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return peel_threshold_coloring(
               *req.graph, peel_threshold(req.params, req.k, 1), ctx.executor);
         },
         [](const ColoringRequest& req) {
           return std::int64_t{peel_threshold(req.params, req.k)} + 1;
         },
         [](const EligibilityQuery& q) {
           return why_not_degenerate(
               *q.probe, peel_threshold(*q.params, q.k), "peel threshold");
         },
         {},
         {"threshold"}});
  r.add({"barenboim-elkin",
         "Barenboim-Elkin H-partition coloring: floor((2+eps)a)+1 colors; "
         "params: arboricity, eps (default 1.0)",
         caps(false, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex a = req.params.require<Vertex>("arboricity", 1);
           const double eps = h_partition_params(req.params).eps;
           ColoringReport out =
               barenboim_elkin_coloring(*req.graph, a, eps, ctx.executor);
           out.metrics.set_int("palette", barenboim_elkin_palette(a, eps));
           return out;
         },
         [](const ColoringRequest& req) {
           const HPartitionParams hp = h_partition_params(req.params);
           if (hp.arboricity <= 0) return std::int64_t{-1};
           return std::int64_t{barenboim_elkin_palette(hp.arboricity, hp.eps)};
         },
         [](const EligibilityQuery& q) {
           const HPartitionParams hp = h_partition_params(*q.params);
           if (hp.arboricity <= 0)
             return std::string("needs param arboricity=...");
           // The H-partition peels at degree (2 + eps) * a; degeneracy
           // at or below that threshold certifies termination.
           const auto threshold = static_cast<Vertex>(
               (2.0 + hp.eps) * static_cast<double>(hp.arboricity));
           return why_not_degenerate(*q.probe, threshold,
                                     "H-partition threshold");
         },
         {},
         {"arboricity", "eps"}});
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
         {},
         // Lists longer than the degeneracy: the greedy cannot get stuck.
         {.probed = [](const GraphProbe& p) { return p.degeneracy + 1; }}});

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
           const int cap = iteration_cap(ctx, 1000);
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
         {},
         // The fallback needs (deg+1)-lists, same as `randomized`.
         {.probed = [](const GraphProbe& p) { return p.max_degree + 1; }},
         {"sparsify_c", "sparsify_attempts"}});
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
         {},
         // The fallback succeeds when every list beats the degeneracy,
         // same as `degeneracy-list`.
         {.probed = [](const GraphProbe& p) { return p.degeneracy + 1; }},
         {"sparsify_c", "sparsify_attempts"}});
  r.add({"list-sparsified",
         "Exact MRV list-coloring on sampled c*log n sub-palettes, exact "
         "full-list fallback (which proves infeasibility); params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3), "
         "sparsify_node_budget (default 2e6), node_budget",
         exact_caps(true, false, true),  // seeded palette sampling
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
         {},
         {}, {},
         {"sparsify_c", "sparsify_attempts", "sparsify_node_budget",
          "node_budget"}});

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
         },
         {},
         {"node_budget"}});
  r.add({"exact-list",
         "Exact list-coloring by MRV backtracking (params: node_budget)",
         exact_caps(true, false),
         [](const ColoringRequest& req, RunContext&) {
           return from_exact(find_list_coloring(
               *req.graph, *req.lists,
               req.params.get_int("node_budget", 50'000'000)));
         },
         {},
         {}, {},
         {"node_budget"}});
  r.add({"sdr",
         "SDR clique coloring (Corollary 2.1 substrate): the graph must "
         "be one clique; colors by bipartite matching or certifies no SDR",
         caps(true, false, false, false, {"no-sdr-clique"}),
         [](const ColoringRequest& req, RunContext&) {
           const std::vector<Vertex> all =
               identity_order(req.graph->num_vertices());
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
  } catch (const ParamError& e) {
    throw PreconditionError("algorithm '" + info.name + "': " + e.what());
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
