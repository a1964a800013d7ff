// AlgorithmRegistry: every coloring algorithm in the library behind one
// name-indexed table.
//
// A registration is a name, a one-line summary, capability flags (what
// the algorithm needs from the request and what its reports can contain),
// and the run function. scol::solve() dispatches through the registry;
// the CLI, benches, and tests enumerate it. Built-ins are registered
// lazily on first instance() access (safe against static-library
// dead-stripping); downstream code can add its own algorithms with add().
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scol/api/context.h"
#include "scol/api/report.h"
#include "scol/api/request.h"
#include "scol/io/probe.h"

namespace scol {

/// What AlgorithmInfo::precondition and ::list_size get to look at: the
/// structural facts certified about a graph (io/probe.h) plus the per-job
/// knobs that decide list sizes — `k` is the *effective* palette-ish k (the
/// campaign's auto-k already applied; -1 when the algorithm takes none).
struct EligibilityQuery {
  const GraphProbe* probe = nullptr;
  const ParamBag* params = nullptr;
  Vertex k = -1;
};

/// The uniform list size an algorithm's guarantee is stated for (k-lists
/// qualify iff k >= it): `fixed` by the job's params (planar6: 6; -1 when
/// the params fix none) or `probed` off the graph (Δ+1 for (deg+1)-list
/// solvers). At most one is set; neither = no list-size requirement.
struct ListSizeRule {
  std::function<Vertex(const ParamBag&)> fixed = nullptr;
  std::function<Vertex(const GraphProbe&)> probed = nullptr;
  explicit operator bool() const { return fixed || probed; }
};

/// Capability flags: what an algorithm needs from the request and what
/// its reports can contain.
struct AlgorithmCaps {
  bool needs_lists = false;   ///< request.lists must be set
  bool uses_k = false;        ///< reads request.k (or derives it)
  bool randomized = false;    ///< consumes RunContext::seed
  bool distributed = false;   ///< charges LOCAL rounds to the ledger
  /// True iff this algorithm can return kInfeasible reports (a proof that
  /// no solution exists — with or without a certificate object).
  bool proves_infeasibility = false;
  /// Witness kinds this algorithm's kInfeasible reports can carry (empty
  /// = its proofs, if any, are non-constructive, like exhaustive search).
  std::vector<std::string> certificate_kinds;
};

/// One registry entry: identity, capabilities, the run function, and the
/// registered judgments about it — the color-count guarantee the oracle
/// enforces, and the structural precondition and list-size rule the
/// probe filter evaluates.
struct AlgorithmInfo {
  std::string name;
  std::string summary;  ///< one line, includes the params it reads
  AlgorithmCaps caps;
  /// Maps (request, context) to a report; solve() wraps it with timing,
  /// budget verdicts, validation, telemetry, and ledger aggregation.
  std::function<ColoringReport(const ColoringRequest&, RunContext&)> run;
  /// Registered guarantee: an upper bound on colors_used that any kColored
  /// report for this request must respect, or -1 when the bound cannot be
  /// computed from the request alone (missing param, no guarantee). List
  /// algorithms bound by the distinct colors across the lists; palette
  /// algorithms by their palette. The campaign oracle flags every
  /// colored report that exceeds its algorithm's bound.
  std::function<std::int64_t(const ColoringRequest&)> color_bound = nullptr;
  /// Structural-precondition check against a probed graph: returns ""
  /// when the algorithm can run on such an input, else a short reason
  /// ("not planar", "needs param genus=..."). Unset = no structural
  /// requirement. solve() never consults it — explicitly requested runs
  /// still fail loudly; the campaign probe filter and `scol-cli probe`
  /// use it to auto-select eligible algorithms for arbitrary inputs.
  std::function<std::string(const EligibilityQuery&)> precondition = nullptr;
  /// The list size the guarantee is stated for, checked after the
  /// precondition. effective_k() raises an auto-k job's k to a fixed
  /// size, so `--algo all` over any input runs planar6 on 6-lists.
  ListSizeRule list_size = {};
};

class AlgorithmRegistry {
 public:
  /// The process-wide registry, with all built-ins registered.
  static AlgorithmRegistry& instance();

  /// Registers an algorithm; throws PreconditionError on a duplicate name
  /// or a missing run function.
  void add(AlgorithmInfo info);

  const AlgorithmInfo* find(const std::string& name) const;

  /// Like find(), but throws PreconditionError listing known names.
  const AlgorithmInfo& at(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const { return algorithms_.size(); }

  const std::vector<AlgorithmInfo>& all() const { return algorithms_; }

 private:
  std::vector<AlgorithmInfo> algorithms_;
};

/// Registers every built-in algorithm (idempotent per registry; defined
/// in solve.cpp next to the wrappers it registers).
void register_builtin_algorithms(AlgorithmRegistry& registry);

/// Evaluates an algorithm's precondition, then its list-size rule ("needs
/// k >= 6, got 5"): "" when eligible, else the reason it cannot run.
std::string algorithm_skip_reason(const AlgorithmInfo& info,
                                  const EligibilityQuery& query);

/// The per-job effective k: an explicit k > 0 wins; otherwise
/// list-needing algorithms get max(3, max_degree + 1,
/// info.list_size.fixed(params)) and the rest keep -1 (their own
/// defaults). Front ends reach it through admit().
Vertex effective_k(const AlgorithmInfo& info, Vertex k, Vertex max_degree,
                   const ParamBag& params);

/// The one check on a lists mode, shared by one-shot runs, campaign specs
/// and the serve protocol: throws PreconditionError unless it is
/// "uniform" or "random".
void require_lists_mode(const std::string& lists_mode);

/// What admit() resolved for one job: its effective k, its list shape
/// (uniform k-lists, random k-subsets of `palette`, or none) and, when a
/// probe was given, its eligibility verdict.
struct Admission {
  Vertex k = -1;
  std::string lists = "none";  ///< "uniform" | "random" | "none"
  Color palette = -1;          ///< random-lists palette, else -1
  std::string skip_reason;     ///< "" = eligible (or not probed)
  /// The job's lists, a pure function of (seed, k, palette); only for
  /// lists != "none".
  ListAssignment build_lists(Vertex n, std::uint64_t seed) const;
};

/// Resolves one requested job — the single step behind one-shot runs,
/// campaign jobs, the server's cache key, `scol-cli probe` and the
/// examples. Throws on a bad lists mode. k is effective_k(); list
/// algorithms get `lists_mode`, with random lists on `palette` (4k when
/// it is <= 0). With a probe, the skip reason is algorithm_skip_reason()
/// at that k, and a skipped job gets no lists.
Admission admit(const AlgorithmInfo& info, const Graph& g, Vertex k,
                const std::string& lists_mode, Color palette,
                const ParamBag& params, const GraphProbe* probe = nullptr);

}  // namespace scol
