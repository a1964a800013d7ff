#include "scol/api/report.h"

#include <utility>

#include "scol/coloring/sparse.h"
#include "scol/local/shard.h"

namespace scol {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kColored:
      return "colored";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

ColoringReport ColoringReport::colored(Coloring c) {
  ColoringReport out;
  out.status = SolveStatus::kColored;
  out.coloring = std::move(c);
  out.sync_derived_fields();
  return out;
}

ColoringReport ColoringReport::infeasible(std::vector<Vertex> witness,
                                          std::string kind) {
  ColoringReport out;
  out.status = SolveStatus::kInfeasible;
  out.certificate = std::move(witness);
  out.certificate_kind = std::move(kind);
  return out;
}

ColoringReport ColoringReport::failed(std::string reason) {
  ColoringReport out;
  out.status = SolveStatus::kFailed;
  out.failure_reason = std::move(reason);
  return out;
}

void ColoringReport::sync_derived_fields() {
  rounds = ledger.total();
  colors_used = coloring.has_value() ? count_colors(*coloring) : 0;
}

ColoringReport report_from_sparse(SparseResult&& r, std::string algorithm) {
  ColoringReport out;
  out.algorithm = std::move(algorithm);
  if (r.clique.has_value()) {
    out.status = SolveStatus::kInfeasible;
    out.certificate = std::move(r.clique);
    out.certificate_kind = "clique";
  } else {
    out.status = SolveStatus::kColored;
    out.coloring = std::move(r.coloring);
  }
  out.ledger = std::move(r.ledger);
  out.metrics.set_int("peels", static_cast<std::int64_t>(r.peels.size()));
  out.metrics.set_int("radius", r.radius);
  out.sync_derived_fields();
  return out;
}

void add_exchange_metrics(ColoringReport& report, const ShardPlan& plan) {
  report.metrics.set_int("shards", plan.shards);
  report.metrics.set_int("exchange_messages",
                         report.rounds * plan.boundary_pairs);
  report.metrics.set_int("boundary_vertices", plan.boundary_vertices);
  report.metrics.set_int("cut_edges", plan.cut_edges);
}

}  // namespace scol
