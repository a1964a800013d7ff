#include "scol/coloring/barenboim_elkin.h"

#include <cmath>
#include <limits>

namespace scol {

Vertex barenboim_elkin_palette(Vertex arboricity, double eps) {
  SCOL_REQUIRE(arboricity >= 1 && eps > 0);
  // In double, and narrowed only once it is known to fit.
  const double palette =
      std::floor((2.0 + eps) * static_cast<double>(arboricity)) + 1.0;
  SCOL_REQUIRE(palette <= std::numeric_limits<Vertex>::max(),
               + "floor((2+eps)a)+1 colors exceed the vertex-id range");
  return static_cast<Vertex>(palette);
}

ColoringReport barenboim_elkin_coloring(const Graph& g, Vertex arboricity,
                                        double eps,
                                        const Executor* executor) {
  const Vertex palette = barenboim_elkin_palette(arboricity, eps);
  return peel_threshold_coloring(g, palette - 1, executor);
}

}  // namespace scol
