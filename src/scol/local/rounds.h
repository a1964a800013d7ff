// The LOCAL round seam: the one handle a distributed kernel both runs and
// charges its rounds through. round() executes a synchronous round — one
// parallel_ranges over [0, width) — and charges it, also when width == 0
// (an empty colour class still costs its scheduled round). charge() prices
// a phase by its schedule when the work runs centrally (balls by BFS,
// forests, sweeps). Round bodies write only their own indices, so every
// executor yields bit-identical results and identical ledger charges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "scol/local/ledger.h"
#include "scol/util/executor.h"

namespace scol {

class Rounds {
 public:
  /// executor == nullptr runs serially (the library-wide convention).
  explicit Rounds(RoundLedger& ledger, const Executor* executor = nullptr)
      : ledger_(ledger), exec_(resolve_executor(executor)) {}

  /// The executor for a kernel's local (round-free) passes.
  const Executor& exec() const { return exec_; }

  /// Runs body(begin, end) over disjoint ranges covering [0, width), then
  /// charges one round to `phase`. The body is wrapped by reference, so
  /// the round adds no allocation of its own.
  template <typename Body>
  void round(std::string_view phase, std::size_t width, Body&& body) {
    exec_.parallel_ranges(width, [&body](std::size_t begin, std::size_t end) {
      body(begin, end);
    });
    ledger_.charge(phase, 1);
  }

  /// Charges `rounds` scheduled rounds to `phase`; charging 0 opens the
  /// phase so it is reported even when no round runs.
  void charge(std::string_view phase, std::int64_t rounds) {
    ledger_.charge(phase, rounds);
  }

 private:
  RoundLedger& ledger_;
  const Executor& exec_;
};

}  // namespace scol
