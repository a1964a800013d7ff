// Round accounting for the LOCAL model.
//
// Every distributed primitive in this library charges the number of
// synchronous communication rounds its LOCAL implementation would take
// (local computation is free in the model), through the Rounds seam
// (local/rounds.h). The ledger keeps a per-phase breakdown, in order of
// first charge, so reports can say, e.g., how many rounds went into ball
// collection versus ruling-forest construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scol/util/check.h"

namespace scol {

class RoundLedger {
 public:
  void charge(std::string_view phase, std::int64_t rounds) {
    SCOL_REQUIRE(rounds >= 0);
    total_ += rounds;
    for (auto& [name, sum] : breakdown_) {
      if (name == phase) {
        sum += rounds;
        return;
      }
    }
    breakdown_.emplace_back(phase, rounds);
  }

  std::int64_t total() const { return total_; }

  std::int64_t phase(std::string_view name) const {
    for (const auto& [n, sum] : breakdown_)
      if (n == name) return sum;
    return 0;
  }

  const std::vector<std::pair<std::string, std::int64_t>>& breakdown() const {
    return breakdown_;
  }

  void merge(const RoundLedger& other) {
    for (const auto& [name, sum] : other.breakdown_) charge(name, sum);
  }

 private:
  std::int64_t total_ = 0;
  std::vector<std::pair<std::string, std::int64_t>> breakdown_;
};

}  // namespace scol
