// paxsim/sim/branch.hpp
//
// Conditional-branch predictor: gshare pattern-history table of 2-bit
// saturating counters.  The PHT is a per-core structure shared by both SMT
// contexts (as on NetBurst), so enabling Hyper-Threading introduces
// cross-thread aliasing — one of the interference channels the paper
// observes (CG's data-dependent branches degrade sharply under HT).
// Each context keeps a private global-history register.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace paxsim::sim {

/// Per-context branch history state.
struct BranchHistory {
  std::uint32_t ghr = 0;  ///< global history register (low bits used)
};

/// gshare predictor with a shared PHT.
class BranchPredictor {
 public:
  /// @param pht_entries  pattern table size (power of two)
  /// @param history_bits global-history length
  explicit BranchPredictor(std::size_t pht_entries = 4096,
                           unsigned history_bits = 12);

  /// Predicts the branch at static site @p site with outcome @p taken under
  /// the context history @p h, updates the table and history, and returns
  /// whether the prediction was correct.  Inline: this runs once per
  /// simulated loop iteration on every path through the simulator.
  bool predict_and_update(std::uint32_t site, bool taken,
                          BranchHistory& h) noexcept {
    // Knuth multiplicative hash spreads dense site ids across the table.
    const std::uint32_t pc_hash = site * 2654435761u;
    const std::uint32_t idx = (pc_hash ^ h.ghr) & mask_;
    std::uint8_t& ctr = pht_[idx];
    const bool predicted_taken = ctr >= 2;
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
    h.ghr = ((h.ghr << 1) | (taken ? 1u : 0u)) & history_mask_;
    return predicted_taken == taken;
  }

  /// Resets the table to weakly-not-taken and clears nothing else.
  void reset() noexcept;

 private:
  std::vector<std::uint8_t> pht_;  // 2-bit counters
  std::uint32_t mask_;
  std::uint32_t history_mask_;
};

}  // namespace paxsim::sim
