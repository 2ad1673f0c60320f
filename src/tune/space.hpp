// paxsim/tune/space.hpp
//
// The paxtune search space: the cross-product of every axis a configuration
// question spans — Table-1 row (threads x placement, from the machine's
// configuration table), loop-schedule override, schedule chunk, iteration
// grain and machine capacity scale.  Machines themselves are the outer axis
// of a tuning run (each machine has its own configuration table, so the
// driver builds one SearchSpace per machine rather than forcing a jagged
// axis into the product).
//
// Points are axis-index tuples (not resolved values).  cells() lists the
// points that name distinct cells, in Table-1-major order: two points name
// one cell exactly when harness::CellKey::from mints one key for them (a
// chunk next to the kernel-default schedule, or a repeated axis value), so
// the tuner never spends two evaluations on one cell and the rule that
// decides it lives in CellKey::from alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"

namespace paxsim::tune {

/// One candidate: indices into each SearchSpace axis.
struct Point {
  std::size_t config = 0;
  std::size_t sched = 0;
  std::size_t chunk = 0;
  std::size_t grain = 0;
  std::size_t scale = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// The per-machine axis lists.  Defaults make every axis but the
/// configuration a single point, so the default space IS the Table-1 row
/// set — the space the paper's Table 2 brute-forced.
struct SearchSpace {
  std::vector<harness::StudyConfig> configs;  ///< the machine's Table-1 rows
  std::vector<int> sched_kinds{-1};           ///< -1 = kernel default
  std::vector<std::size_t> chunks{0};         ///< 0 = schedule's default
  std::vector<std::size_t> grains{1};
  std::vector<double> scales{16.0};

  /// @p base with @p p's schedule, chunk, grain and scale substituted in.
  [[nodiscard]] harness::RunOptions options_for(
      const Point& p, const harness::RunOptions& base) const;

  /// Every distinct cell of @p bench at @p seed, in Table-1-major order
  /// (configuration, then schedule, chunk, grain and scale): a point whose
  /// CellKey::from key an earlier point already holds is skipped.
  [[nodiscard]] std::vector<Point> cells(npb::Benchmark bench,
                                         const harness::RunOptions& base,
                                         std::uint64_t seed) const;

  /// Human-readable axis values of @p p (for trajectories and reports).
  [[nodiscard]] std::string describe(const Point& p) const;

  /// Throws std::invalid_argument unless every axis is non-empty and every
  /// schedule kind, grain and scale is in range.
  void validate() const;
};

}  // namespace paxsim::tune
